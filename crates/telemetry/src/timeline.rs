//! Exporters over captured [`TraceEvent`] streams: Chrome Trace Format
//! JSON and a windowed time-series aggregator with CSV output.
//!
//! * [`chrome_trace_json`] produces a `{"traceEvents": [...]}` document
//!   loadable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`. Each [`TraceDesign`] becomes a *process* (named
//!   via metadata events), each pool id a *thread*, POT walks become
//!   complete spans (`ph: "X"`, paired from begin/end events), and
//!   everything else an instant event (`ph: "i"`). Timestamps are
//!   simulated cycles reinterpreted as microseconds — relative spacing is
//!   what matters, not wall time.
//! * [`windows`] folds the stream into per-design, per-N-instruction
//!   [`TimelineWindow`] rows (miss rate, walk latency, POLB occupancy…);
//!   [`windows_csv`] renders them with the same conventions as the
//!   harness's `results_csv` files (header line + comma rows).
//!
//! The full schema is documented in `docs/TRACING.md`.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::events::{EventKind, TraceDesign, TraceEvent};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn design_pid(d: TraceDesign) -> u64 {
    match d {
        TraceDesign::Unknown => 0,
        TraceDesign::Pipelined => 1,
        TraceDesign::Parallel => 2,
        TraceDesign::Software => 3,
    }
}

fn category(kind: EventKind) -> &'static str {
    match kind {
        EventKind::NvLoad | EventKind::NvStore => "issue",
        EventKind::PolbHit | EventKind::PolbMiss | EventKind::PolbFill | EventKind::PolbEvict => {
            "polb"
        }
        EventKind::PotWalkBegin | EventKind::PotWalkEnd | EventKind::PageWalk => "pot",
        EventKind::Fault => "fault",
        EventKind::SoftCall | EventKind::SoftPredictorHit | EventKind::SoftPredictorMiss => "soft",
    }
}

fn instant(ev: &TraceEvent) -> Value {
    obj(vec![
        ("name", s(ev.kind.name())),
        ("cat", s(category(ev.kind))),
        ("ph", s("i")),
        ("s", s("t")),
        ("ts", Value::U64(ev.cycle)),
        ("pid", Value::U64(design_pid(ev.design))),
        ("tid", Value::U64(ev.pool as u64)),
        (
            "args",
            obj(vec![
                ("seq", Value::U64(ev.seq)),
                ("instr", Value::U64(ev.instr)),
                ("arg", Value::U64(ev.arg as u64)),
            ]),
        ),
    ])
}

fn walk_span(begin: &TraceEvent, end_cycle: u64, probes: u64, faulted: bool) -> Value {
    obj(vec![
        (
            "name",
            s(if faulted {
                "pot_walk_fault"
            } else {
                "pot_walk"
            }),
        ),
        ("cat", s("pot")),
        ("ph", s("X")),
        ("ts", Value::U64(begin.cycle)),
        (
            "dur",
            Value::U64(end_cycle.saturating_sub(begin.cycle).max(1)),
        ),
        ("pid", Value::U64(design_pid(begin.design))),
        ("tid", Value::U64(begin.pool as u64)),
        (
            "args",
            obj(vec![
                ("seq", Value::U64(begin.seq)),
                ("instr", Value::U64(begin.instr)),
                ("probes", Value::U64(probes)),
            ]),
        ),
    ])
}

/// Serializes `events` as a Chrome Trace Format JSON document.
///
/// `PotWalkBegin`/`PotWalkEnd` pairs (matched per design+pool in sequence
/// order) become complete `"X"` spans named `pot_walk`, with the probe
/// count in `args`; a begin closed by a [`EventKind::Fault`] becomes a
/// `pot_walk_fault` span; every other event is an `"i"` instant. One
/// metadata record per design present names the Chrome "process".
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut trace_events: Vec<Value> = Vec::with_capacity(events.len() + 8);

    // Process-name metadata for each design that appears.
    let mut designs: Vec<TraceDesign> = events.iter().map(|e| e.design).collect();
    designs.sort();
    designs.dedup();
    for d in &designs {
        trace_events.push(obj(vec![
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", Value::U64(design_pid(*d))),
            ("args", obj(vec![("name", s(d.name()))])),
        ]));
    }

    // Pending POT-walk begins, keyed by (design, pool).
    let mut pending: BTreeMap<(u64, u32), TraceEvent> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            EventKind::PotWalkBegin => {
                // An unmatched earlier begin (e.g. sampling artifact)
                // degrades to an instant rather than vanishing.
                if let Some(stale) = pending.insert((design_pid(ev.design), ev.pool), *ev) {
                    trace_events.push(instant(&stale));
                }
            }
            EventKind::PotWalkEnd => match pending.remove(&(design_pid(ev.design), ev.pool)) {
                Some(begin) => trace_events.push(walk_span(&begin, ev.cycle, ev.arg as u64, false)),
                None => trace_events.push(instant(ev)),
            },
            EventKind::Fault => {
                if let Some(begin) = pending.remove(&(design_pid(ev.design), ev.pool)) {
                    trace_events.push(walk_span(&begin, ev.cycle, ev.arg as u64, true));
                }
                trace_events.push(instant(ev));
            }
            _ => trace_events.push(instant(ev)),
        }
    }
    // Walks still open at the end of the stream degrade to instants.
    for (_, begin) in pending {
        trace_events.push(instant(&begin));
    }

    let doc = obj(vec![
        ("traceEvents", Value::Seq(trace_events)),
        ("displayTimeUnit", s("ms")),
        (
            "otherData",
            obj(vec![("ts_unit", s("simulated cycles (as µs)"))]),
        ),
    ]);
    // Compact output: traces reach millions of events, and Perfetto does
    // not care about whitespace.
    serde_json::to_string(&doc).expect("chrome trace serialization is infallible")
}

/// One aggregation window: all events of one design whose instruction
/// index falls in `[start_instr, start_instr + window)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimelineWindow {
    /// The design this row aggregates.
    pub design: TraceDesign,
    /// Inclusive instruction-index lower bound of the window.
    pub start_instr: u64,
    /// `nvld`/`nvst`/`oid_direct` issues observed.
    pub accesses: u64,
    /// POLB hits.
    pub polb_hits: u64,
    /// POLB misses.
    pub polb_misses: u64,
    /// POLB fills.
    pub fills: u64,
    /// POLB evictions.
    pub evictions: u64,
    /// Estimated POLB occupancy at window end (running fills − evictions).
    pub occupancy: u64,
    /// Completed POT walks.
    pub pot_walks: u64,
    /// Sum of linear probes over completed walks.
    pub walk_probes: u64,
    /// Sum of walk durations in cycles (end − begin per matched pair).
    pub walk_cycles: u64,
    /// Translation faults.
    pub faults: u64,
    /// Software predictor hits.
    pub soft_hits: u64,
    /// Software predictor misses.
    pub soft_misses: u64,
}

impl TimelineWindow {
    /// POLB miss rate within the window (0.0 when no lookups).
    pub fn miss_rate(&self) -> f64 {
        let lookups = self.polb_hits + self.polb_misses;
        if lookups == 0 {
            0.0
        } else {
            self.polb_misses as f64 / lookups as f64
        }
    }

    /// Mean probes per completed POT walk (0.0 when none).
    pub fn mean_probes(&self) -> f64 {
        if self.pot_walks == 0 {
            0.0
        } else {
            self.walk_probes as f64 / self.pot_walks as f64
        }
    }

    /// Mean POT-walk latency in cycles (0.0 when none).
    pub fn mean_walk_cycles(&self) -> f64 {
        if self.pot_walks == 0 {
            0.0
        } else {
            self.walk_cycles as f64 / self.pot_walks as f64
        }
    }
}

/// Folds `events` into per-design windows of `window` instructions,
/// ordered by (design, start_instr).
///
/// Occupancy is the running `fills − evictions` balance per design — an
/// estimate of live POLB entries that is exact as long as the stream
/// covers the POLB's whole life (the harness drains the ring per run).
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn windows(events: &[TraceEvent], window: u64) -> Vec<TimelineWindow> {
    assert!(window > 0, "window size must be positive");
    let mut rows: BTreeMap<(u64, u64), TimelineWindow> = BTreeMap::new();
    let mut occupancy: BTreeMap<u64, u64> = BTreeMap::new();
    let mut pending_walk: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    for ev in events {
        let pid = design_pid(ev.design);
        let start = (ev.instr / window) * window;
        let row = rows.entry((pid, start)).or_insert_with(|| TimelineWindow {
            design: ev.design,
            start_instr: start,
            ..TimelineWindow::default()
        });
        match ev.kind {
            EventKind::NvLoad | EventKind::NvStore | EventKind::SoftCall => row.accesses += 1,
            EventKind::PolbHit => row.polb_hits += 1,
            EventKind::PolbMiss => row.polb_misses += 1,
            EventKind::PolbFill => {
                row.fills += 1;
                *occupancy.entry(pid).or_default() += 1;
            }
            EventKind::PolbEvict => {
                row.evictions += 1;
                let occ = occupancy.entry(pid).or_default();
                *occ = occ.saturating_sub(1);
            }
            EventKind::PotWalkBegin => {
                pending_walk.insert((pid, ev.pool), ev.cycle);
            }
            EventKind::PotWalkEnd => {
                row.pot_walks += 1;
                row.walk_probes += ev.arg as u64;
                if let Some(begin) = pending_walk.remove(&(pid, ev.pool)) {
                    row.walk_cycles += ev.cycle.saturating_sub(begin);
                }
            }
            EventKind::PageWalk => {}
            EventKind::Fault => row.faults += 1,
            EventKind::SoftPredictorHit => row.soft_hits += 1,
            EventKind::SoftPredictorMiss => row.soft_misses += 1,
        }
        row.occupancy = occupancy.get(&pid).copied().unwrap_or(0);
    }
    rows.into_values().collect()
}

/// The header line of [`windows_csv`].
pub const WINDOWS_CSV_HEADER: &str = "design,start_instr,accesses,polb_hits,polb_misses,\
miss_rate,fills,evictions,occupancy,pot_walks,mean_probes,mean_walk_cycles,faults,\
soft_hits,soft_misses";

/// Renders windows as CSV (header + one row per window), matching the
/// harness `results_csv` conventions.
pub fn windows_csv(rows: &[TimelineWindow]) -> String {
    let mut out = String::from(WINDOWS_CSV_HEADER);
    out.push('\n');
    for w in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{:.4},{},{},{},{},{:.2},{:.1},{},{},{}\n",
            w.design.name(),
            w.start_instr,
            w.accesses,
            w.polb_hits,
            w.polb_misses,
            w.miss_rate(),
            w.fills,
            w.evictions,
            w.occupancy,
            w.pot_walks,
            w.mean_probes(),
            w.mean_walk_cycles(),
            w.faults,
            w.soft_hits,
            w.soft_misses,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventRecorder;

    /// Advances a copied context's cycle (tests don't use the TLS layer).
    fn advanced(mut ctx: crate::events::AccessCtx, delta: u64) -> crate::events::AccessCtx {
        ctx.cycle += delta;
        ctx
    }

    fn sample_stream() -> Vec<TraceEvent> {
        let rec = EventRecorder::new(256, 1);
        for (i, design) in [TraceDesign::Pipelined, TraceDesign::Parallel]
            .into_iter()
            .enumerate()
        {
            let pool = (i + 1) as u32;
            let ctx = rec.begin_access(EventKind::NvLoad, design, 100, 1000, pool);
            rec.emit(&ctx, EventKind::PolbMiss, pool, 0);
            rec.emit(&ctx, EventKind::PotWalkBegin, pool, 0);
            let ctx2 = advanced(ctx, 33);
            rec.emit(&ctx2, EventKind::PotWalkEnd, pool, 2);
            rec.emit(&ctx2, EventKind::PolbFill, pool, 0);
            let ctx3 = rec.begin_access(EventKind::NvLoad, design, 5000, 2000, pool);
            rec.emit(&ctx3, EventKind::PolbHit, pool, 0);
        }
        rec.events()
    }

    #[test]
    fn chrome_trace_round_trips_through_vendored_parser() {
        let json = chrome_trace_json(&sample_stream());
        let v: Value = serde_json::from_str(&json).expect("exporter emits valid JSON");
        let evs = v["traceEvents"].as_array().expect("traceEvents array");
        assert!(!evs.is_empty());
        // Both designs got a process_name metadata record.
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e["ph"].as_str() == Some("M"))
            .filter_map(|e| e["args"]["name"].as_str())
            .collect();
        assert!(names.contains(&"pipelined") && names.contains(&"parallel"));
        // The walk begin/end pair became an X span with duration and probes.
        let span = evs
            .iter()
            .find(|e| e["name"].as_str() == Some("pot_walk"))
            .expect("pot_walk span present");
        assert_eq!(span["ph"].as_str(), Some("X"));
        assert_eq!(span["dur"].as_u64(), Some(33));
        assert_eq!(span["args"]["probes"].as_u64(), Some(2));
        // Instants carry the thread (pool) and process (design) ids.
        let miss = evs
            .iter()
            .find(|e| e["name"].as_str() == Some("polb_miss"))
            .expect("polb_miss instant present");
        assert_eq!(miss["ph"].as_str(), Some("i"));
        assert_eq!(miss["pid"].as_u64(), Some(1));
    }

    #[test]
    fn fault_closes_pending_walk_as_fault_span() {
        let rec = EventRecorder::new(64, 1);
        let ctx = rec.begin_access(EventKind::NvLoad, TraceDesign::Pipelined, 1, 10, 9);
        rec.emit(&ctx, EventKind::PolbMiss, 9, 0);
        rec.emit(&ctx, EventKind::PotWalkBegin, 9, 0);
        let later = advanced(ctx, 30);
        rec.emit(&later, EventKind::Fault, 9, 0);
        let json = chrome_trace_json(&rec.events());
        let v: Value = serde_json::from_str(&json).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        assert!(evs
            .iter()
            .any(|e| e["name"].as_str() == Some("pot_walk_fault")));
        assert!(evs.iter().any(|e| e["name"].as_str() == Some("fault")));
    }

    #[test]
    fn windows_aggregate_per_design_and_instruction_interval() {
        let evs = sample_stream();
        let rows = windows(&evs, 1024);
        // Two designs × two windows (instr 100 → window 0, instr 5000 → 4096).
        assert_eq!(rows.len(), 4);
        let first = &rows[0];
        assert_eq!(first.design, TraceDesign::Pipelined);
        assert_eq!(first.start_instr, 0);
        assert_eq!(first.accesses, 1);
        assert_eq!(first.polb_misses, 1);
        assert_eq!(first.fills, 1);
        assert_eq!(first.pot_walks, 1);
        assert_eq!(first.walk_probes, 2);
        assert_eq!(first.walk_cycles, 33);
        assert_eq!(first.occupancy, 1);
        assert!((first.miss_rate() - 1.0).abs() < 1e-9);
        let warm = rows
            .iter()
            .find(|r| r.design == TraceDesign::Pipelined && r.start_instr == 4096)
            .unwrap();
        assert_eq!(warm.polb_hits, 1);
        assert!((warm.miss_rate() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn windows_csv_has_header_and_rows() {
        let csv = windows_csv(&windows(&sample_stream(), 1024));
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(WINDOWS_CSV_HEADER));
        assert_eq!(lines.count(), 4);
        assert!(csv.contains("pipelined,0,1,0,1,1.0000,1,0,1,1,2.00,33.0,0,0,0"));
    }
}
