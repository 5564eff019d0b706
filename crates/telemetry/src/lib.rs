// SPDX-License-Identifier: MIT OR Apache-2.0
//! # poat-telemetry
//!
//! The unified telemetry layer for the POAT reproduction. Every layer of
//! the pipeline — NVM device model, POLB/POT hardware structures, the
//! software `oid_direct` translator, the cycle-level simulators, and the
//! experiment harness — publishes into one process-global [`Registry`] of
//! named metrics, and one snapshot call serializes everything to the
//! versioned JSON document described in `docs/METRICS.md`.
//!
//! Three metric kinds cover the pipeline:
//!
//! * [`Counter`] — monotonically increasing `u64` (hits, misses, bytes).
//! * [`Gauge`] — last-write-wins `u64` (occupancy, configured sizes).
//! * [`Histogram`] — log2-bucketed distribution of `u64` samples
//!   (POT probe lengths, span latencies).
//!
//! Handles returned by the registry are `Arc`-shared atomics; the
//! registry mutex is touched only at registration and snapshot time.
//! Per-event code (a POLB look-up, a POT walk, an NVM device access)
//! does not touch them at all: its owner holds a [`LocalCounter`] or
//! [`LocalHistogram`] tally — plain integers — that adds itself to the
//! shared series once, when the owner drops.
//!
//! Phase timing uses span guards: [`Registry::span`] starts a wall-clock
//! timer whose `Drop` records nanoseconds into `span.<phase>.nanos` and
//! bumps `span.<phase>.count`; on the global registry the same guard is
//! the phase's node in the [`profile`] span tree. The canonical phase
//! names used across the workspace are the `PHASE_*` constants.
//!
//! ## Naming convention
//!
//! Metric names are dot-separated `layer.component.quantity` paths, e.g.
//! `core.polb.hits` or `nvm.device.bytes_written`. Per-experiment series
//! add a `{key=value,...}` label suffix built with [`labeled`], e.g.
//! `harness.experiment.polb_hits{artifact=table2,micro=ll,pattern=random}`.
//! The full catalogue lives in `docs/METRICS.md`.

//!
//! Beyond aggregates, the [`events`] module records *per-event* timelines
//! (a lock-free flight-recorder ring buffer threaded through the POLB/POT
//! pipeline) and [`timeline`] exports them as Chrome Trace Format JSON or
//! windowed CSV time series — see `docs/TRACING.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod profile;
pub mod timeline;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::Serialize;

/// Version of the snapshot JSON schema (`schema_version` field).
///
/// Bump on any breaking change to the snapshot layout and document the
/// migration in `docs/METRICS.md`.
pub const SCHEMA_VERSION: u32 = 1;

/// Canonical phase name: a workload's untraced setup (TPC-C population).
pub const PHASE_WORKLOAD_SETUP: &str = "workload_setup";
/// Canonical phase name: workload execution on the persistent runtime.
pub const PHASE_WORKLOAD_EXEC: &str = "workload_exec";
/// Canonical phase name: trace replay through a cycle-level core model.
pub const PHASE_TRACE_REPLAY: &str = "trace_replay";
/// Canonical phase name: POLB/translation-unit simulation of one config.
pub const PHASE_POLB_SIM: &str = "polb_sim";

/// Number of log2 histogram buckets: bucket 0 holds zeros, bucket `i`
/// (1..=64) holds samples with `i` significant bits.
const HIST_BUCKETS: usize = 65;

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. Cloning shares the same cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// A single-owner tally of this counter: bumps are plain integer
    /// adds, published into the shared cell when the tally drops.
    pub fn local(&self) -> LocalCounter {
        LocalCounter {
            pending: 0,
            global: self.clone(),
        }
    }
}

/// A [`Counter`] tally owned by one structure, from [`Counter::local`].
///
/// Its owner bumps it through `&mut self` with no atomic; the count is
/// added to the shared counter once, on drop. So the shared series lags
/// until every owner has dropped, and then is exact. A clone starts at
/// zero: cloning an owner must not publish the parent's counts twice.
#[derive(Debug)]
pub struct LocalCounter {
    pending: u64,
    global: Counter,
}

impl LocalCounter {
    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        // Wrapping, like the shared cell's `fetch_add`.
        self.pending = self.pending.wrapping_add(n);
    }
}

impl Clone for LocalCounter {
    fn clone(&self) -> Self {
        self.global.local()
    }
}

impl Drop for LocalCounter {
    fn drop(&mut self) {
        if self.pending != 0 {
            self.global.add(self.pending);
        }
    }
}

/// A last-write-wins value. Cloning shares the same cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log2-bucketed distribution of `u64` samples. Cloning shares cells.
///
/// Bucket boundaries are powers of two: a sample `v > 0` lands in the
/// bucket whose lower bound is the largest power of two `<= v`; zero has
/// its own bucket. This keeps recording allocation-free and O(1) while
/// preserving order-of-magnitude shape, which is what probe-length and
/// latency distributions need.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

/// The log2 bucket a sample lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A single-owner tally of this histogram: samples land in plain
    /// buckets, merged into the shared cells when the tally drops.
    pub fn local(&self) -> LocalHistogram {
        LocalHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
            global: self.clone(),
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated `q`-quantile (`0.0..=1.0`) of the recorded samples,
    /// interpolated within the containing log2 bucket — see
    /// [`HistogramSnapshot::percentile`] for the estimation contract.
    pub fn percentile(&self, q: f64) -> u64 {
        self.snapshot().percentile(q)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.0.buckets.iter().enumerate() {
            let count = b.load(Ordering::Relaxed);
            if count > 0 {
                let lower_bound = if i == 0 { 0 } else { 1u64 << (i - 1) };
                buckets.push(BucketCount { lower_bound, count });
            }
        }
        let count = self.count();
        let max = self.max();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            max,
            mean: self.mean(),
            p50: percentile_from(&buckets, count, max, 0.50),
            p90: percentile_from(&buckets, count, max, 0.90),
            p99: percentile_from(&buckets, count, max, 0.99),
            buckets,
        }
    }
}

/// A [`Histogram`] tally owned by one structure, from
/// [`Histogram::local`].
///
/// The same contract as [`LocalCounter`]: plain `&mut self` recording,
/// one exact merge (every bucket, count, sum and max) on drop, and a
/// clone that starts empty.
#[derive(Debug)]
pub struct LocalHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
    global: Histogram,
}

impl LocalHistogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        // Wrapping, like the shared cell's `fetch_add`.
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }
}

impl Clone for LocalHistogram {
    fn clone(&self) -> Self {
        self.global.local()
    }
}

impl Drop for LocalHistogram {
    fn drop(&mut self) {
        if self.count == 0 {
            return;
        }
        let shared = &self.global.0;
        for (cell, &n) in shared.buckets.iter().zip(&self.buckets) {
            if n != 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        shared.count.fetch_add(self.count, Ordering::Relaxed);
        shared.sum.fetch_add(self.sum, Ordering::Relaxed);
        shared.max.fetch_max(self.max, Ordering::Relaxed);
    }
}

/// Estimates a quantile from log2 bucket counts: find the bucket holding
/// the target rank, then interpolate linearly at the rank's midpoint
/// within the bucket's `[lower, 2·lower)` range. The estimate is clamped
/// to the observed maximum, so single-bucket distributions stay sane.
fn percentile_from(buckets: &[BucketCount], count: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for b in buckets {
        if seen + b.count >= rank {
            if b.lower_bound == 0 {
                return 0;
            }
            // The bucket spans [lower, 2·lower), but no sample exceeds the
            // observed max; interpolating toward the effective upper edge
            // makes the top rank land on max for single-bucket tails.
            let lower = b.lower_bound as f64;
            let upper = (2.0 * lower).min(max as f64 + 1.0);
            let frac = (rank - seen) as f64 / b.count as f64;
            let est = lower + (upper - lower) * frac;
            return (est.round() as u64).clamp(b.lower_bound, max);
        }
        seen += b.count;
    }
    max
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named collection of metrics.
///
/// Use [`global()`] for the process-wide registry every pipeline layer
/// publishes into; construct standalone registries only in tests that
/// need isolation.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted counter"),
        }
    }

    /// Returns the gauge `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted gauge"),
        }
    }

    /// Returns the histogram `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` already registered as {other:?}, wanted histogram"),
        }
    }

    /// Adds each `(name, value)` to the counter `name` under `labels`
    /// (see [`labeled`]): how an owner publishes its end-of-run totals
    /// as one labeled series set.
    pub fn add_labeled(&self, series: &[(&str, u64)], labels: &[(&str, &str)]) {
        for &(name, value) in series {
            self.counter(&labeled(name, labels)).add(value);
        }
    }

    /// Starts a wall-clock span for `phase`; its guard records
    /// `span.<phase>.nanos` (histogram) and `span.<phase>.count`
    /// (counter) when dropped. On [`global()`] the guard also records the
    /// [`run_scope`]-labelled pair and holds `phase` open in the
    /// [`profile`] span tree, so one call marks a phase boundary for all
    /// three. Isolated registries do neither, so they cannot leak series
    /// into `global()`.
    ///
    /// Each call takes the registry lock: spans mark phases, not events.
    pub fn span(&self, phase: &str) -> Span {
        let is_global = std::ptr::eq(self, global());
        let scoped = current_run_scope().filter(|_| is_global).map(|label| {
            let run = [("run", &*label)];
            (
                self.histogram(&labeled(&format!("span.{phase}.nanos"), &run)),
                self.counter(&labeled(&format!("span.{phase}.count"), &run)),
            )
        });
        let mut span = Span {
            nanos: self.histogram(&format!("span.{phase}.nanos")),
            count: self.counter(&format!("span.{phase}.count")),
            scoped,
            profile: None,
            start: Instant::now(),
        };
        if is_global {
            span.profile = Some(profile::scope(phase));
        }
        span
    }

    /// Zeroes every registered metric, keeping registrations.
    ///
    /// The harness calls this at process start so a snapshot reflects one
    /// run; tests use it for isolation.
    pub fn reset(&self) {
        let m = self.metrics.lock().unwrap();
        for metric in m.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0, Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for b in &h.0.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.0.count.store(0, Ordering::Relaxed);
                    h.0.sum.store(0, Ordering::Relaxed);
                    h.0.max.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Captures the current value of every registered metric.
    pub fn snapshot(&self, manifest: RunManifest) -> MetricsSnapshot {
        let m = self.metrics.lock().unwrap();
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            manifest,
            counters,
            gauges,
            histograms,
        }
    }
}

/// The process-wide registry all pipeline layers publish into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

// ---------------------------------------------------------------------------
// Run scoping
// ---------------------------------------------------------------------------

thread_local! {
    static RUN_SCOPE: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// RAII guard returned by [`run_scope`]; dropping it restores the
/// previous scope of the thread (scopes nest).
#[must_use = "the run scope is active only while this guard is alive"]
pub struct RunScope {
    prev: Option<Arc<str>>,
}

/// Tags every span started on this thread with a `run` label until the
/// returned guard drops.
///
/// While a scope is active, each span records into *two* series: the
/// plain process-wide `span.<phase>.nanos` / `.count`, and a duplicate
/// `span.<phase>.nanos{run=<label>}` / `.count{run=<label>}` pair scoped
/// to the labelled run. This is what keeps per-run latency percentiles
/// meaningful when many workload runs execute concurrently on a thread
/// pool: each worker scopes its own runs, so one run's samples cannot
/// contaminate another's distribution.
///
/// The scope is thread-local: work handed to other threads must
/// re-establish it there.
pub fn run_scope(label: &str) -> RunScope {
    let prev = RUN_SCOPE.with(|s| s.replace(Some(Arc::from(label))));
    RunScope { prev }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        RUN_SCOPE.with(|s| *s.borrow_mut() = self.prev.take());
    }
}

fn current_run_scope() -> Option<Arc<str>> {
    RUN_SCOPE.with(|s| s.borrow().clone())
}

/// A live phase timer; dropping it records the elapsed wall-clock time.
/// Obtain via [`Registry::span`].
#[must_use = "a span records its duration when dropped; binding it to `_` drops immediately"]
pub struct Span {
    nanos: Histogram,
    count: Counter,
    scoped: Option<(Histogram, Counter)>,
    /// The span-tree scope a [`Registry::span`] phase boundary holds
    /// open; dropped (and so closed) after the series record.
    profile: Option<profile::ProfileScope>,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        self.nanos.record(elapsed);
        self.count.inc();
        if let Some((nanos, count)) = &self.scoped {
            nanos.record(elapsed);
            count.inc();
        }
    }
}

/// Builds a labeled series name: `name{k1=v1,k2=v2}`.
///
/// Labels are emitted in the given order; callers keep a stable order so
/// the same series maps to the same key. Empty `labels` returns `name`
/// unchanged.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

// ---------------------------------------------------------------------------
// Snapshot document
// ---------------------------------------------------------------------------

/// One non-empty log2 bucket of a [`HistogramSnapshot`].
#[derive(Clone, Debug, Serialize)]
pub struct BucketCount {
    /// Inclusive lower bound of the bucket (0 or a power of two).
    pub lower_bound: u64,
    /// Samples that landed in this bucket.
    pub count: u64,
}

/// Point-in-time view of one histogram.
#[derive(Clone, Debug, Serialize)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Estimated median (see [`HistogramSnapshot::percentile`]).
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Non-empty log2 buckets, ascending by lower bound.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (`0.0..=1.0`) of the snapshot.
    ///
    /// Log2 buckets only bound each sample to `[2^k, 2^{k+1})`, so this is
    /// an *estimate*: the target rank is located in its bucket and
    /// interpolated linearly within the bucket's range, clamped to the
    /// observed maximum. The error is at most one octave — adequate for
    /// tail-latency reporting, which is what the paper's walk-latency
    /// distributions need.
    pub fn percentile(&self, q: f64) -> u64 {
        percentile_from(&self.buckets, self.count, self.max, q)
    }
}

/// Provenance of a metrics snapshot: what ran, at what scale, from which
/// source revision, and for how long.
#[derive(Clone, Debug, Serialize)]
pub struct RunManifest {
    /// The command or artifact selection that produced the run.
    pub command: String,
    /// Experiment scale ("quick" or "full").
    pub scale: String,
    /// Git revision of the source tree, or "unknown" outside a checkout.
    pub git_revision: String,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_seconds: f64,
}

impl RunManifest {
    /// A manifest for `command` at `scale`, with the git revision read
    /// from the enclosing checkout and elapsed time measured from `start`.
    pub fn collect(command: &str, scale: &str, start: Instant) -> Self {
        RunManifest {
            command: command.to_string(),
            scale: scale.to_string(),
            git_revision: git_revision().unwrap_or_else(|| "unknown".to_string()),
            elapsed_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

/// Reads the current git revision by following `.git/HEAD` upward from
/// the current directory — no `git` subprocess, works offline.
pub fn git_revision() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if let Ok(contents) = std::fs::read_to_string(&head) {
            let contents = contents.trim();
            if let Some(refname) = contents.strip_prefix("ref: ") {
                let ref_path = dir.join(".git").join(refname);
                if let Ok(rev) = std::fs::read_to_string(ref_path) {
                    return Some(rev.trim().to_string());
                }
                // Packed refs: scan .git/packed-refs for the ref name.
                if let Ok(packed) = std::fs::read_to_string(dir.join(".git").join("packed-refs")) {
                    for line in packed.lines() {
                        if let Some((rev, name)) = line.split_once(' ') {
                            if name.trim() == refname {
                                return Some(rev.trim().to_string());
                            }
                        }
                    }
                }
                return None;
            }
            return Some(contents.to_string());
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// The versioned, self-describing metrics document written by
/// `repro --metrics <path>`. Field-by-field description: `docs/METRICS.md`.
#[derive(Clone, Debug, Serialize)]
pub struct MetricsSnapshot {
    /// Snapshot layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Run provenance.
    pub manifest: RunManifest,
    /// All counters, by name.
    pub counters: BTreeMap<String, u64>,
    /// All gauges, by name.
    pub gauges: BTreeMap<String, u64>,
    /// All histograms, by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Serializes to the pretty-printed JSON document.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = Registry::new();
        let c = r.counter("t.hits");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("t.hits").get(), 5, "same name shares the cell");
        let g = r.gauge("t.size");
        g.set(32);
        g.set(128);
        assert_eq!(r.gauge("t.size").get(), 128);
    }

    #[test]
    fn histogram_log2_bucketing() {
        let r = Registry::new();
        let h = r.histogram("t.probes");
        for v in [0, 1, 1, 2, 3, 700] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 707);
        assert_eq!(h.max(), 700);
        let snap = h.snapshot();
        let bounds: Vec<u64> = snap.buckets.iter().map(|b| b.lower_bound).collect();
        // 0 -> [0]; 1,1 -> [1]; 2,3 -> [2]; 700 -> [512].
        assert_eq!(bounds, vec![0, 1, 2, 512]);
        let counts: Vec<u64> = snap.buckets.iter().map(|b| b.count).collect();
        assert_eq!(counts, vec![1, 2, 2, 1]);
    }

    #[test]
    fn percentiles_estimate_within_a_bucket() {
        let r = Registry::new();
        let h = r.histogram("t.lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        // Exact answers are 50/90/99; log2 estimates must stay within the
        // containing octave ([32,64), [64,128), [64,128)).
        let snap = h.snapshot();
        assert!((32..64).contains(&snap.p50), "p50 estimate {}", snap.p50);
        assert!((64..=100).contains(&snap.p90), "p90 estimate {}", snap.p90);
        assert!((64..=100).contains(&snap.p99), "p99 estimate {}", snap.p99);
        assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99, "monotone");
        assert_eq!(snap.percentile(0.5), snap.p50);
        assert!(snap.percentile(1.0) <= 100);
    }

    #[test]
    fn percentiles_degenerate_cases() {
        let r = Registry::new();
        let empty = r.histogram("t.empty");
        assert_eq!(empty.percentile(0.99), 0);
        let zeros = r.histogram("t.zeros");
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.percentile(0.99), 0);
        let single = r.histogram("t.single");
        single.record(37);
        let s = single.snapshot();
        assert_eq!((s.p50, s.p90, s.p99), (37, 37, 37), "clamped to max");
    }

    #[test]
    fn snapshot_json_carries_percentiles() {
        let r = Registry::new();
        r.histogram("t.lat").record(1000);
        let manifest = RunManifest {
            command: "x".into(),
            scale: "quick".into(),
            git_revision: "deadbeef".into(),
            elapsed_seconds: 0.0,
        };
        let json = r.snapshot(manifest).to_json_string();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["histograms"]["t.lat"]["p99"].as_u64(), Some(1000));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.counter("t.x");
        r.gauge("t.x");
    }

    #[test]
    fn spans_record_duration_and_count() {
        let r = Registry::new();
        {
            let _span = r.span("unit_test");
        }
        {
            let _span = r.span("unit_test");
        }
        assert_eq!(r.counter("span.unit_test.count").get(), 2);
        assert_eq!(r.histogram("span.unit_test.nanos").count(), 2);
    }

    #[test]
    fn local_counter_publishes_on_drop_and_clones_start_at_zero() {
        let r = Registry::new();
        let shared = r.counter("t.local");
        let mut owner = shared.local();
        owner.inc();
        owner.add(4);
        assert_eq!(shared.get(), 0, "nothing published while the owner lives");
        let mut clone = owner.clone();
        drop(clone.clone());
        assert_eq!(shared.get(), 0, "a fresh clone carries no counts");
        clone.inc();
        drop(clone);
        assert_eq!(shared.get(), 1, "the clone publishes only its own bumps");
        drop(owner);
        assert_eq!(shared.get(), 6);
    }

    #[test]
    fn local_histogram_merges_exactly() {
        let r = Registry::new();
        let direct = r.histogram("t.direct");
        let shared = r.histogram("t.local");
        let mut owner = shared.local();
        for v in [0, 1, 3, 3, 700, u64::MAX] {
            direct.record(v);
            owner.record(v);
        }
        drop(owner.clone());
        assert_eq!(shared.count(), 0);
        drop(owner);
        let (d, l) = (direct.snapshot(), shared.snapshot());
        assert_eq!((l.count, l.sum, l.max), (d.count, d.sum, d.max));
        let buckets = |s: &HistogramSnapshot| -> Vec<(u64, u64)> {
            s.buckets.iter().map(|b| (b.lower_bound, b.count)).collect()
        };
        assert_eq!(buckets(&l), buckets(&d));
    }

    #[test]
    fn reset_zeroes_everything() {
        let r = Registry::new();
        r.counter("t.c").add(9);
        r.gauge("t.g").set(9);
        r.histogram("t.h").record(9);
        r.reset();
        assert_eq!(r.counter("t.c").get(), 0);
        assert_eq!(r.gauge("t.g").get(), 0);
        assert_eq!(r.histogram("t.h").count(), 0);
        assert_eq!(r.histogram("t.h").snapshot().buckets.len(), 0);
    }

    #[test]
    fn labeled_series_names() {
        assert_eq!(labeled("a.b", &[]), "a.b");
        assert_eq!(
            labeled("a.b", &[("artifact", "table2"), ("micro", "ll")]),
            "a.b{artifact=table2,micro=ll}"
        );
    }

    #[test]
    fn add_labeled_sums_into_labeled_counters() {
        let r = Registry::new();
        let run = [("run", "r1")];
        r.add_labeled(&[("t.a.x", 2), ("t.a.y", 5)], &run);
        r.add_labeled(&[("t.a.x", 3)], &run);
        assert_eq!(r.counter("t.a.x{run=r1}").get(), 5);
        assert_eq!(r.counter("t.a.y{run=r1}").get(), 5);
        assert_eq!(r.counter("t.a.x").get(), 0);
    }

    #[test]
    fn snapshot_serializes_with_schema_version() {
        let r = Registry::new();
        r.counter("t.hits").add(3);
        r.histogram("t.lat").record(100);
        let manifest = RunManifest {
            command: "all".into(),
            scale: "quick".into(),
            git_revision: "deadbeef".into(),
            elapsed_seconds: 1.5,
        };
        let snap = r.snapshot(manifest);
        let json = snap.to_json_string();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["schema_version"].as_u64(), Some(1));
        assert_eq!(v["manifest"]["scale"].as_str(), Some("quick"));
        assert_eq!(v["counters"]["t.hits"].as_u64(), Some(3));
        assert_eq!(v["histograms"]["t.lat"]["count"].as_u64(), Some(1));
    }
}
