//! The four benchmark workloads: what each records in set-up, what one
//! iteration does, and how its outputs are checked.
//!
//! Every call goes through the public API a `repro` user reaches:
//! `poat_harness::runner` to record and replay, `poat_workloads` for
//! TPC-C, and `poat_pmem::trace_io` for the trace file round trip.

use std::path::Path;

use poat_core::{PolbDesign, TranslationConfig};
use poat_harness::experiments::{POLB_SIZES, POT_LATENCIES};
use poat_harness::runner::{self, ideal, parallel, pipelined, Core, Scale, WorkloadRun};
use poat_pmem::trace_io::{self, MmapTrace};
use poat_pmem::{MachineState, Runtime};
use poat_sim::{simulate_inorder, simulate_inorder_ops, SimConfig, SimResult};
use poat_workloads::{ExpConfig, Micro, Pattern, Tpcc, TpccConfig, TpccPattern};

use crate::spans::Tracer;

/// Ops per chunk of the trace files the benchmark writes. Small enough
/// that even a quick-scale trace spans several chunks, so the structural
/// pass and per-chunk validation of `MmapTrace` are exercised.
pub const CHUNK_OPS: usize = 1 << 16;

/// Multiplier that spreads a seed over all 64 bits, the same mix
/// `runner::run_micro_seeded` applies to its salt.
const SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 20 quick-scale Figure-9/Table-8 cells, recorded and replayed
    /// inside every iteration.
    Fig9Quick,
    /// Full-scale TPC-C EACH, recorded in set-up, replayed on the seven
    /// Figure-9 configurations every iteration (sharded replay).
    TpccFull,
    /// Full-scale LL/EACH and BST/EACH, recorded in set-up, replayed on
    /// the Figure-11 POLB sizes and Figure-12 POT latencies.
    PolbSweep,
    /// Full-scale BST/RANDOM and SPS/ALL OPT traces recorded, saved in
    /// the chunked format, memory-mapped and replayed every iteration.
    TraceRoundtrip,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::Fig9Quick,
        Workload::TpccFull,
        Workload::PolbSweep,
        Workload::TraceRoundtrip,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig9Quick => "fig9_quick",
            Workload::TpccFull => "tpcc_full",
            Workload::PolbSweep => "polb_sweep",
            Workload::TraceRoundtrip => "trace_roundtrip",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The traces the workload records, at its scale.
    pub fn specs(self) -> Vec<Spec> {
        let pair = |b, p| {
            [
                Spec::Micro(b, p, ExpConfig::Base),
                Spec::Micro(b, p, ExpConfig::Opt),
            ]
        };
        match self {
            Workload::Fig9Quick => {
                let mut specs = Vec::new();
                for bench in Micro::ALL {
                    for pattern in Pattern::ALL {
                        specs.extend(pair(bench, pattern));
                    }
                }
                for pattern in [TpccPattern::All, TpccPattern::Each] {
                    specs.push(Spec::Tpcc(pattern, ExpConfig::Base));
                    specs.push(Spec::Tpcc(pattern, ExpConfig::Opt));
                }
                specs
            }
            Workload::TpccFull => vec![
                Spec::Tpcc(TpccPattern::Each, ExpConfig::Base),
                Spec::Tpcc(TpccPattern::Each, ExpConfig::Opt),
            ],
            Workload::PolbSweep => [
                pair(Micro::Ll, Pattern::Each),
                pair(Micro::Bst, Pattern::Each),
            ]
            .concat(),
            Workload::TraceRoundtrip => vec![
                Spec::Micro(Micro::Bst, Pattern::Random, ExpConfig::Opt),
                Spec::Micro(Micro::Sps, Pattern::All, ExpConfig::Opt),
            ],
        }
    }

    /// The replays one iteration makes through `runner::simulate`, over
    /// the traces of [`Workload::specs`] (indices into it). The round
    /// trip workload replays from its trace files instead and has none.
    pub fn jobs(self) -> Vec<Job> {
        let mut jobs = Vec::new();
        let specs = self.specs();
        for (base, spec) in specs.iter().enumerate() {
            if spec.config() != ExpConfig::Base {
                continue;
            }
            let opt = base + 1;
            debug_assert_eq!(specs[opt], spec.with_config(ExpConfig::Opt));
            let job = |run, core, cfg| Job { run, core, cfg };
            match self {
                // The seven replays of `experiments::main_matrix`, in
                // its order.
                Workload::Fig9Quick | Workload::TpccFull => jobs.extend([
                    job(base, Core::InOrder, pipelined()),
                    job(base, Core::OutOfOrder, pipelined()),
                    job(opt, Core::InOrder, pipelined()),
                    job(opt, Core::InOrder, parallel()),
                    job(opt, Core::InOrder, ideal()),
                    job(opt, Core::OutOfOrder, pipelined()),
                    job(opt, Core::OutOfOrder, ideal()),
                ]),
                // The BASE baseline, then the Figure-11 and Figure-12
                // sweeps on the in-order core.
                Workload::PolbSweep => {
                    jobs.push(job(base, Core::InOrder, pipelined()));
                    for entries in POLB_SIZES {
                        for design in [PolbDesign::Pipelined, PolbDesign::Parallel] {
                            let cfg = TranslationConfig {
                                polb_entries: entries,
                                ..TranslationConfig::for_design(design)
                            };
                            jobs.push(job(opt, Core::InOrder, cfg));
                        }
                    }
                    for cycles in POT_LATENCIES.into_iter().flatten() {
                        let cfg = TranslationConfig {
                            pot_walk_cycles: cycles,
                            ..pipelined()
                        };
                        jobs.push(job(opt, Core::InOrder, cfg));
                    }
                }
                Workload::TraceRoundtrip => {}
            }
        }
        jobs
    }

    /// Scale of the workload's traces; `smoke` forces quick scale.
    pub fn scale(self, smoke: bool) -> Scale {
        if smoke || self == Workload::Fig9Quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }
}

/// One recorded trace: a microbenchmark or TPC-C, under a pattern and a
/// configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spec {
    /// A microbenchmark.
    Micro(Micro, Pattern, ExpConfig),
    /// TPC-C.
    Tpcc(TpccPattern, ExpConfig),
}

impl Spec {
    /// The configuration the trace is recorded under.
    pub fn config(self) -> ExpConfig {
        match self {
            Spec::Micro(_, _, c) | Spec::Tpcc(_, c) => c,
        }
    }

    /// The same workload and pattern under another configuration.
    pub fn with_config(self, config: ExpConfig) -> Spec {
        match self {
            Spec::Micro(b, p, _) => Spec::Micro(b, p, config),
            Spec::Tpcc(p, _) => Spec::Tpcc(p, config),
        }
    }
}

/// One replay of a recorded trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Index of the trace in the workload's specs.
    pub run: usize,
    /// Core model.
    pub core: Core,
    /// Translation hardware.
    pub cfg: TranslationConfig,
}

/// Records one trace. Seed 0 gives exactly the inputs `repro` uses.
///
/// # Panics
///
/// Panics on runtime errors, as `runner::run_micro` does: the inputs
/// are fixed, so a failure is a bug.
pub fn record(spec: Spec, scale: Scale, seed: u64) -> WorkloadRun {
    match spec {
        Spec::Micro(bench, pattern, config) => {
            runner::run_micro_seeded(bench, pattern, config, scale, seed, |_| {})
        }
        Spec::Tpcc(pattern, config) => record_tpcc(pattern, config, scale, seed),
    }
}

/// `runner::run_tpcc` with the benchmark's seed folded into the
/// runtime's layout (ASLR) seed; identical to it at seed 0.
///
/// The TPC-C seed itself stays `run_tpcc`'s. It also draws the
/// transaction mix, and the mix alone moves the amount of simulated work
/// of full-scale TPC-C EACH by ±10% across seeds 1–10 (the other
/// workloads move by ±2%), which would swamp every host-time metric.
fn record_tpcc(pattern: TpccPattern, config: ExpConfig, scale: Scale, seed: u64) -> WorkloadRun {
    let tpcc_seed = 0x7C0C + matches!(pattern, TpccPattern::Each) as u64;
    let mut rt = Runtime::new(config.runtime_config(tpcc_seed ^ seed.wrapping_mul(SEED_MIX)));
    let cfg = TpccConfig {
        scale: scale.tpcc_scale(),
        seed: tpcc_seed,
    };
    let mut tpcc = Tpcc::setup(&mut rt, pattern, cfg)
        .unwrap_or_else(|e| panic!("tpcc setup {pattern}/{config}: {e}"));
    // Measure the transaction phase only, as `run_tpcc` does.
    rt.take_trace();
    let setup_xlat = rt.xlat_stats();
    tpcc.run(&mut rt, scale.tpcc_transactions())
        .unwrap_or_else(|e| panic!("tpcc run {pattern}/{config}: {e}"));
    let trace = rt.take_trace();
    let mut xlat = rt.xlat_stats();
    xlat.calls -= setup_xlat.calls;
    xlat.instructions -= setup_xlat.instructions;
    xlat.predictor_hits -= setup_xlat.predictor_hits;
    xlat.predictor_misses -= setup_xlat.predictor_misses;
    xlat.probes -= setup_xlat.probes;
    WorkloadRun {
        label: format!("TPCC/{pattern}/{config}"),
        summary: trace.summary(),
        state: rt.machine_state(),
        xlat,
        pools: rt.open_pools() as u64,
        trace,
    }
}

/// What set-up leaves for the iterations.
#[derive(Debug)]
pub struct Fixture {
    /// The workload.
    pub workload: Workload,
    /// Scale of its traces.
    pub scale: Scale,
    /// Seed of its inputs.
    pub seed: u64,
    /// The traces, in [`Workload::specs`] order.
    pub runs: Vec<WorkloadRun>,
    /// The replays of one iteration.
    pub jobs: Vec<Job>,
    /// Expected result of each op, once known: computed in set-up for the
    /// round trip (in-memory replay), taken from the warmup iteration for
    /// the others.
    pub reference: Vec<SimResult>,
    /// Host seconds spent recording the traces.
    pub record_s: f64,
}

/// The configuration the round trip replays under.
fn roundtrip_config() -> SimConfig {
    SimConfig::with_translation(pipelined())
}

/// Records every trace of `workload`, each call inside its own span, and
/// returns them with the seconds spent.
fn record_all(
    workload: Workload,
    scale: Scale,
    seed: u64,
    t: &mut Tracer,
) -> (Vec<WorkloadRun>, f64) {
    let mut record_s = 0.0;
    let runs = workload
        .specs()
        .into_iter()
        .map(|spec| {
            let (run, secs) = t.span("workloads.record", |_| record(spec, scale, seed));
            record_s += secs;
            run
        })
        .collect();
    (runs, record_s)
}

/// Records the workload's traces (and the round trip's in-memory
/// reference), each call inside its own span.
pub fn setup(workload: Workload, smoke: bool, seed: u64, t: &mut Tracer) -> Fixture {
    let scale = workload.scale(smoke);
    let (runs, record_s) = record_all(workload, scale, seed, t);
    let reference = if workload == Workload::TraceRoundtrip {
        runs.iter()
            .map(|run| {
                t.span("inorder.reference", |_| {
                    simulate_inorder(&run.trace, &run.state, &roundtrip_config())
                        .expect("the in-order core supports every design")
                })
                .0
            })
            .collect()
    } else {
        Vec::new()
    };
    Fixture {
        workload,
        scale,
        seed,
        jobs: workload.jobs(),
        runs,
        reference,
        record_s,
    }
}

/// Result of one op (a replay or a round trip), or why it failed.
pub type Outcome = Result<SimResult, String>;

impl Fixture {
    /// Index of the trace each op of an iteration replays.
    fn op_runs(&self) -> Vec<usize> {
        match self.workload {
            Workload::TraceRoundtrip => (0..self.runs.len()).collect(),
            _ => self.jobs.iter().map(|j| j.run).collect(),
        }
    }

    /// One closed-loop iteration. `dir` holds the round trip's files.
    pub fn iteration(&self, t: &mut Tracer, dir: &Path) -> Vec<Outcome> {
        match self.workload {
            Workload::TpccFull | Workload::PolbSweep => self.replay(&self.runs, &[], t),
            Workload::Fig9Quick => {
                let runs = self.rerecord(t);
                let changed = self.changed(&runs);
                self.replay(&runs, &changed, t)
            }
            Workload::TraceRoundtrip => {
                let runs = self.rerecord(t);
                let changed = self.changed(&runs);
                runs.iter()
                    .enumerate()
                    .map(|(i, run)| {
                        if changed[i] {
                            return Err(trace_changed());
                        }
                        let path = dir.join(format!("roundtrip-{i}.poattrc"));
                        let outcome = round_trip(run, &path, t);
                        let _ = std::fs::remove_file(&path);
                        outcome
                    })
                    .collect()
            }
        }
    }

    fn rerecord(&self, t: &mut Tracer) -> Vec<WorkloadRun> {
        record_all(self.workload, self.scale, self.seed, t).0
    }

    /// Which freshly recorded traces differ from set-up's.
    fn changed(&self, runs: &[WorkloadRun]) -> Vec<bool> {
        runs.iter()
            .zip(&self.runs)
            .map(|(new, old)| new.trace != old.trace)
            .collect()
    }

    fn replay(&self, runs: &[WorkloadRun], changed: &[bool], t: &mut Tracer) -> Vec<Outcome> {
        self.jobs
            .iter()
            .map(|job| {
                if changed.get(job.run).copied().unwrap_or(false) {
                    return Err(trace_changed());
                }
                let run = &runs[job.run];
                Ok(t.span("runner.simulate", |_| {
                    runner::simulate(run, job.core, job.cfg)
                })
                .0)
            })
            .collect()
    }
}

fn trace_changed() -> String {
    "re-recorded trace differs from set-up's".to_string()
}

/// Saves `run`'s trace to `path` in the chunked format, then maps it and
/// replays it ([`replay_file`]).
pub fn round_trip(run: &WorkloadRun, path: &Path, t: &mut Tracer) -> Outcome {
    t.span("trace_io.save", |_| {
        trace_io::save_chunked(&run.trace, path, CHUNK_OPS)
    })
    .0
    .map_err(|e| format!("save: {e}"))?;
    replay_file(path, &run.state, t)
}

/// Memory-maps a chunked trace file and replays it on the in-order core
/// with Pipelined translation, decoding and validating ops lazily. A
/// structural or op-level decode error fails the op.
pub fn replay_file(path: &Path, state: &MachineState, t: &mut Tracer) -> Outcome {
    let map = t
        .span("mmap.open", |_| MmapTrace::open(path))
        .0
        .map_err(|e| format!("open: {e}"))?;
    let mut decode_error = None;
    let result = t
        .span("mmap.replay", |_| {
            let ops = map
                .checked_ops()
                .map_while(|op| op.map_err(|e| decode_error = Some(e)).ok());
            simulate_inorder_ops(ops, state, &roundtrip_config())
        })
        .0;
    if let Some(e) = decode_error {
        return Err(format!("decode: {e}"));
    }
    result.map_err(|e| e.to_string())
}

/// Attempted and failed op counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Failed ÷ attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Counts one iteration's outcomes. An op fails when it returned an
    /// error, when its result differs from `reference`, or when it did
    /// not retire exactly its trace's instructions.
    pub fn check(&mut self, outcomes: &[Outcome], reference: &[SimResult], fx: &Fixture) {
        for ((outcome, expected), run) in outcomes.iter().zip(reference).zip(fx.op_runs()) {
            self.attempted += 1;
            let failure = match outcome {
                Err(e) => Some(e.clone()),
                Ok(r) if r != expected => Some("result differs from the reference".to_string()),
                Ok(r) if r.instructions != fx.runs[run].summary.instructions => {
                    Some("retired instructions differ from the trace's".to_string())
                }
                Ok(_) => None,
            };
            if let Some(why) = failure {
                self.failed += 1;
                self.first_failure
                    .get_or_insert_with(|| format!("{}: {why}", fx.runs[run].label));
            }
        }
    }
}
