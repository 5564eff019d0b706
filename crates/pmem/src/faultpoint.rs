//! Deterministic crash-point sweeping and fault injection — the campaign
//! engine behind the harness' `repro crash-sweep` subcommand.
//!
//! The persistence model makes every `clwb` and every `fence` a numbered
//! **persist boundary** (undo-log record appends are persists themselves,
//! so record boundaries are covered automatically). The engine:
//!
//! 1. [`enumerate_crash_points`] — runs a workload once with boundary
//!    recording armed and returns every boundary with its kind;
//! 2. [`run_crash_point`] — re-runs the workload with a crash armed at
//!    one boundary (optionally injecting torn lines or a dropped `clwb`),
//!    crashes the device when it trips, recovers, and scores the result
//!    with [`verify_recovery`] + [`state_digest`].
//!
//! Everything is seeded: the same `(point, seed, mode)` triple reproduces
//! the identical post-recovery state bit for bit, which is what makes
//! `--replay` useful for debugging a failing point.
//!
//! Campaign counters land in the global telemetry registry under
//! `pmem.faultpoint.*` (see `docs/METRICS.md`).

use poat_nvm::{BoundaryKind, FaultPlan};

use crate::error::PmemError;
use crate::fnv::Fnv1a64;
use crate::runtime::Runtime;

/// How a sweep perturbs the persistence stream at the crash point.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum InjectMode {
    /// Plain crash: each unpersisted line is lost or kept whole
    /// (seeded, 50/50).
    #[default]
    Clean,
    /// Torn crash: unpersisted lines land at 8-byte-word granularity,
    /// so a line can be half old, half new.
    Torn,
    /// Silently drops the Nth `clwb` (the point is interpreted as a
    /// *clwb-stream* ordinal, not a boundary ordinal), lets the workload
    /// run to completion — so later fences make the program believe the
    /// line is durable — and only then crashes. This *violates* the
    /// hardware persistence contract, so it is a negative control: the
    /// verifier is expected to be able to detect the damage, and
    /// detections are reported separately from violations.
    DropClwb,
}

impl InjectMode {
    /// Stable lower-case name (report rows, CLI flags).
    pub fn label(&self) -> &'static str {
        match self {
            InjectMode::Clean => "clean",
            InjectMode::Torn => "torn",
            InjectMode::DropClwb => "drop-clwb",
        }
    }
}

/// One enumerated crash point of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// 1-based persist-boundary ordinal (`clwb` and `fence` each count).
    pub index: u64,
    /// What kind of boundary this is.
    pub kind: BoundaryKind,
}

/// Outcome of crashing at one point and recovering.
#[derive(Clone, Debug)]
pub struct PointOutcome {
    /// Recovery-invariant violations (empty = consistent).
    pub violations: Vec<String>,
    /// FNV-1a digest of all pool contents after recovery (pools in id
    /// order; contents hold ObjectIDs, so the digest is ASLR-stable).
    pub digest: u64,
    /// Undo-log records applied (rolled back or redone) by recovery.
    pub undo_applied: u64,
    /// Whether the workload actually reached the armed point (false when
    /// the point ordinal exceeds the workload's boundary count).
    pub tripped: bool,
}

fn registry_counter(name: &str) -> poat_telemetry::Counter {
    poat_telemetry::global().counter(name)
}

/// Enumerates every persist boundary a workload crosses.
///
/// `build` constructs a fresh runtime (it must be deterministic: same
/// config, same ASLR seed); `workload` runs the scenario to completion.
///
/// # Errors
///
/// Propagates workload failures — the enumeration run is not supposed to
/// crash.
pub fn enumerate_crash_points<B, W>(build: B, mut workload: W) -> Result<Vec<CrashPoint>, PmemError>
where
    B: Fn() -> Runtime,
    W: FnMut(&mut Runtime) -> Result<(), PmemError>,
{
    let mut rt = build();
    rt.arm_fault_plan(FaultPlan {
        record_boundaries: true,
        ..FaultPlan::default()
    });
    workload(&mut rt)?;
    let points: Vec<CrashPoint> = rt
        .boundary_kinds()
        .iter()
        .enumerate()
        .map(|(i, &kind)| CrashPoint {
            index: i as u64 + 1,
            kind,
        })
        .collect();
    registry_counter("pmem.faultpoint.points").add(points.len() as u64);
    Ok(points)
}

/// Runs the workload with a crash armed at boundary `point`, crashes the
/// device with `crash_seed` when it trips, recovers, and scores the
/// post-recovery state.
///
/// Deterministic: the same `(point, crash_seed, mode)` triple on the same
/// `build`/`workload` pair produces a bit-identical [`PointOutcome`].
///
/// # Errors
///
/// Propagates workload failures other than the expected
/// [`PmemError::InjectedCrash`], and recovery failures.
pub fn run_crash_point<B, W>(
    build: B,
    mut workload: W,
    point: u64,
    crash_seed: u64,
    mode: InjectMode,
) -> Result<PointOutcome, PmemError>
where
    B: Fn() -> Runtime,
    W: FnMut(&mut Runtime) -> Result<(), PmemError>,
{
    let mut rt = build();
    let plan = match mode {
        InjectMode::Clean => FaultPlan {
            crash_after: Some(point),
            ..FaultPlan::default()
        },
        InjectMode::Torn => FaultPlan {
            crash_after: Some(point),
            torn_lines: true,
            ..FaultPlan::default()
        },
        // No early crash for the control: the workload must cross later
        // fences first, otherwise the dropped write-back is
        // indistinguishable from an ordinary unpersisted line and the
        // control cannot detect anything.
        InjectMode::DropClwb => FaultPlan {
            drop_clwb: Some(point),
            ..FaultPlan::default()
        },
    };
    rt.arm_fault_plan(plan);
    let undo_before = rt.stats().undo_applied;
    let tripped = match workload(&mut rt) {
        Err(PmemError::InjectedCrash) => true,
        Err(e) => return Err(e),
        Ok(()) => false,
    };
    if tripped {
        registry_counter("pmem.faultpoint.crashes").inc();
    }
    let mut rt = rt.crash_and_recover(crash_seed)?;
    let mut violations = verify_recovery(&mut rt)?;
    let digest = state_digest(&mut rt)?;
    if mode == InjectMode::DropClwb {
        // Structural checks alone rarely see a single reverted line (it
        // reads as a leak or a stale-but-valid link), so the control also
        // compares against a fault-free reference: the workload ran to
        // completion, so any durable-state divergence proves the dropped
        // write-back — which the program fenced — damaged the media.
        let mut reference = build();
        workload(&mut reference)?;
        let mut reference = reference.crash_and_recover(crash_seed)?;
        let expected = state_digest(&mut reference)?;
        if digest != expected {
            violations.push(format!(
                "durable state diverged from the fault-free run \
                 ({digest:016x} != {expected:016x})"
            ));
        }
    }
    if !violations.is_empty() {
        // Dropped clwbs legitimately corrupt state (the control proves
        // the verifier can see it); clean/torn crashes must never.
        let series = match mode {
            InjectMode::DropClwb => "pmem.faultpoint.detections",
            _ => "pmem.faultpoint.violations",
        };
        registry_counter(series).add(violations.len() as u64);
    }
    let undo_applied = rt.stats().undo_applied - undo_before;
    poat_telemetry::global()
        .histogram("pmem.faultpoint.undo_applied")
        .record(undo_applied);
    Ok(PointOutcome {
        violations,
        digest,
        undo_applied,
        tripped,
    })
}

/// Counts a deterministic re-execution of a single crash point (the
/// harness' `--replay` path) in the campaign telemetry.
pub fn record_replay() {
    registry_counter("pmem.faultpoint.replays").inc();
}

/// The reusable recovery-invariant verifier: structural consistency of
/// every open pool (header, allocator free list ⊆ block boundaries, root
/// reachable and block-aligned, undo log idle — see
/// [`Runtime::inspect_pool`]) plus runtime-level post-recovery checks.
///
/// Returns one human-readable line per violation (empty = consistent).
///
/// # Errors
///
/// Propagates inspection failures.
pub fn verify_recovery(rt: &mut Runtime) -> Result<Vec<String>, PmemError> {
    let mut violations = Vec::new();
    for rep in rt.inspect_all()? {
        for p in &rep.problems {
            violations.push(format!("pool {} ({}): {p}", rep.pool, rep.name));
        }
        if rep.log_active {
            violations.push(format!(
                "pool {} ({}): undo log not idle after recovery",
                rep.pool, rep.name
            ));
        }
    }
    if rt.in_transaction() {
        violations.push("transaction still active after recovery".to_owned());
    }
    Ok(violations)
}

/// FNV-1a digest over the contents of every open pool, in pool-id order.
///
/// Pool contents reference objects by ObjectID (never by virtual
/// address), so the digest is independent of the post-crash ASLR layout:
/// two recoveries of the same crash agree bit for bit.
///
/// # Errors
///
/// Propagates pool-read failures.
pub fn state_digest(rt: &mut Runtime) -> Result<u64, PmemError> {
    let mut ids = rt.open_pool_ids();
    ids.sort();
    let mut h = Fnv1a64::default();
    for id in ids {
        h = h
            .update(&id.raw().to_le_bytes())
            .update(&rt.pool_bytes(id)?);
    }
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};

    fn build() -> Runtime {
        Runtime::new(RuntimeConfig {
            aslr_seed: 42,
            ..RuntimeConfig::default()
        })
    }

    /// A workload touching every crash-sensitive protocol: pool creation,
    /// root allocation, bump + free-list allocation, transactional
    /// updates, transactional alloc, and deferred frees.
    fn churn(rt: &mut Runtime) -> Result<(), PmemError> {
        let pool = rt.pool_create("p", 1 << 16)?;
        let root = rt.pool_root(pool, 16)?;
        let a = rt.pmalloc(pool, 24)?;
        rt.write_u64(a, 0xA)?;
        rt.persist(a, 8)?;
        rt.tx_begin(pool)?;
        rt.tx_add_range(root, 16)?;
        rt.write_u64(root, a.raw())?;
        rt.tx_end()?;
        rt.tx_begin(pool)?;
        let b = rt.tx_pmalloc(24)?;
        rt.write_u64(b, 0xB)?;
        rt.persist(b, 8)?;
        rt.tx_add_range(root, 8)?;
        rt.write_u64(root, b.raw())?;
        rt.tx_pfree(a)?;
        rt.tx_end()?;
        let c = rt.pmalloc(pool, 40)?;
        rt.pfree(c)?;
        Ok(())
    }

    #[test]
    fn enumeration_is_stable_and_fence_terminated() {
        let points = enumerate_crash_points(build, churn).unwrap();
        let again = enumerate_crash_points(build, churn).unwrap();
        assert_eq!(points, again);
        assert!(points.len() > 20, "expected a rich boundary stream");
        assert_eq!(
            points.last().unwrap().kind,
            poat_nvm::BoundaryKind::Fence,
            "every persist ends with a fence"
        );
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i as u64 + 1);
        }
    }

    /// The tentpole regression test: sweeping *every* crash point under
    /// both clean and torn injection must find zero invariant violations.
    /// Pre-fix, this fails: the old pmalloc/pfree persist ordering, the
    /// frees-before-commit `tx_end`, the two-word ACTIVE/TAIL log status,
    /// and the non-atomic `pool_create` each corrupt some point.
    #[test]
    fn full_sweep_clean_and_torn_has_no_violations() {
        let points = enumerate_crash_points(build, churn).unwrap();
        for mode in [InjectMode::Clean, InjectMode::Torn] {
            for p in &points {
                for seed in [1u64, 7] {
                    let out = run_crash_point(build, churn, p.index, seed, mode).unwrap();
                    assert!(out.tripped, "point {} never tripped", p.index);
                    assert!(
                        out.violations.is_empty(),
                        "point {} ({:?}, {} seed {seed}): {:?}",
                        p.index,
                        p.kind,
                        mode.label(),
                        out.violations
                    );
                }
            }
        }
    }

    #[test]
    fn replay_is_bit_for_bit_deterministic() {
        let points = enumerate_crash_points(build, churn).unwrap();
        let mid = points[points.len() / 2].index;
        for mode in [InjectMode::Clean, InjectMode::Torn, InjectMode::DropClwb] {
            let a = run_crash_point(build, churn, mid, 9, mode).unwrap();
            let b = run_crash_point(build, churn, mid, 9, mode).unwrap();
            assert_eq!(a.digest, b.digest, "{}", mode.label());
            assert_eq!(a.violations, b.violations);
            assert_eq!(a.undo_applied, b.undo_applied);
        }
    }

    /// The negative control has teeth: dropping write-backs the program
    /// later fences over must be *detectable* by the verifier somewhere
    /// in the stream — otherwise the invariant checks are vacuous.
    #[test]
    fn drop_clwb_control_is_detectable() {
        let points = enumerate_crash_points(build, churn).unwrap();
        let clwbs = points
            .iter()
            .filter(|p| p.kind == poat_nvm::BoundaryKind::Clwb)
            .count() as u64;
        assert!(clwbs > 10);
        let mut detections = 0;
        for n in 1..=clwbs {
            for seed in [1u64, 7] {
                let out = run_crash_point(build, churn, n, seed, InjectMode::DropClwb).unwrap();
                assert!(!out.tripped, "the control runs to completion");
                detections += out.violations.len();
            }
        }
        assert!(detections > 0, "no dropped clwb was ever detected");
    }

    #[test]
    fn point_beyond_end_runs_to_completion() {
        let points = enumerate_crash_points(build, churn).unwrap();
        let out = run_crash_point(
            build,
            churn,
            points.len() as u64 + 100,
            3,
            InjectMode::Clean,
        )
        .unwrap();
        assert!(!out.tripped);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn interrupted_pool_create_is_rolled_back() {
        // Crash inside the first persist of pool_create: the magic is
        // still zero, so recovery must unregister the pool entirely.
        let out = run_crash_point(build, churn, 1, 5, InjectMode::Clean).unwrap();
        assert!(out.tripped);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // And the name is recreatable afterwards (fresh engine run, but
        // verify directly too).
        let mut rt = build();
        rt.arm_fault_plan(poat_nvm::FaultPlan {
            crash_after: Some(1),
            ..Default::default()
        });
        assert!(matches!(
            rt.pool_create("p", 1 << 16),
            Err(PmemError::InjectedCrash)
        ));
        let mut rt = rt.crash_and_recover(5).unwrap();
        assert_eq!(rt.stats().creations_rolled_back, 1);
        assert!(!rt.dir().contains("p"), "uncommitted creation unregistered");
        rt.pool_create("p", 1 << 16).unwrap();
    }

    #[test]
    fn committed_tx_redo_is_idempotent_across_double_crash() {
        // Crash during recovery-adjacent windows: crash once at each
        // point, recover, then crash the recovered runtime again with
        // nothing pending — state must be stable (idempotent redo).
        let points = enumerate_crash_points(build, churn).unwrap();
        let stride = (points.len() / 8).max(1);
        for p in points.iter().step_by(stride) {
            let mut rt = build();
            rt.arm_fault_plan(poat_nvm::FaultPlan {
                crash_after: Some(p.index),
                ..Default::default()
            });
            match churn(&mut rt) {
                Err(PmemError::InjectedCrash) | Ok(()) => {}
                Err(e) => panic!("unexpected {e}"),
            }
            let mut once = rt.crash_and_recover(11).unwrap();
            let d1 = state_digest(&mut once).unwrap();
            let mut twice = once.crash_and_recover(13).unwrap();
            let d2 = state_digest(&mut twice).unwrap();
            assert_eq!(d1, d2, "point {}: second recovery changed state", p.index);
            assert!(verify_recovery(&mut twice).unwrap().is_empty());
        }
    }
}
