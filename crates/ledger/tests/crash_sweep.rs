// SPDX-License-Identifier: MIT OR Apache-2.0
//! Crash-point sweep over the run ledger's append path: the ledger's
//! [`RecordData`] records are stored through `poat-pmem` write/persist
//! primitives so the fault-injection engine can crash an append at
//! every `clwb`/`fence`. Swept contract (clean and torn, two seeds):
//!
//! * every record whose `append` returned before the crash is
//!   recovered, and at most the one in-flight record beyond it;
//! * the scan never serves a torn tail — recovered records equal the
//!   appended prefix, in order;
//! * dropped write-backs (the negative control, which *violates* the
//!   persistence contract) are detectable as lost/short prefixes.

use std::collections::BTreeMap;

use poat_core::ObjectId;
use poat_ledger::{Ledger, LedgerError, PmemMedium, RecordData};
use poat_pmem::faultpoint::{enumerate_crash_points, verify_recovery};
use poat_pmem::{BoundaryKind, FaultPlan, PmemError, Runtime, RuntimeConfig};

const CAP: u64 = 1 << 16;

/// The records the workload appends, in order.
fn workload() -> Vec<RecordData> {
    (0..3)
        .map(|n| RecordData {
            timestamp_unix_secs: 1_700_000_000 + n,
            elapsed_micros: 1000 + n,
            command: format!("sweep-{n}"),
            scale: "quick".into(),
            git_revision: "cafebabe".into(),
            counters: BTreeMap::from([
                ("t.sweep.seq".into(), n),
                ("t.sweep.value".into(), n * 17 + 3),
            ]),
            ..RecordData::default()
        })
        .collect()
}

fn build() -> Runtime {
    Runtime::new(RuntimeConfig {
        aslr_seed: 7,
        ..RuntimeConfig::default()
    })
}

fn to_pmem(e: LedgerError) -> PmemError {
    match e {
        LedgerError::Pmem(p) => p,
        other => panic!("non-pmem ledger error during sweep: {other}"),
    }
}

fn setup(rt: &mut Runtime) -> Result<ObjectId, PmemError> {
    let pool = rt.pool_create("log", 1 << 20)?;
    rt.pmalloc(pool, CAP)
}

/// Runs setup + the workload's appends, reporting how many appends fully
/// returned before a crash (if any) and the object id once known.
fn run_workload(rt: &mut Runtime) -> (Option<ObjectId>, usize, Result<(), PmemError>) {
    let oid = match setup(rt) {
        Ok(oid) => oid,
        Err(e) => return (None, 0, Err(e)),
    };
    let mut completed = 0;
    let result = (|| {
        let mut ledger = Ledger::open(PmemMedium::attach(rt, oid, CAP)).map_err(to_pmem)?;
        for rec in workload() {
            ledger.append(rec).map_err(to_pmem)?;
            completed += 1;
        }
        Ok(())
    })();
    (Some(oid), completed, result)
}

/// Reopens the ledger on a recovered runtime and checks the recovery
/// contract against the number of appends known complete.
fn check_recovered(rt: &mut Runtime, oid: ObjectId, completed: usize, ctx: &str) {
    let ledger = Ledger::open(PmemMedium::attach(rt, oid, CAP))
        .unwrap_or_else(|e| panic!("{ctx}: reopen failed: {e}"));
    let scan = ledger.scan_report();
    assert!(
        (completed..=completed + 1).contains(&scan.recovered),
        "{ctx}: recovered {} records after {completed} completed appends \
         (fewer loses a persisted record; +1 in-flight max)",
        scan.recovered
    );
    assert_eq!(
        scan.torn_tail_bytes, 0,
        "{ctx}: the tail word committed bytes that do not scan ({:?})",
        scan.torn_reason
    );
    let expected = workload();
    for (i, r) in ledger.records().iter().enumerate() {
        assert_eq!(r.seq, i as u64 + 1, "{ctx}: sequence gap");
        assert_eq!(
            r.data, expected[i],
            "{ctx}: record {i} content diverged after recovery"
        );
    }
}

#[test]
fn ledger_append_path_survives_every_crash_point() {
    let appends = workload().len();
    let mut rt = build();
    let (oid, completed, result) = run_workload(&mut rt);
    assert!(
        result.is_ok() && completed == appends,
        "the clean run completes"
    );
    let mut rt = rt.crash_and_recover(3).unwrap();
    check_recovered(&mut rt, oid.unwrap(), appends, "clean run");

    // Boundaries crossed by setup alone vs the full workload: the delta
    // is the magic + append protocol — the range we sweep.
    let n_setup = enumerate_crash_points(build, |rt| setup(rt).map(|_| ()))
        .unwrap()
        .len() as u64;
    let points = enumerate_crash_points(build, |rt| run_workload(rt).2).unwrap();
    let n_total = points.len() as u64;
    assert!(
        n_total > n_setup + 8,
        "append path crosses too few persist boundaries \
         ({n_total} total vs {n_setup} setup)"
    );

    for torn in [false, true] {
        for point in n_setup + 1..=n_total {
            for seed in [1u64, 7] {
                let ctx = format!(
                    "point {point} ({}) seed {seed}",
                    if torn { "torn" } else { "clean" }
                );
                let mut rt = build();
                rt.arm_fault_plan(FaultPlan {
                    crash_after: Some(point),
                    torn_lines: torn,
                    ..FaultPlan::default()
                });
                let (oid, completed, result) = run_workload(&mut rt);
                assert!(
                    matches!(result, Err(PmemError::InjectedCrash)),
                    "{ctx}: expected an injected crash, got {result:?}"
                );
                let oid = oid.unwrap_or_else(|| panic!("{ctx}: crash before the object existed"));
                let mut rt = rt.crash_and_recover(seed).unwrap();
                assert!(
                    verify_recovery(&mut rt).unwrap().is_empty(),
                    "{ctx}: pool invariants violated"
                );
                check_recovered(&mut rt, oid, completed, &ctx);
            }
        }
    }

    // The negative control: silently dropping one clwb inside the append
    // protocol, letting the workload fence over it and finish, must be
    // *visible* somewhere in the stream — as a short prefix (a record the
    // program believed durable is gone) or a truncated torn tail. If the
    // whole sweep detects nothing, the checksummed-frame scan is vacuous.
    let clwbs = points
        .iter()
        .filter(|p| p.kind == BoundaryKind::Clwb)
        .count() as u64;
    assert!(clwbs > 4, "expected several clwbs in the append path");

    // At crash time each still-dirty line *may* have been evicted (and so
    // persisted anyway) per a seeded RNG, so a single recovery seed can
    // mask the loss; sweep several seeds and count a detection when any
    // of them surfaces the damage.
    let mut detections = 0u64;
    for n in 1..=clwbs {
        'seeds: for seed in [1u64, 2, 3, 5, 8, 13, 21, 34] {
            let mut rt = build();
            rt.arm_fault_plan(FaultPlan {
                drop_clwb: Some(n),
                ..FaultPlan::default()
            });
            let (oid, completed, result) = run_workload(&mut rt);
            assert!(result.is_ok(), "the control runs to completion");
            assert_eq!(completed, appends);
            let Some(oid) = oid else { continue };
            let mut rt = rt.crash_and_recover(seed).unwrap();
            // A dropped write-back may corrupt the stream arbitrarily; any
            // deviation from the full clean prefix counts as detected.
            let detected = match Ledger::open(PmemMedium::attach(&mut rt, oid, CAP)) {
                Ok(ledger) => {
                    let scan = ledger.scan_report();
                    scan.recovered < appends || scan.torn_tail_bytes > 0
                }
                Err(_) => true,
            };
            if detected {
                detections += 1;
                break 'seeds;
            }
        }
    }
    assert!(
        detections > 0,
        "no dropped clwb was ever detected by the ledger scan"
    );
}
