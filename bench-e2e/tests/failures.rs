//! Failure accounting: a broken op is counted, never a panic.

use std::path::{Path, PathBuf};

use poat_bench_e2e::spans::Tracer;
use poat_bench_e2e::workload::{replay_file, round_trip, setup, Tally, Workload};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn a_flipped_payload_byte_fails_the_op() {
    let dir = scratch("flip");
    let mut t = Tracer::new("test", false);
    let fx = setup(Workload::TraceRoundtrip, true, 0, &mut t);
    let mut outcomes = fx.iteration(&mut t, &dir);
    let mut tally = Tally::default();
    tally.check(&outcomes, &fx.reference, &fx);
    assert_eq!((tally.attempted, tally.failed), (2, 0));

    // Save the first trace, flip the last byte of the file (payload of
    // the last chunk), and replay it from the file.
    let path = dir.join("flipped.poattrc");
    assert_eq!(round_trip(&fx.runs[0], &path, &mut t), Ok(fx.reference[0]));
    let mut bytes = std::fs::read(&path).expect("saved trace");
    *bytes.last_mut().expect("non-empty file") ^= 0x5A;
    std::fs::write(&path, bytes).expect("rewrite");
    outcomes[0] = replay_file(&path, &fx.runs[0].state, &mut t);
    let err = outcomes[0].clone().expect_err("corrupt file fails the op");
    assert!(err.contains("checksum"), "{err}");

    let mut tally = Tally::default();
    tally.check(&outcomes, &fx.reference, &fx);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(tally.fail_ratio() > 0.0);
    assert!(tally.first_failure.expect("recorded").contains("checksum"));
}

#[test]
fn results_that_differ_from_the_reference_fail() {
    let dir = scratch("differ");
    let mut t = Tracer::new("test", false);
    let fx = setup(Workload::TraceRoundtrip, true, 0, &mut t);
    let mut outcomes = fx.iteration(&mut t, &dir);
    if let Ok(r) = &mut outcomes[1] {
        r.cycles += 1;
    }
    let mut tally = Tally::default();
    tally.check(&outcomes, &fx.reference, &fx);
    assert_eq!(tally.failed, 1);

    // A result equal to a wrong reference still fails when it does not
    // retire exactly its trace's instructions.
    let mut reference = fx.reference.clone();
    let mut outcomes = fx.iteration(&mut t, &dir);
    for (o, r) in outcomes.iter_mut().zip(&mut reference) {
        r.instructions += 1;
        *o = Ok(*r);
    }
    let mut tally = Tally::default();
    tally.check(&outcomes, &reference, &fx);
    assert_eq!(tally.failed, 2);
}
