//! The compact streaming trace must be a *perfect* stand-in for the old
//! materialized `Vec<TraceOp>` representation — and the zero-copy
//! memory-mapped reader a perfect stand-in for both: across the full
//! quick-scale workload × design × core matrix, replaying (a) the
//! streaming decoder, (b) a materialized op vector, and (c) the lazily
//! validated `MmapTrace` decode of the chunked on-disk layout must
//! produce bit-identical `SimResult`s — cycles and every counter
//! (translation, cache, TLB, store forwarding). Any drift in the
//! encoder, either decoder, or the iterator plumbing shows up here as a
//! field-level mismatch.
//!
//! The same matrix enforces the encoding's reason to exist: ≤ 12 bytes
//! per dynamic op in memory (the old enum was ~40 B/op), checked on every
//! workload the matrix records plus a dedicated reference workload.

use poat_harness::runner::{
    self, ideal, parallel, pipelined, run_micro, run_tpcc, Core, Scale, WorkloadRun,
};
use poat_pmem::trace_io::{self, MmapTrace};
use poat_pmem::TraceOp;
use poat_sim::{simulate_inorder_ops, simulate_ooo_ops, SimConfig};
use poat_workloads::{ExpConfig, Micro, Pattern, TpccPattern};

/// The in-memory budget the encoding is designed to (see DESIGN.md).
const MAX_BYTES_PER_OP: usize = 12;

/// Small enough that even quick-scale traces split into several chunks,
/// so the per-chunk decoder-resume path is actually exercised.
const TEST_CHUNK_OPS: usize = 4096;

/// Replays `run` three ways — streaming straight off the compact
/// encoding, from a fully materialized op vector (the seed
/// representation), and through the lazily validated mmap reader over
/// the chunked layout — and requires bit-identical results on every
/// supported core × design.
fn assert_representations_equivalent(run: &WorkloadRun) {
    let materialized: Vec<TraceOp> = run.trace.ops().collect();
    assert_eq!(materialized.len(), run.trace.len());
    let mapped = MmapTrace::from_owned(trace_io::to_chunked_bytes(&run.trace, TEST_CHUNK_OPS))
        .expect("chunked serialization of a valid trace passes the structural pass");
    assert_eq!(mapped.len(), run.trace.len());

    let combos: &[(Core, poat_core::TranslationConfig, &str)] = &[
        (Core::InOrder, pipelined(), "inorder/pipelined"),
        (Core::InOrder, parallel(), "inorder/parallel"),
        (Core::InOrder, ideal(), "inorder/ideal"),
        (Core::OutOfOrder, pipelined(), "ooo/pipelined"),
        (Core::OutOfOrder, ideal(), "ooo/ideal"),
    ];
    for (core, translation, label) in combos {
        let cfg = SimConfig::with_translation(*translation);
        let streamed = runner::simulate_with(run, *core, cfg);
        let from_vec = match core {
            Core::InOrder => simulate_inorder_ops(materialized.iter().copied(), &run.state, &cfg),
            Core::OutOfOrder => simulate_ooo_ops(materialized.iter().copied(), &run.state, &cfg),
        }
        .expect("supported combination");
        assert_eq!(
            streamed, from_vec,
            "{}: streaming vs materialized diverged on {label}",
            run.label
        );
        let lazy_ops = mapped
            .checked_ops()
            .map(|op| op.expect("a valid trace decodes cleanly"));
        let from_mmap = match core {
            Core::InOrder => simulate_inorder_ops(lazy_ops, &run.state, &cfg),
            Core::OutOfOrder => simulate_ooo_ops(lazy_ops, &run.state, &cfg),
        }
        .expect("supported combination");
        assert_eq!(
            streamed, from_mmap,
            "{}: streaming vs mmap diverged on {label}",
            run.label
        );
    }
    assert!(
        (0..mapped.num_chunks()).all(|i| mapped.chunk_validated(i)),
        "{}: replay touched every chunk, so all must be marked validated",
        run.label
    );
}

fn assert_bytes_per_op(run: &WorkloadRun) {
    let ops = run.trace.len();
    let bytes = run.trace.encoded_bytes();
    assert!(
        bytes <= MAX_BYTES_PER_OP * ops.max(1),
        "{}: {bytes} bytes for {ops} ops ({:.2} B/op) blows the {MAX_BYTES_PER_OP} B/op budget",
        run.label,
        bytes as f64 / ops.max(1) as f64
    );
}

#[test]
fn quick_matrix_micro_benchmarks_are_bit_identical() {
    for bench in Micro::ALL {
        for pattern in [Pattern::All, Pattern::Each, Pattern::Random] {
            for config in [ExpConfig::Base, ExpConfig::Opt] {
                let run = run_micro(bench, pattern, config, Scale::Quick);
                assert_representations_equivalent(&run);
                assert_bytes_per_op(&run);
            }
        }
    }
}

#[test]
fn quick_matrix_tpcc_is_bit_identical() {
    for pattern in [TpccPattern::All, TpccPattern::Each] {
        for config in [ExpConfig::Base, ExpConfig::Opt] {
            let run = run_tpcc(pattern, config, Scale::Quick);
            assert_representations_equivalent(&run);
            assert_bytes_per_op(&run);
        }
    }
}

#[test]
fn mmap_replay_from_a_real_file_matches_streaming() {
    // The matrix above replays the mmap decode over an owned buffer; one
    // workload also goes through an actual on-disk chunked file and a
    // real kernel mapping, end to end.
    let run = run_micro(Micro::Bst, Pattern::Random, ExpConfig::Opt, Scale::Quick);
    let path = std::env::temp_dir().join(format!("poat-equiv-mmap-{}.poattrc", std::process::id()));
    trace_io::save_chunked(&run.trace, &path, TEST_CHUNK_OPS).expect("save chunked trace");
    let mapped = MmapTrace::open(&path).expect("open mapped trace");
    assert!(
        cfg!(not(unix)) || mapped.is_mapped(),
        "unix opens a real mapping"
    );
    let cfg = SimConfig::with_translation(pipelined());
    let streamed = runner::simulate_with(&run, Core::InOrder, cfg);
    let from_mmap = simulate_inorder_ops(
        mapped
            .checked_ops()
            .map(|op| op.expect("a valid trace decodes cleanly")),
        &run.state,
        &cfg,
    )
    .expect("supported combination");
    assert_eq!(streamed, from_mmap);
    drop(mapped);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn reference_workload_stays_under_twelve_bytes_per_op() {
    // The canonical reference workload for the budget: the B+Tree
    // microbenchmark (deepest pointer chasing, widest op mix) under both
    // codegen configurations. If the encoding regresses past 12 B/op
    // here, the memory win that justified it is gone — fail loudly.
    for config in [ExpConfig::Base, ExpConfig::Opt] {
        let run = run_micro(Micro::Bpt, Pattern::Random, config, Scale::Quick);
        assert_bytes_per_op(&run);
        // The budget must hold by a real margin on real workloads: the
        // delta/backref layout lands well under half the cap in practice.
        let ops = run.trace.len();
        let bytes = run.trace.encoded_bytes();
        assert!(
            bytes <= 8 * ops,
            "{}: {:.2} B/op — still within 12 but far above the expected \
             compression; investigate before the budget breaks",
            run.label,
            bytes as f64 / ops as f64
        );
    }
}
