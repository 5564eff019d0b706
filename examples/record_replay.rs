//! Record once, simulate many: capture a workload's instruction trace to
//! a file, then replay the saved trace against several hardware
//! configurations without re-running the workload — the workflow
//! trace-driven simulators are built around.
//!
//! ```text
//! cargo run --release --example record_replay
//! ```

use poat::core::TranslationConfig;
use poat::pmem::trace_io::{self, MmapTrace};
use poat::pmem::Runtime;
use poat::sim::{simulate_inorder, SimConfig};
use poat::workloads::{ExpConfig, Micro, Pattern};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Record: run the B+Tree microbenchmark once, OPT configuration.
    let seed = 7;
    let mut rt = Runtime::new(ExpConfig::Opt.runtime_config(seed));
    Micro::Bpt.run_ops(&mut rt, Pattern::Random, seed, 300)?;
    let trace = rt.take_trace();
    let state = rt.machine_state();

    let dir = std::env::temp_dir().join("poat-record-replay");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("bpt-random-opt.poattrc");
    trace_io::save_chunked(&trace, &path, trace_io::DEFAULT_CHUNK_OPS)?;
    let on_disk = std::fs::metadata(&path)?.len();
    println!(
        "recorded {} trace ops ({} dynamic instructions) -> {} ({on_disk} bytes)",
        trace.len(),
        trace.summary().instructions,
        path.display()
    );

    // 2. Replay the *file* against a sweep of POLB sizes.
    let replayed = MmapTrace::open(&path)?.to_trace()?;
    assert!(replayed.ops().eq(trace.ops()), "replayed trace differs");
    println!("\nPOLB size sweep over the saved trace (in-order):");
    for entries in [0usize, 1, 4, 32, 128] {
        let cfg = SimConfig::with_translation(TranslationConfig {
            polb_entries: entries,
            ..TranslationConfig::default()
        });
        let r = simulate_inorder(&replayed, &state, &cfg)?;
        println!(
            "  {:>3} entries: {:>9} cycles, POLB miss {:>6.2}%",
            entries,
            r.cycles,
            r.translation.polb.miss_rate() * 100.0
        );
    }

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
