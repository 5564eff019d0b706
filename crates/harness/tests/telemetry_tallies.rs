//! The per-event `core.polb.*`, `core.pot.*`, `pmem.oid_direct.*` and
//! `nvm.device.*` series are owner-local tallies published when their
//! owner drops. This pins that they stay exact: each series moves by
//! exactly what its owners' own stats counted, and a cloned owner
//! publishes only its own events.
//!
//! One `#[test]` in its own binary, so no concurrent test moves the
//! global series between a reading and the next.

use poat_harness::runner::{pipelined, run_micro, simulate, Core, Scale};
use poat_nvm::NvmDevice;
use poat_sim::SimResult;
use poat_telemetry::global;
use poat_workloads::{ExpConfig, Micro, Pattern};

fn counter(name: &str) -> u64 {
    global().counter(name).get()
}

/// N reads on a device, then M on its clone: after both drop, the read
/// series hold exactly those N + M reads.
fn cloned_device_reads_publish_once() {
    // First in the test, so the byte histogram holds only these samples.
    assert_eq!(global().histogram("nvm.device.read_bytes").count(), 0);
    let reads_before = counter("nvm.device.reads");
    let bytes_before = counter("nvm.device.bytes_read");

    let mut parent = NvmDevice::new(1 << 16);
    let frame = parent.alloc_frame().expect("a fresh device has frames");
    let mut buf = [0u8; 64];
    for len in [8, 16, 24] {
        parent.read(frame, &mut buf[..len]);
    }
    let mut clone = parent.clone();
    for len in [1, 64] {
        clone.read(frame.offset(8), &mut buf[..len]);
    }
    assert_eq!(counter("nvm.device.reads"), reads_before, "owners alive");
    drop(clone);
    drop(parent);

    assert_eq!(counter("nvm.device.reads") - reads_before, 3 + 2);
    assert_eq!(
        counter("nvm.device.bytes_read") - bytes_before,
        8 + 16 + 24 + 1 + 64
    );
    let hist = global().histogram("nvm.device.read_bytes");
    assert_eq!(
        (hist.count(), hist.sum(), hist.max()),
        (5, 8 + 16 + 24 + 1 + 64, 64)
    );
}

fn replays_publish_their_translation_stats() {
    // core.polb.{hits,misses}, core.pot.walks, core.pot.probe_len count.
    let series = || {
        [
            counter("core.polb.hits"),
            counter("core.polb.misses"),
            counter("core.pot.walks"),
            global().histogram("core.pot.probe_len").count(),
        ]
    };
    let run = run_micro(Micro::Ll, Pattern::Each, ExpConfig::Opt, Scale::Quick);
    let before = series();
    let tiny = poat_core::TranslationConfig {
        polb_entries: 1,
        ..pipelined()
    };
    let results: Vec<SimResult> = [Core::InOrder, Core::OutOfOrder]
        .into_iter()
        .map(|core| simulate(&run, core, tiny))
        .collect();
    let sum = |f: fn(&SimResult) -> u64| results.iter().map(f).sum::<u64>();
    let expected = [
        sum(|r| r.translation.polb.hits),
        sum(|r| r.translation.polb.misses),
        sum(|r| r.translation.pot_walks),
        sum(|r| r.translation.pot_walks),
    ];
    assert!(expected[1] > 0, "a one-entry POLB must miss on LL/EACH");
    let moved: Vec<u64> = series().iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(
        moved, expected,
        "polb hits, misses, pot walks, probe_len count"
    );
}

fn base_run_publishes_its_xlat_stats() {
    let names = [
        "pmem.oid_direct.calls",
        "pmem.oid_direct.predictor_hits",
        "pmem.oid_direct.predictor_misses",
        "pmem.oid_direct.instructions",
    ];
    let before: Vec<u64> = names.iter().map(|n| counter(n)).collect();
    let run = run_micro(Micro::Ll, Pattern::Each, ExpConfig::Base, Scale::Quick);
    let moved: Vec<u64> = names
        .iter()
        .zip(before)
        .map(|(n, b)| counter(n) - b)
        .collect();
    let x = run.xlat;
    assert!(x.calls > 0, "a BASE run translates in software");
    assert_eq!(
        moved,
        vec![
            x.calls,
            x.predictor_hits,
            x.predictor_misses,
            x.instructions
        ]
    );
}

#[test]
fn owner_local_tallies_are_exact() {
    cloned_device_reads_publish_once();
    replays_publish_their_translation_stats();
    base_run_publishes_its_xlat_stats();
}
