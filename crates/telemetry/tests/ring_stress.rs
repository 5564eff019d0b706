// SPDX-License-Identifier: MIT OR Apache-2.0
//! Multi-threaded stress test for the event ring — backs the soundness
//! audit on `Slot` in `src/events.rs`: concurrent writers plus a
//! concurrent reader must never observe a torn or cross-generation
//! event, and a quiescent ring must read back exactly.

use poat_telemetry::events::{EventKind, EventRecorder, TraceDesign};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: u64 = 4;
const PER_WRITER: u64 = 20_000;
const CAPACITY: usize = 1024;

/// Each writer `t` records events whose fields are all derived from
/// `(t, k)`: `instr = cycle = t * PER_WRITER + k`, `pool = t`,
/// `arg = k & 0xFFFFF`, `kind` alternating by `k`. Any event assembled
/// from two different writes breaks at least one of those equations.
fn kind_for(k: u64) -> EventKind {
    if k.is_multiple_of(2) {
        EventKind::PolbHit
    } else {
        EventKind::PolbMiss
    }
}

fn check_event(ev: &poat_telemetry::events::TraceEvent) {
    assert_eq!(ev.instr, ev.cycle, "instr/cycle from different writes");
    assert!(ev.pool < WRITERS as u32, "pool {} out of range", ev.pool);
    let t = ev.pool as u64;
    let k = ev
        .instr
        .checked_sub(t * PER_WRITER)
        .expect("pool and instr from different writes");
    assert!(k < PER_WRITER, "instr {} not from writer {}", ev.instr, t);
    assert_eq!(ev.arg as u64, k & 0xFFFFF, "arg from a different write");
    assert_eq!(ev.kind, kind_for(k), "kind from a different write");
    assert_eq!(ev.design, TraceDesign::Pipelined);
}

#[test]
fn concurrent_writers_and_reader_never_observe_torn_events() {
    let ring = Arc::new(EventRecorder::new(CAPACITY, 1));
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let ring = Arc::clone(&ring);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut scans = 0u64;
            while !done.load(Ordering::Acquire) {
                let events = ring.events();
                let mut last_seq = 0;
                for ev in &events {
                    check_event(ev);
                    assert!(ev.seq > last_seq, "seqs must be strictly increasing");
                    last_seq = ev.seq;
                }
                scans += 1;
            }
            scans
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for k in 0..PER_WRITER {
                    let stamp = t * PER_WRITER + k;
                    ring.record(
                        kind_for(k),
                        TraceDesign::Pipelined,
                        stamp,
                        stamp,
                        t as u32,
                        (k & 0xFFFFF) as u32,
                    );
                }
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer thread panicked");
    }
    done.store(true, Ordering::Release);
    let scans = reader.join().expect("reader thread panicked");
    assert!(scans > 0, "reader never got a scan in");

    // Quiescent exactness: every ticket was claimed exactly once, and
    // with writers stopped the full window reads back — except slots a
    // wrap-stalled writer published under an older generation, which
    // must be *skipped* (audit point 2), never misread. With writers
    // joined, every slot's final seq is some generation of that slot,
    // so at most one generation per slot can be current and losses are
    // bounded by the writer count.
    let total = WRITERS * PER_WRITER;
    assert_eq!(ring.recorded(), total);
    let events = ring.events();
    assert!(events.len() <= CAPACITY);
    assert!(
        events.len() + WRITERS as usize >= CAPACITY,
        "lost more than one in-flight event per writer: {}",
        events.len()
    );
    let mut last_seq = 0;
    for ev in &events {
        check_event(ev);
        assert!(ev.seq > last_seq);
        assert!(
            ev.seq > total - CAPACITY as u64,
            "event outside the live window"
        );
        last_seq = ev.seq;
    }
}

#[test]
fn single_writer_reads_back_exactly() {
    let ring = EventRecorder::new(CAPACITY, 1);
    for k in 0..(CAPACITY as u64 * 3 + 7) {
        ring.record(
            kind_for(k),
            TraceDesign::Pipelined,
            k,
            k,
            0,
            (k & 0xFFFFF) as u32,
        );
    }
    let events = ring.events();
    assert_eq!(
        events.len(),
        CAPACITY,
        "quiescent single-writer ring is exact"
    );
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.seq, CAPACITY as u64 * 2 + 8 + i as u64);
        assert_eq!(ev.instr, ev.seq - 1);
    }
}
