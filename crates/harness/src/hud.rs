// SPDX-License-Identifier: MIT OR Apache-2.0
//! Live worker-pool HUD: per-worker utilization, queue depth, and a
//! heartbeat watchdog over [`crate::runner::parallel_map`].
//!
//! The experiment matrix fans out over up to 24 workers; when a full-scale
//! run sits silent for minutes the only question that matters is "is it
//! still making progress, and which worker is wedged?". The HUD answers
//! both: a periodic single-line progress report (completed/total, queue
//! depth, busy workers, elapsed) plus a stall watchdog that flags any
//! worker whose last heartbeat is older than a threshold — emitting a
//! warning line, bumping the `pool.worker.stalls` counter, and forcing a
//! flight-recorder dump (`docs/TRACING.md`) so the wedged worker's recent
//! translation events survive for post-mortem.
//!
//! The watchdog runs only while `--hud SECS` sets an interval, and its
//! lines go through [`crate::notify`]'s sink like every other library
//! status line. With no interval the monitor only maintains its gauges —
//! `pool.queue.depth{pool=L}`, `pool.workers.active{pool=L}` (labeled by
//! pool), and the per-worker `pool.worker.tasks{worker=N}` /
//! `pool.worker.busy_nanos{worker=N}` series (docs/METRICS.md) — at a
//! cost of a few atomic stores per task, invisible next to a simulation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use poat_telemetry::{events, labeled};

use crate::notify::emit;

/// Progress-report period in milliseconds; 0 disables the HUD thread.
static INTERVAL_MS: AtomicU64 = AtomicU64::new(0);
/// Heartbeat silence past this many milliseconds counts as a stall.
static STALL_MS: AtomicU64 = AtomicU64::new(30_000);

/// Sets the progress-report interval; `None` disables the HUD thread
/// (the gauges keep updating either way).
pub fn set_interval(interval: Option<Duration>) {
    INTERVAL_MS.store(
        interval.map(|d| d.as_millis().max(1) as u64).unwrap_or(0),
        Ordering::Relaxed,
    );
}

/// The configured progress-report interval, if any.
pub fn interval() -> Option<Duration> {
    match INTERVAL_MS.load(Ordering::Relaxed) {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    }
}

/// Sets how long a busy worker may go without a heartbeat before the
/// watchdog flags it as stalled.
pub fn set_stall_threshold(threshold: Duration) {
    STALL_MS.store(threshold.as_millis().max(1) as u64, Ordering::Relaxed);
}

#[derive(Default)]
struct WorkerSlot {
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
    busy: AtomicBool,
    /// Nanoseconds since pool start at the last heartbeat.
    heartbeat_nanos: AtomicU64,
    /// Set once the watchdog has flagged the current silence, so one
    /// stall produces one warning, not one per tick.
    stall_flagged: AtomicBool,
}

/// Shared instrumentation for one `parallel_map` pool: workers report
/// task boundaries, the watchdog thread reads progress and heartbeats.
pub struct PoolMonitor {
    label: String,
    /// `pool.workers.active{pool=<label>}` — the liveness gauges carry
    /// the pool label (`map` for [`crate::runner::parallel_map`]), so one
    /// pool's gauges never overwrite another's.
    workers_gauge: String,
    /// `pool.queue.depth{pool=<label>}` (see `workers_gauge`).
    queue_gauge: String,
    started: Instant,
    total: u64,
    completed: AtomicU64,
    queued: AtomicU64,
    done: AtomicBool,
    workers: Vec<WorkerSlot>,
}

impl PoolMonitor {
    /// Creates a monitor for a pool of `workers` threads and `total`
    /// queued tasks, priming the `pool.*` gauges.
    pub fn new(label: &str, workers: usize, total: u64) -> Self {
        let l = [("pool", label)];
        let workers_gauge = labeled("pool.workers.active", &l);
        let queue_gauge = labeled("pool.queue.depth", &l);
        let registry = poat_telemetry::global();
        registry.gauge(&workers_gauge).set(workers as u64);
        registry.gauge(&queue_gauge).set(total);
        PoolMonitor {
            label: label.to_string(),
            workers_gauge,
            queue_gauge,
            started: Instant::now(),
            total,
            completed: AtomicU64::new(0),
            queued: AtomicU64::new(total),
            done: AtomicBool::new(false),
            workers: (0..workers).map(|_| WorkerSlot::default()).collect(),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// A worker dequeued a task; returns the start instant to pass to
    /// [`end`](Self::end).
    pub fn begin(&self, worker: usize) -> Instant {
        let w = &self.workers[worker];
        w.busy.store(true, Ordering::Relaxed);
        w.heartbeat_nanos.store(self.now_nanos(), Ordering::Relaxed);
        w.stall_flagged.store(false, Ordering::Relaxed);
        let left = self
            .queued
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        poat_telemetry::global().gauge(&self.queue_gauge).set(left);
        Instant::now()
    }

    /// A worker finished the task it [`begin`](Self::begin)-ed.
    pub fn end(&self, worker: usize, task_started: Instant) {
        let w = &self.workers[worker];
        w.busy_nanos
            .fetch_add(task_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        w.tasks.fetch_add(1, Ordering::Relaxed);
        w.heartbeat_nanos.store(self.now_nanos(), Ordering::Relaxed);
        w.busy.store(false, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// All workers joined: stop the watchdog, zero the liveness gauges,
    /// and publish the per-worker utilization series.
    pub fn finish(&self) {
        self.done.store(true, Ordering::Relaxed);
        let registry = poat_telemetry::global();
        registry.gauge(&self.workers_gauge).set(0);
        registry.gauge(&self.queue_gauge).set(0);
        for (i, w) in self.workers.iter().enumerate() {
            let id = i.to_string();
            let l = [("worker", id.as_str())];
            registry
                .gauge(&labeled("pool.worker.tasks", &l))
                .set(w.tasks.load(Ordering::Relaxed));
            registry
                .gauge(&labeled("pool.worker.busy_nanos", &l))
                .set(w.busy_nanos.load(Ordering::Relaxed));
        }
    }

    /// One `[pool]` progress line: completion, queue depth, busy workers,
    /// aggregate utilization since pool start, elapsed wall-clock.
    pub fn render_line(&self) -> String {
        let elapsed = self.started.elapsed();
        let busy = self
            .workers
            .iter()
            .filter(|w| w.busy.load(Ordering::Relaxed))
            .count();
        let busy_nanos: u64 = self
            .workers
            .iter()
            .map(|w| w.busy_nanos.load(Ordering::Relaxed))
            .sum();
        let util = if elapsed.as_nanos() > 0 && !self.workers.is_empty() {
            100.0 * busy_nanos as f64 / (elapsed.as_nanos() as f64 * self.workers.len() as f64)
        } else {
            0.0
        };
        format!(
            "[pool {}] {}/{} tasks done, {} queued, {}/{} workers busy, {util:.0}% utilized, {:.1}s",
            self.label,
            self.completed.load(Ordering::Relaxed),
            self.total,
            self.queued.load(Ordering::Relaxed),
            busy,
            self.workers.len(),
            elapsed.as_secs_f64(),
        )
    }

    /// Checks every busy worker's heartbeat against the stall threshold;
    /// a newly silent worker gets one warning line, a
    /// `pool.worker.stalls` bump, and a flight-recorder dump.
    fn check_stalls(&self) {
        let threshold_nanos = STALL_MS.load(Ordering::Relaxed).saturating_mul(1_000_000);
        let now = self.now_nanos();
        for (i, w) in self.workers.iter().enumerate() {
            if !w.busy.load(Ordering::Relaxed) {
                continue;
            }
            let silent = now.saturating_sub(w.heartbeat_nanos.load(Ordering::Relaxed));
            if silent >= threshold_nanos && !w.stall_flagged.swap(true, Ordering::Relaxed) {
                poat_telemetry::global().counter("pool.worker.stalls").inc();
                if let Some(rec) = events::installed() {
                    rec.dump_flight_now();
                }
                emit(&format!(
                    "[pool {}] WARNING: worker {i} silent for {:.1}s (task still running); \
                     flight-recorder tail dumped",
                    self.label,
                    silent as f64 * 1e-9,
                ));
            }
        }
    }

    /// Body of the HUD thread: renders a progress line every configured
    /// interval and runs the stall check, until [`finish`](Self::finish).
    /// Sleeps in short slices so pool teardown is never blocked on a
    /// full interval.
    pub fn run_watchdog(&self) {
        let Some(interval) = interval() else { return };
        let mut last_render = Instant::now();
        while !self.done.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(25));
            self.check_stalls();
            if last_render.elapsed() >= interval {
                emit(&self.render_line());
                last_render = Instant::now();
            }
        }
        emit(&self.render_line());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn monitor_tracks_progress_and_utilization() {
        // The label is this test's own, so no other pool writes the
        // gauges it asserts.
        let m = PoolMonitor::new("test", 2, 3);
        let t0 = m.begin(0);
        std::thread::sleep(Duration::from_millis(2));
        m.end(0, t0);
        let t1 = m.begin(1);
        m.end(1, t1);
        let line = m.render_line();
        assert!(line.contains("2/3 tasks done"), "got: {line}");
        assert!(line.contains("1 queued"), "got: {line}");
        let queue_gauge = labeled("pool.queue.depth", &[("pool", "test")]);
        assert_eq!(
            poat_telemetry::global().gauge(&queue_gauge).get(),
            1,
            "the gauge is labeled by pool and tracks the queue"
        );
        m.finish();
        assert_eq!(
            poat_telemetry::global().gauge(&queue_gauge).get(),
            0,
            "finish zeroes the queue gauge"
        );
    }

    #[test]
    fn stalled_worker_is_flagged_once() {
        // The sink is process-wide: hold the lock its other test takes.
        let _g = crate::notify::SINK_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let lines: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_lines = lines.clone();
        crate::notify::set_sink(Box::new(move |l: &str| {
            sink_lines.lock().unwrap().push(l.to_string());
        }));
        set_stall_threshold(Duration::from_millis(1));
        let before = poat_telemetry::global().counter("pool.worker.stalls").get();
        let m = PoolMonitor::new("stall", 1, 1);
        let _t = m.begin(0); // never ends: a wedged worker
        std::thread::sleep(Duration::from_millis(5));
        m.check_stalls();
        m.check_stalls(); // second tick must not double-report
        let after = poat_telemetry::global().counter("pool.worker.stalls").get();
        assert_eq!(after - before, 1, "one stall, one count");
        let warned = lines
            .lock()
            .unwrap()
            .iter()
            .filter(|l| l.starts_with("[pool stall] WARNING: worker 0 silent"))
            .count();
        assert_eq!(warned, 1, "one stall, one warning line");
        set_stall_threshold(Duration::from_secs(30));
    }
}
