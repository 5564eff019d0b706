// SPDX-License-Identifier: MIT OR Apache-2.0
//! Operator-facing status lines from library code — artifact writes and
//! the `--hud` progress and stall lines ([`crate::hud`]) — routed
//! through an installable sink: the library never writes to stderr
//! itself, because harness stdout is machine-parsed and the binary
//! decides where diagnostics land.
//!
//! The `repro` binary installs a stderr sink at startup; with no sink
//! installed (unit tests, embedding) the lines are dropped.

use std::sync::Mutex;

/// Destination for status lines (installed by the binary).
pub type Sink = Box<dyn Fn(&str) + Send + Sync>;

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Serializes the unit tests that install a sink, which is process-wide.
#[cfg(test)]
pub(crate) static SINK_TEST_LOCK: Mutex<()> = Mutex::new(());

/// Installs the sink status lines are rendered through.
pub fn set_sink(sink: Sink) {
    *SINK.lock().unwrap_or_else(|e| e.into_inner()) = Some(sink);
}

/// Emits one status line through the installed sink, if any.
pub fn emit(line: &str) {
    if let Some(sink) = SINK.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
        sink(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn emit_without_a_sink_is_silent_and_with_one_delivers() {
        // Other tests in this binary emit lines too (artifact writes),
        // so the sink counts only this test's own.
        let _g = SINK_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        *SINK.lock().unwrap_or_else(|e| e.into_inner()) = None;
        emit("notify test: dropped on the floor");
        let seen = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&seen);
        set_sink(Box::new(move |line| {
            if line.starts_with("notify test: ") {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }));
        emit("notify test: delivered");
        assert_eq!(seen.load(Ordering::Relaxed), 1);
        *SINK.lock().unwrap_or_else(|e| e.into_inner()) = None;
    }
}
