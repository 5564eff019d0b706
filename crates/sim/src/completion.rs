//! The completion times both cores look dependences up in.
//!
//! A trace dependence names its producer by op id, and both cores read
//! the producer's completion time only as `floor.max(time)`, where
//! `floor` is a clock that never runs backwards: the in-order core's
//! cycle count after it issues an op, and the OoO core's dispatch cycle
//! plus one. Once a time is at or below the floor it can no longer
//! change a result, and a look-up that reads 0 in its place gives the
//! same answer. So the history is a ring that drops such times instead
//! of one entry per op: a slot is reused only when the time it holds is
//! at or below the floor, and the ring doubles otherwise. Its size
//! follows how far completions run ahead of the clock (about one ROB of
//! ops on the OoO core), not the trace length, and it stays exact for
//! any op stream, including raw streams of zero-length `Exec` ops.

/// Slots a fresh window starts with.
const INITIAL_SLOTS: usize = 64;

/// A bounded history of op completion times, exact under the cores'
/// `floor.max(time)` reads (module docs).
#[derive(Debug)]
pub(crate) struct CompletionWindow {
    /// Power-of-two ring: op `id`'s time sits at `id & (len - 1)` while
    /// the op is among the most recent `held`.
    times: Vec<u64>,
    /// Ops recorded so far, i.e. the id the next `push` records.
    next: u64,
    /// How many of the most recent ops the ring holds.
    held: usize,
}

impl CompletionWindow {
    pub(crate) fn new() -> Self {
        CompletionWindow {
            times: vec![0; INITIAL_SLOTS],
            next: 0,
            held: 0,
        }
    }

    fn slot(&self, id: u64) -> usize {
        id as usize & (self.times.len() - 1)
    }

    /// Completion time of op `id`; 0 if the op is not recorded yet or its
    /// time has been dropped. `get(id).max(f)` equals the full history's
    /// value `.max(f)` for every `f` at or above the last floor pushed.
    pub(crate) fn get(&self, id: u64) -> u64 {
        if id < self.next && self.next - id <= self.held as u64 {
            self.times[self.slot(id)]
        } else {
            0
        }
    }

    /// Records the next op's completion time `done`. `floor` is a lower
    /// bound on every value a later `get` result is max'd with; it must
    /// not decrease from one push to the next.
    pub(crate) fn push(&mut self, done: u64, floor: u64) {
        if self.held == self.times.len() {
            // The oldest held op shares the new op's slot.
            if self.times[self.slot(self.next)] <= floor {
                self.held -= 1;
            } else {
                self.grow();
            }
        }
        let slot = self.slot(self.next);
        self.times[slot] = done;
        self.next += 1;
        self.held += 1;
    }

    /// Doubles the ring, re-placing every held op.
    fn grow(&mut self) {
        let len = 2 * self.times.len();
        let old = std::mem::replace(&mut self.times, vec![0; len]);
        for id in self.next - self.held as u64..self.next {
            let slot = self.slot(id);
            self.times[slot] = old[id as usize & (old.len() - 1)];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A floor speed, then steps: a push (the floor rises by
    /// `speed * b`, then `done` = floor + `a % 400` - 100) or a look-up of
    /// any id up to 8 past the last one recorded, compared at the last
    /// floor pushed and `b` above it.
    fn steps() -> impl Strategy<Value = (u64, Vec<(bool, u64, u64)>)> {
        (
            0u64..4,
            prop::collection::vec((any::<bool>(), 0u64..4000, 0u64..4), 1..3000),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn window_matches_full_history_above_the_floor((speed, steps) in steps()) {
            let mut window = CompletionWindow::new();
            let mut history: Vec<u64> = Vec::new();
            let mut floor = 0u64;
            for (push, a, b) in steps {
                if push {
                    // Times behind the floor as well as ahead of it; a
                    // slow or stalled floor forces the ring to grow.
                    floor += speed * b;
                    let done = (floor + a % 400).saturating_sub(100);
                    window.push(done, floor);
                    history.push(done);
                } else {
                    let id = a % (history.len() as u64 + 8);
                    let full = history.get(id as usize).copied().unwrap_or(0);
                    for f in [floor, floor + b] {
                        prop_assert_eq!(window.get(id).max(f), full.max(f), "id {} floor {}", id, f);
                    }
                }
            }
        }
    }

    #[test]
    fn ring_grows_while_the_floor_stalls_and_stays_small_when_it_moves() {
        let mut stalled = CompletionWindow::new();
        for _ in 0..1000 {
            stalled.push(10, 0);
        }
        assert_eq!(stalled.get(0), 10, "no time above the floor is dropped");
        assert_eq!(stalled.times.len(), 1024);

        let mut moving = CompletionWindow::new();
        for t in 0..100_000 {
            moving.push(t + 3, t);
        }
        assert_eq!(moving.times.len(), INITIAL_SLOTS);
        assert_eq!(moving.get(99_999), 100_002);
        assert_eq!(moving.get(100_000), 0, "not recorded yet");
    }
}
