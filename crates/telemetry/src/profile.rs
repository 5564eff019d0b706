// SPDX-License-Identifier: MIT OR Apache-2.0
//! Span-tree profiler: parent/child phase attribution with self-time.
//!
//! The flat [`crate::Registry::span`] timers answer "how long did phase X
//! take in total", but cannot say *where inside* a phase the time went —
//! a `trace_replay` span includes every translation, POT walk and cache
//! access made underneath it. This module keeps an explicit call tree per
//! thread: entering a scope pushes a frame, leaving it attributes the
//! elapsed wall-clock to that node and *subtracts* it from the parent's
//! self-time, so for every thread
//!
//! ```text
//! Σ self_nanos over all nodes == Σ total_nanos over the roots
//! ```
//!
//! holds exactly (saturating arithmetic aside). That identity is what
//! makes the collapsed-stack export ([`ProfileSnapshot::collapsed`])
//! valid flamegraph input: tools like inferno assume the values are
//! exclusive (self) times.
//!
//! ## Cost model
//!
//! Profiling is off by default: every scope helper loads one relaxed
//! atomic and returns an inert guard, so simulator hot loops and the
//! bench budgets are unaffected. When enabled (`repro --profile`), each
//! active scope costs two `Instant::now` calls plus an uncontended mutex
//! lock on the thread's own tree. Per-operation scopes in the replay
//! loops additionally honour a 1-in-N sampling knob ([`set_sample`],
//! wired to the same `--trace-sample` value as the event recorder): the
//! decision is made once per replayed operation ([`begin_op`]) and shared
//! by every [`hot_scope`] underneath it, so a sampled-out operation skips
//! *all* of its hot scopes and its time simply stays in the enclosing
//! phase's self-time — the sum identity above survives sampling.
//!
//! Trees are registered globally and survive thread exit (the worker
//! threads of a sweep are gone before the report is rendered), and
//! [`snapshot`] merges identical root-to-leaf paths across threads.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::{labeled, percentile_from, BucketCount, Registry};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE: AtomicU64 = AtomicU64::new(1);

fn trees() -> &'static Mutex<Vec<Arc<Mutex<Tree>>>> {
    static TREES: OnceLock<Mutex<Vec<Arc<Mutex<Tree>>>>> = OnceLock::new();
    TREES.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<Tree>>>> = const { RefCell::new(None) };
    /// Whether the current replayed operation was chosen by sampling.
    static HOT: Cell<bool> = const { Cell::new(false) };
    /// Per-thread operation counter driving 1-in-N sampling.
    static OP_CTR: Cell<u64> = const { Cell::new(0) };
}

/// Turns profiling on or off process-wide. Scopes opened while disabled
/// are inert; scopes already open keep recording until dropped.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the 1-in-`n` sampling rate for per-operation scopes
/// ([`begin_op`]/[`hot_scope`]); `0` is treated as 1 (every operation).
/// Phase-level spans ([`Registry::span`]) are never sampled out.
pub fn set_sample(n: u64) {
    SAMPLE.store(n.max(1), Ordering::Relaxed);
}

/// Discards all recorded profile data (every thread's tree).
pub fn reset() {
    let list = trees().lock().unwrap();
    for tree in list.iter() {
        let mut t = tree.lock().unwrap();
        t.nodes.clear();
        t.stack.clear();
    }
}

struct Node {
    name: Arc<str>,
    parent: Option<usize>,
    children: Vec<usize>,
    count: u64,
    total_nanos: u64,
    self_nanos: u64,
    self_max: u64,
    /// Log2 buckets of per-invocation self-time (see [`crate::Histogram`]).
    self_buckets: Box<[u64; 65]>,
}

struct Frame {
    node: usize,
    start: Instant,
    child_nanos: u64,
}

#[derive(Default)]
struct Tree {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
}

impl Tree {
    fn enter(&mut self, name: &str) -> usize {
        let parent = self.stack.last().map(|f| f.node);
        let node = match parent {
            Some(p) => self.nodes[p]
                .children
                .iter()
                .copied()
                .find(|&c| &*self.nodes[c].name == name),
            None => self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.parent.is_none())
                .find(|(_, n)| &*n.name == name)
                .map(|(i, _)| i),
        };
        let node = node.unwrap_or_else(|| {
            let idx = self.nodes.len();
            self.nodes.push(Node {
                name: Arc::from(name),
                parent,
                children: Vec::new(),
                count: 0,
                total_nanos: 0,
                self_nanos: 0,
                self_max: 0,
                self_buckets: Box::new([0; 65]),
            });
            if let Some(p) = parent {
                self.nodes[p].children.push(idx);
            }
            idx
        });
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_nanos: 0,
        });
        self.stack.len() - 1
    }

    fn exit(&mut self, depth: usize) {
        // RAII nesting makes this LIFO; truncate defensively so a leaked
        // guard cannot desynchronise deeper frames.
        while self.stack.len() > depth + 1 {
            self.pop();
        }
        if self.stack.len() == depth + 1 {
            self.pop();
        }
    }

    fn pop(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        let self_nanos = elapsed.saturating_sub(frame.child_nanos);
        let node = &mut self.nodes[frame.node];
        node.count += 1;
        node.total_nanos += elapsed;
        node.self_nanos += self_nanos;
        node.self_max = node.self_max.max(self_nanos);
        node.self_buckets[(64 - self_nanos.leading_zeros()) as usize] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_nanos += elapsed;
        }
    }

    fn path_of(&self, mut idx: usize) -> String {
        let mut parts = vec![self.nodes[idx].name.clone()];
        while let Some(p) = self.nodes[idx].parent {
            parts.push(self.nodes[p].name.clone());
            idx = p;
        }
        parts.reverse();
        parts.join(";")
    }
}

fn with_local_tree<R>(f: impl FnOnce(&mut Tree) -> R) -> R {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let arc = slot.get_or_insert_with(|| {
            let t = Arc::new(Mutex::new(Tree::default()));
            trees().lock().unwrap().push(t.clone());
            t
        });
        let mut tree = arc.lock().unwrap();
        f(&mut tree)
    })
}

/// RAII guard for one profiled scope; records on drop. Inert (free)
/// when profiling was disabled at entry.
#[must_use = "a profile scope records its duration when dropped"]
pub struct ProfileScope {
    depth: Option<usize>,
}

impl Drop for ProfileScope {
    fn drop(&mut self) {
        if let Some(depth) = self.depth.take() {
            with_local_tree(|t| t.exit(depth));
        }
    }
}

/// Enters a phase-level scope named `name` under the innermost open scope
/// of this thread (or as a root). Always active while profiling is
/// enabled — never sampled out. Callers reach it through
/// [`Registry::span`] on the global registry.
#[inline]
pub(crate) fn scope(name: &str) -> ProfileScope {
    if !enabled() {
        return ProfileScope { depth: None };
    }
    ProfileScope {
        depth: Some(with_local_tree(|t| t.enter(name))),
    }
}

/// Guard for one replayed operation's sampling decision; restores the
/// previous decision on drop.
#[must_use = "the sampling decision is active only while this guard is alive"]
pub struct OpScope {
    prev: Option<bool>,
}

impl Drop for OpScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            HOT.with(|h| h.set(prev));
        }
    }
}

/// Makes the per-operation sampling decision: 1 in [`set_sample`]
/// operations is *hot*, and every [`hot_scope`] opened while the returned
/// guard lives follows that one decision. Free when profiling is off.
#[inline]
pub fn begin_op() -> OpScope {
    if !enabled() {
        return OpScope { prev: None };
    }
    let sample = SAMPLE.load(Ordering::Relaxed);
    let hot = OP_CTR.with(|c| {
        let n = c.get();
        c.set(n.wrapping_add(1));
        n % sample == 0
    });
    OpScope {
        prev: Some(HOT.with(|h| h.replace(hot))),
    }
}

/// Enters a per-operation scope: active only when the enclosing
/// [`begin_op`] chose this operation. Use for scopes that run once per
/// replayed instruction (translation, cache access); their skipped time
/// folds into the parent phase's self-time.
#[inline]
pub fn hot_scope(name: &str) -> ProfileScope {
    if !enabled() || !HOT.with(|h| h.get()) {
        return ProfileScope { depth: None };
    }
    ProfileScope {
        depth: Some(with_local_tree(|t| t.enter(name))),
    }
}

/// Merged statistics for one root-to-leaf path across all threads.
#[derive(Clone, Debug)]
pub struct PathStats {
    /// Semicolon-joined names from root to this node (collapsed-stack key).
    pub path: String,
    /// Leaf name (last path component).
    pub name: String,
    /// Nesting depth (0 for roots).
    pub depth: usize,
    /// Times the scope was entered.
    pub count: u64,
    /// Total wall-clock nanoseconds, children included.
    pub total_nanos: u64,
    /// Exclusive wall-clock nanoseconds (children subtracted).
    pub self_nanos: u64,
    /// Estimated median per-invocation self-time, nanoseconds.
    pub self_p50: u64,
    /// Estimated 90th-percentile per-invocation self-time.
    pub self_p90: u64,
    /// Estimated 99th-percentile per-invocation self-time.
    pub self_p99: u64,
}

/// A merged, point-in-time view of every thread's span tree.
#[derive(Clone, Debug, Default)]
pub struct ProfileSnapshot {
    /// One entry per distinct path, depth-first (parents before children).
    pub paths: Vec<PathStats>,
}

impl ProfileSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Sum of total time over root scopes (the profiled wall-clock).
    pub fn root_total_nanos(&self) -> u64 {
        self.paths
            .iter()
            .filter(|p| p.depth == 0)
            .map(|p| p.total_nanos)
            .sum()
    }

    /// Sum of self time over every path; equals
    /// [`root_total_nanos`](Self::root_total_nanos) by construction.
    pub fn total_self_nanos(&self) -> u64 {
        self.paths.iter().map(|p| p.self_nanos).sum()
    }

    /// Renders the inferno/flamegraph collapsed-stack format: one
    /// `root;child;leaf <self_nanos>` line per path with nonzero self
    /// time, sorted by path.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for p in &self.paths {
            if p.self_nanos > 0 {
                out.push_str(&p.path);
                out.push(' ');
                out.push_str(&p.self_nanos.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Publishes per-phase aggregates into `registry` so metric snapshots
    /// (and the run ledger) carry profile data: self/total nanoseconds
    /// and entry counts per leaf phase name, plus the number of distinct
    /// paths exported. Counter semantics — repeated publishes accumulate.
    pub fn publish(&self, registry: &Registry) {
        let mut by_phase: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for p in &self.paths {
            let e = by_phase.entry(&p.name).or_default();
            e.0 += p.self_nanos;
            e.1 += p.total_nanos;
            e.2 += p.count;
        }
        for (phase, (self_ns, total_ns, count)) in by_phase {
            let l = [("phase", phase)];
            registry
                .counter(&labeled("profile.phase.self_nanos", &l))
                .add(self_ns);
            registry
                .counter(&labeled("profile.phase.total_nanos", &l))
                .add(total_ns);
            registry
                .counter(&labeled("profile.phase.count", &l))
                .add(count);
        }
        registry
            .counter("profile.export.paths")
            .add(self.paths.len() as u64);
    }
}

struct MergedPath {
    count: u64,
    total_nanos: u64,
    self_nanos: u64,
    self_max: u64,
    self_buckets: [u64; 65],
}

/// Merges every thread's tree into one snapshot, combining identical
/// root-to-leaf paths (the per-worker trees of a sweep collapse into one
/// logical tree).
pub fn snapshot() -> ProfileSnapshot {
    let list: Vec<Arc<Mutex<Tree>>> = trees().lock().unwrap().clone();
    let mut merged: BTreeMap<String, MergedPath> = BTreeMap::new();
    for tree in list {
        let t = tree.lock().unwrap();
        for (idx, node) in t.nodes.iter().enumerate() {
            if node.count == 0 {
                continue;
            }
            let path = t.path_of(idx);
            let e = merged.entry(path).or_insert_with(|| MergedPath {
                count: 0,
                total_nanos: 0,
                self_nanos: 0,
                self_max: 0,
                self_buckets: [0; 65],
            });
            e.count += node.count;
            e.total_nanos += node.total_nanos;
            e.self_nanos += node.self_nanos;
            e.self_max = e.self_max.max(node.self_max);
            for (b, n) in e.self_buckets.iter_mut().zip(node.self_buckets.iter()) {
                *b += n;
            }
        }
    }
    let mut paths = Vec::with_capacity(merged.len());
    for (path, m) in merged {
        let buckets: Vec<BucketCount> = m
            .self_buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &count)| BucketCount {
                lower_bound: if i == 0 { 0 } else { 1u64 << (i - 1) },
                count,
            })
            .collect();
        let name = path.rsplit(';').next().unwrap_or(&path).to_string();
        let depth = path.matches(';').count();
        paths.push(PathStats {
            name,
            depth,
            count: m.count,
            total_nanos: m.total_nanos,
            self_nanos: m.self_nanos,
            self_p50: percentile_from(&buckets, m.count, m.self_max, 0.50),
            self_p90: percentile_from(&buckets, m.count, m.self_max, 0.90),
            self_p99: percentile_from(&buckets, m.count, m.self_max, 0.99),
            path,
        });
    }
    // BTreeMap order is lexicographic on the path, which already places
    // every parent immediately before its children ("a" < "a;b").
    ProfileSnapshot { paths }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler is process-global state; tests serialize on this so
    /// one test's `set_enabled`/`reset` cannot corrupt another's tree.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn spin(nanos: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < nanos {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _g = lock();
        set_enabled(false);
        reset();
        {
            let _s = scope("t_off_root");
            let _op = begin_op();
            let _h = hot_scope("t_off_hot");
        }
        let snap = snapshot();
        assert!(
            !snap.paths.iter().any(|p| p.path.contains("t_off")),
            "disabled profiling must not create nodes"
        );
    }

    #[test]
    fn self_times_sum_to_root_total() {
        let _g = lock();
        set_enabled(true);
        set_sample(1);
        reset();
        {
            let _root = scope("t_root");
            spin(200_000);
            {
                let _a = scope("t_a");
                spin(400_000);
                {
                    let _b = scope("t_b");
                    spin(300_000);
                }
            }
            {
                let _a = scope("t_a");
                spin(100_000);
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let find = |p: &str| snap.paths.iter().find(|x| x.path == p).unwrap().clone();
        let root = find("t_root");
        let a = find("t_root;t_a");
        let b = find("t_root;t_a;t_b");
        assert_eq!(root.count, 1);
        assert_eq!(a.count, 2);
        assert_eq!(b.count, 1);
        assert!(root.total_nanos >= a.total_nanos);
        assert!(a.total_nanos >= b.total_nanos);
        let self_sum: u64 = [&root, &a, &b].iter().map(|p| p.self_nanos).sum();
        assert_eq!(self_sum, root.total_nanos, "self times partition the root");
        assert_eq!(snap.collapsed().lines().count(), 3);
        assert!(snap
            .collapsed()
            .lines()
            .any(|l| l.starts_with("t_root;t_a;t_b ")));
        reset();
    }

    #[test]
    fn sampling_decision_is_shared_within_an_op() {
        let _g = lock();
        set_enabled(true);
        set_sample(2);
        reset();
        {
            let _root = scope("t_samp_root");
            for _ in 0..10 {
                let _op = begin_op();
                let _h = hot_scope("t_samp_hot");
                let _inner = hot_scope("t_samp_inner");
            }
        }
        set_enabled(false);
        set_sample(1);
        let snap = snapshot();
        let hot = snap
            .paths
            .iter()
            .find(|p| p.path == "t_samp_root;t_samp_hot")
            .unwrap();
        let inner = snap
            .paths
            .iter()
            .find(|p| p.path == "t_samp_root;t_samp_hot;t_samp_inner")
            .unwrap();
        assert_eq!(hot.count, 5, "1-in-2 sampling keeps half the ops");
        assert_eq!(inner.count, 5, "nested hot scope follows the op decision");
        reset();
    }

    #[test]
    fn only_global_registry_spans_enter_the_tree() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _glob = crate::global().span("t_span_glob");
            let _iso = Registry::new().span("t_span_iso");
        }
        set_enabled(false);
        let snap = snapshot();
        assert!(snap.paths.iter().any(|p| p.path == "t_span_glob"));
        assert!(
            !snap.paths.iter().any(|p| p.path.contains("t_span_iso")),
            "isolated registries must not feed the global span tree"
        );
        reset();
    }

    #[test]
    fn publish_exports_per_phase_counters() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _r = scope("t_pub_root");
            let _c = scope("t_pub_leaf");
        }
        set_enabled(false);
        let snap = snapshot();
        let reg = Registry::new();
        snap.publish(&reg);
        let count = reg
            .counter(&labeled("profile.phase.count", &[("phase", "t_pub_leaf")]))
            .get();
        assert_eq!(count, 1);
        reset();
    }
}
