#!/usr/bin/env bash
# Tier-1 gate: build, test, docs — fully offline.
#
# The workspace is hermetic: every external dependency is a vendored
# stand-in under vendor/ and the lockfile is committed, so `--locked
# --offline` must always succeed. A failure here means a path
# dependency or the lockfile drifted, not that the network is down.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (workspace, offline)"
cargo build --release --workspace --locked --offline

echo "==> cargo build --examples (offline)"
cargo build --release --examples --locked --offline

echo "==> cargo test (workspace, offline)"
cargo test --workspace --locked --offline -q

echo "==> cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked --offline

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets --locked --offline -- -D warnings

echo "==> poat-analyze (architectural invariants, see docs/ANALYZER.md)"
cargo run -p poat-analyzer --bin poat-analyze --locked --offline -- --deny-warnings
# Machine-readable findings artifact for downstream CI consumers (a
# clean tree yields an empty findings list with zeroed counters).
mkdir -p target
cargo run -p poat-analyzer --bin poat-analyze --locked --offline -- \
  --json --deny-warnings > target/poat-analyze.json
test -s target/poat-analyze.json
grep -q '"findings"' target/poat-analyze.json

echo "==> repro --trace smoke (offline)"
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
ledger="$trace_dir/ledger.poatlgr"
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  fig9a --quick --trace "$trace_dir/trace.json" --ledger "$ledger" >/dev/null
test -s "$trace_dir/trace.json"
grep -q '"traceEvents"' "$trace_dir/trace.json"
grep -q '"polb_miss"' "$trace_dir/trace.json"
grep -q '"pot_walk"' "$trace_dir/trace.json"

echo "==> repro report + flamegraph smoke (offline)"
# Second run into the same ledger (with the profiler on), then the
# cross-run loop must close: `repro report` sees both records and the
# collapsed-stack export is a real multi-frame flamegraph
# (docs/OBSERVABILITY.md).
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  fig9a --quick --ledger "$ledger" --flame "$trace_dir/profile.folded" >/dev/null
test -s "$trace_dir/profile.folded"
grep -q ';' "$trace_dir/profile.folded"
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  report --ledger "$ledger" | tee "$trace_dir/report.txt"
grep -q '2 records in' "$trace_dir/report.txt"
grep -q 'run000002' "$trace_dir/report.txt"

echo "==> repro trace-roundtrip smoke (offline)"
# Quick-scale trace save -> mmap -> simulate round trip through the
# chunked POATTRC3 file format: the mapped trace must equal the recorded
# one, both must simulate bit-identically on every core, and the
# encoding must stay within its 12 B/op budget (DESIGN.md §5a). Exits
# non-zero on any mismatch.
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  trace-roundtrip --scale quick --dir "$trace_dir"

echo "==> repro crash-sweep smoke (offline)"
# Quick-scale crash campaign, evenly-spaced point sample to bound CI
# time; exits non-zero on any recovery-invariant violation
# (EXPERIMENTS.md, "Crash-point sweep"). The full per-point sweep runs
# in the harness e2e tests and via `repro crash-sweep --scale quick`.
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  crash-sweep --scale quick --max-points 40 --ledger "$ledger"

echo "==> repro serve smoke (offline)"
# Serve mode end to end (docs/OBSERVABILITY.md): submit two quick jobs
# into a temp spool, drain them with a serve session, then the observer
# CLIs must see both completed with recorded metrics in the durable
# catalog.
spool="$trace_dir/spool"
catalog="$trace_dir/catalog.poatcat"
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  submit LL:ALL pipelined quick --spool "$spool"
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  submit BST:RANDOM ideal quick --spool "$spool"
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  serve --spool "$spool" --catalog "$catalog" --drain
test -s "$catalog"
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  jobs --spool "$spool" --catalog "$catalog" | tee "$trace_dir/jobs.txt"
grep -q '0 pending, 0 running, 2 completed, 0 failed' "$trace_dir/jobs.txt"
cargo run --release -p poat-harness --bin repro --locked --offline -- \
  catalog query --catalog "$catalog" --metric sim.result.cycles \
  | tee "$trace_dir/catalog_query.txt"
grep -q '2 job(s) matched' "$trace_dir/catalog_query.txt"
# Both jobs project a real cycle count (a bare `-` would mean a job
# completed without metrics).
[[ "$(grep -c 'completed' "$trace_dir/catalog_query.txt")" -ge 2 ]]
! grep -E 'completed.* -$' "$trace_dir/catalog_query.txt"

echo "==> bench smoke + comparator (non-blocking, offline)"
# Smoke-scale pass over the full suite: proves every benchmark body
# still runs, then diffs against the latest committed BENCH_*.json.
# --warn-only because CI machines are arbitrarily loaded and smoke
# windows are short — regressions print but do not fail the gate.
# Release runs enforce for real via scripts/bench.sh, which hard-fails
# on regression before a new baseline is minted (docs/BENCHMARKS.md).
cargo run --release -p poat-bench --bin bench-run --locked --offline -- \
  --mode smoke --out "$trace_dir/bench_smoke.json" --ledger "$ledger"
bench_baseline="$(ls BENCH_*.json 2>/dev/null | sort -V | tail -1 || true)"
if [[ -n "$bench_baseline" ]]; then
  cargo run --release -p poat-bench --bin bench-compare --locked --offline -- \
    "$bench_baseline" "$trace_dir/bench_smoke.json" --warn-only
fi
# Ledger round trip: the baseline read back out of the bench-run record
# just appended must compare clean against the identical report file.
cargo run --release -p poat-bench --bin bench-compare --locked --offline -- \
  --ledger "$ledger" "$trace_dir/bench_smoke.json"

echo "==> bench-e2e smoke (offline)"
# The end-to-end benchmark (bench-e2e/E2E.md) is its own package built
# against the workspace crates' public API, so removing an item it
# imports fails here. --smoke runs one quick-scale iteration of every
# workload and exits non-zero on any failed op.
cargo run --release --offline --locked --manifest-path bench-e2e/Cargo.toml --bin bench-e2e -- --smoke

echo "==> full-scale matrix: budget + results_full.json (offline)"
# The full-scale Fig. 9 matrix under its wall-clock budget
# (budget/fig9_full_matrix, docs/BENCHMARKS.md), about 15 s on a 2-vCPU
# host. The same pass fails, naming the first row that moved, when
# results_full.json no longer matches the matrix the tree computes, so
# every run checks the committed full-scale results. --filter skips the
# sampled microbenchmarks.
POAT_BENCH_FULL_BUDGET=1 \
  cargo run --release -p poat-bench --bin bench-run --locked --offline -- \
  --mode smoke --filter fig9_full_matrix --out "$trace_dir/bench_full.json"
grep -q '"budget/fig9_full_matrix"' "$trace_dir/bench_full.json"

echo "==> ci.sh: all green"
