//! Run-scope isolation for span series.
//!
//! These tests assert on the *global* registry (run scoping only applies
//! there), so they live in their own integration-test binary where no
//! unrelated test trips the same series.

use std::sync::{Arc, Barrier};

fn counter(name: &str) -> u64 {
    poat_telemetry::global().counter(name).get()
}

fn hist_count(name: &str) -> u64 {
    poat_telemetry::global().histogram(name).count()
}

#[test]
fn concurrent_runs_do_not_contaminate_each_others_series() {
    let barrier = Arc::new(Barrier::new(2));
    let spawn = |label: &'static str, spans: usize| {
        let barrier = barrier.clone();
        std::thread::spawn(move || {
            let _scope = poat_telemetry::run_scope(label);
            barrier.wait();
            for _ in 0..spans {
                drop(poat_telemetry::global().span("scope_conc"));
            }
        })
    };
    let a = spawn("alpha", 5);
    let b = spawn("beta", 9);
    a.join().unwrap();
    b.join().unwrap();

    // Each run's scoped series carries exactly its own spans…
    assert_eq!(counter("span.scope_conc.count{run=alpha}"), 5);
    assert_eq!(counter("span.scope_conc.count{run=beta}"), 9);
    assert_eq!(hist_count("span.scope_conc.nanos{run=alpha}"), 5);
    assert_eq!(hist_count("span.scope_conc.nanos{run=beta}"), 9);
    // …while the unscoped series still aggregates everything.
    assert_eq!(counter("span.scope_conc.count"), 14);
    assert_eq!(hist_count("span.scope_conc.nanos"), 14);
}

#[test]
fn scopes_nest_and_restore() {
    let span = || drop(poat_telemetry::global().span("scope_nest"));
    {
        let _outer = poat_telemetry::run_scope("outer");
        span();
        {
            let _inner = poat_telemetry::run_scope("inner");
            span();
        }
        // The inner guard restored the outer scope.
        span();
    }
    // No scope: only the unscoped series records.
    span();

    assert_eq!(counter("span.scope_nest.count{run=outer}"), 2);
    assert_eq!(counter("span.scope_nest.count{run=inner}"), 1);
    assert_eq!(counter("span.scope_nest.count"), 4);
}

#[test]
fn isolated_registries_ignore_run_scopes() {
    let isolated = poat_telemetry::Registry::new();
    let _scope = poat_telemetry::run_scope("iso");
    {
        let _span = isolated.span("scope_iso");
    }
    // The isolated registry recorded normally…
    assert_eq!(isolated.counter("span.scope_iso.count").get(), 1);
    // …and nothing leaked a scoped series into the global registry.
    assert_eq!(counter("span.scope_iso.count{run=iso}"), 0);
    assert_eq!(counter("span.scope_iso.count"), 0);
}
