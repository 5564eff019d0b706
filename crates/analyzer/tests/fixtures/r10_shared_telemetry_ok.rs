// R10 known-good: owner-local tallies per event, gauges and one labeled
// publish per run; tests may time.
pub struct Walker {
    walks: poat_telemetry::LocalCounter,
    probes: poat_telemetry::LocalHistogram,
}
pub fn new() -> Walker {
    let r = poat_telemetry::global();
    r.gauge("x.y.occupancy").set(0);
    Walker {
        walks: r.counter("x.y.walks").local(),
        probes: r.histogram("x.y.probes").local(),
    }
}
pub fn publish(walks: u64, labels: &[(&str, &str)]) {
    poat_telemetry::global().add_labeled(&[("x.y.walks", walks)], labels);
}
fn span(phase: &str) {}

#[cfg(test)]
mod tests {
    fn t() {
        let _ = std::time::Instant::now();
        let _s = poat_telemetry::global().span("t");
        poat_telemetry::global().counter("x.y.walks").inc();
    }
}
