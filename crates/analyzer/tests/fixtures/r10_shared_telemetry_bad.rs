// R10 known-bad: shared telemetry handles and clock reads per event.
pub struct Walker {
    walks: poat_telemetry::Counter,
    probes: Histogram,
}
pub fn walk(w: &Walker) {
    let start = std::time::Instant::now();
    let timer = poat_telemetry::global().span_timer("pot_walk");
    let _span = poat_telemetry::global().span("pot_walk");
    poat_telemetry::global().counter("core.pot.walks").inc();
    poat_telemetry::global().histogram("core.pot.probe_len").record(1);
    let r = poat_telemetry::global();
    r.counter(&poat_telemetry::labeled("core.pot.walks", &[])).add(1);
}
