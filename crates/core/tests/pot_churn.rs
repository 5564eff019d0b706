//! Model-based churn test for the POT: interleaved insert/remove/walk
//! sequences must keep `walk`, `lookup`, `len` and the published
//! occupancy gauge in agreement with a reference map.
//!
//! This lives in its own integration-test binary (one process) because
//! it asserts on the *global* `core.pot.occupancy` gauge, which unit
//! tests running concurrently in the library test binary would trample.

use proptest::prelude::*;
use std::collections::HashMap;

use poat_core::{PoolId, Pot, VirtAddr};

const ENTRIES: usize = 8;

fn occupancy_gauge() -> poat_telemetry::Gauge {
    poat_telemetry::global().gauge("core.pot.occupancy")
}

/// Both tests assert on that one gauge; they must not interleave.
static GAUGE_USERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[derive(Clone, Debug)]
enum Op {
    Insert(u32, u64),
    Remove(u32),
    Walk(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Pool ids drawn from a small range so removes and walks frequently
    // target live entries, and the 8-slot table fills up and collides.
    prop_oneof![
        (1u32..=16, 1u64..=1 << 40).prop_map(|(p, b)| Op::Insert(p, b * 64)),
        (1u32..=16).prop_map(Op::Remove),
        (1u32..=16).prop_map(Op::Walk),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn pot_agrees_with_model_under_churn(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let _serial = GAUGE_USERS.lock().unwrap_or_else(|e| e.into_inner());
        let mut pot = Pot::new(ENTRIES);
        let mut model: HashMap<u32, u64> = HashMap::new();
        let gauge = occupancy_gauge();

        for op in ops {
            match op {
                Op::Insert(p, base) => {
                    let r = pot.insert(PoolId::new(p).unwrap(), VirtAddr::new(base));
                    if model.contains_key(&p) {
                        prop_assert!(r.is_err(), "double-map of pool {p} must be rejected");
                    } else if model.len() < ENTRIES {
                        prop_assert!(r.is_ok(), "insert of pool {p} into non-full table failed: {r:?}");
                        model.insert(p, base);
                    } else {
                        prop_assert!(r.is_err(), "insert into full table must fail");
                    }
                }
                Op::Remove(p) => {
                    let got = pot.remove(PoolId::new(p).unwrap()).map(|v| v.raw());
                    prop_assert_eq!(got, model.remove(&p), "remove({}) disagrees with model", p);
                }
                Op::Walk(p) => {
                    let pool = PoolId::new(p).unwrap();
                    let want = model.get(&p).copied();
                    let walk = pot.walk(pool);
                    prop_assert_eq!(walk.base.map(|v| v.raw()), want, "walk({}) disagrees", p);
                    prop_assert_eq!(pot.lookup(pool).map(|v| v.raw()), want, "lookup({}) disagrees", p);
                    prop_assert!(
                        walk.probes as usize <= ENTRIES,
                        "walk probed {} slots in an {}-slot table", walk.probes, ENTRIES
                    );
                }
            }
            prop_assert_eq!(pot.len(), model.len(), "live count diverged from model");
            prop_assert_eq!(
                gauge.get(),
                model.len() as u64,
                "occupancy gauge diverged from live count"
            );
        }
    }
}

#[test]
fn fresh_pot_resets_occupancy_gauge() {
    let _serial = GAUGE_USERS.lock().unwrap_or_else(|e| e.into_inner());
    let mut a = Pot::new(ENTRIES);
    for i in 1..=3u32 {
        a.insert(PoolId::new(i).unwrap(), VirtAddr::new(i as u64 * 4096))
            .unwrap();
    }
    assert_eq!(occupancy_gauge().get(), 3);
    // A brand-new table has no live entries: the gauge must say so
    // rather than keep reporting the previous table's occupancy.
    let b = Pot::new(ENTRIES);
    assert_eq!(b.len(), 0);
    assert_eq!(
        occupancy_gauge().get(),
        0,
        "gauge still reports the previous Pot's occupancy"
    );
}
