//! Drive the two POLB designs directly with a synthetic ObjectID stream
//! and watch their behavior diverge: the Pipelined design holds one entry
//! per *pool*, the Parallel design one entry per *page* (paper §4.1) —
//! which is exactly why the Parallel POLB suffers once objects span many
//! pages.
//!
//! ```text
//! cargo run --example polb_explorer
//! ```

use poat::core::polb::Polb;
use poat::core::{ObjectId, PolbDesign, PoolId, Pot, VirtAddr};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_stream(
    name: &str,
    oids: &[ObjectId],
    pot: &Pot,
    entries: usize,
) -> ((u64, u64), (u64, u64)) {
    let mut pipe = Polb::new(PolbDesign::Pipelined, entries);
    let mut par = Polb::new(PolbDesign::Parallel, entries);
    for &oid in oids {
        let base = pot.lookup(oid.pool().unwrap()).expect("pool mapped");
        if pipe.translate(oid).is_none() {
            pipe.fill(oid, base.raw());
        }
        if par.translate(oid).is_none() {
            // Identity "page table": frame = virtual page (illustrative).
            par.fill(oid, base.offset(oid.offset() as u64).page_base().raw());
        }
    }
    let (p, q) = (pipe.stats(), par.stats());
    println!(
        "{name:<28} Pipelined {:>6.2}% miss   Parallel {:>6.2}% miss",
        p.miss_rate() * 100.0,
        q.miss_rate() * 100.0
    );
    ((p.hits, p.misses), (q.hits, q.misses))
}

fn main() {
    let mut pot = Pot::new(1024);
    let pools: Vec<PoolId> = (1..=32).map(|i| PoolId::new(i).unwrap()).collect();
    for (i, &p) in pools.iter().enumerate() {
        pot.insert(p, VirtAddr::new(0x1000_0000_0000 + ((i as u64) << 24)))
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(1);

    println!("32 pools, 32-entry POLBs (paper default)\n");

    // One hot object per pool: both designs capture the working set.
    let narrow: Vec<ObjectId> = (0..20_000)
        .map(|_| ObjectId::new(pools[rng.gen_range(0..32)], 64))
        .collect();
    run_stream("one object per pool", &narrow, &pot, 32);

    // 64 KB of data per pool (16 pages): one POLB entry still covers a
    // whole pool for Pipelined, but Parallel now needs 512 entries.
    let wide: Vec<ObjectId> = (0..20_000)
        .map(|_| {
            let off = rng.gen_range(0..16u32) * 4096 + 64;
            ObjectId::new(pools[rng.gen_range(0..32)], off)
        })
        .collect();
    run_stream("16 pages touched per pool", &wide, &pot, 32);

    // Sweep the POLB size for the wide stream (Figure 11's mechanism).
    println!("\nPOLB size sweep, 16-pages-per-pool stream:");
    for entries in [1, 4, 32, 128, 512] {
        let ((_, pm), (_, qm)) =
            run_stream(&format!("  {entries:>3} entries"), &wide, &pot, entries);
        let _ = (pm, qm);
    }
    println!("\nPipelined saturates once entries >= pools (32);");
    println!("Parallel needs entries >= working-set pages (512).");
}
