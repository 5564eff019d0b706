//! TPC-C over persistent B+Trees (paper Table 5, TPCC).
//!
//! "Generate 1 warehouse according to the parameters in the TPC-C spec and
//! perform 1000 transactions", with every table held in a B+Tree backed by
//! persistent memory (the paper moved TPC-C's B+Tree structures into
//! pools). Two placements exist (Table 6): `TPCC_ALL` puts every tree in
//! one pool; `TPCC_EACH` gives each tree its own pool.
//!
//! The implementation covers the five TPC-C transaction profiles with the
//! spec's mix (NewOrder 45%, Payment 43%, OrderStatus/Delivery/StockLevel
//! 4% each) over the spec's cardinalities, linearly scalable through
//! [`TpccConfig::scale`] so the simulation harness can trade setup time
//! for fidelity (documented in EXPERIMENTS.md; the paper's shape is
//! preserved because per-transaction work is scale-independent once trees
//! are a few levels deep). Each transaction runs inside one undo-log
//! transaction on its district's pool — a simplification of the paper's
//! "TPC-C's own failure-safe logging", preserving both the logging traffic
//! and the crash safety it provides.
//!
//! Tables and their (packed) keys:
//!
//! | table | key | record fields |
//! |-------|-----|----------------|
//! | warehouse | `w` | ytd |
//! | district | `d` | next_o_id, ytd |
//! | customer | `d·10^6 + c` | balance, ytd_payment, payment_cnt, delivery_cnt |
//! | item | `i` | price |
//! | stock | `i` | quantity, ytd, order_cnt |
//! | orders | `d<<40 \| o` | c_id, ol_cnt, carrier_id |
//! | new_order | `d<<40 \| o` | (presence only) |
//! | order_line | `d<<40 \| o<<8 \| n` | item, qty, amount |
//! | history | sequence number | c_key, amount |

use poat_core::{ObjectId, PoolId};
use poat_pmem::{PmemError, Runtime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bplus::PersistentBPlusTree;
use crate::util::TxLogSet;

/// Pool placement for TPC-C (paper Table 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TpccPattern {
    /// All B+Tree structures in one pool (`TPCC_ALL`).
    All,
    /// Each B+Tree structure in its own pool (`TPCC_EACH`).
    Each,
}

impl TpccPattern {
    /// Label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            TpccPattern::All => "TPCC_ALL",
            TpccPattern::Each => "TPCC_EACH",
        }
    }
}

impl std::fmt::Display for TpccPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Scale and sizing parameters.
#[derive(Clone, Copy, Debug)]
pub struct TpccConfig {
    /// Linear scale on the spec cardinalities (1.0 = 100 000 items,
    /// 3000 customers/district, 3000 initial orders/district).
    pub scale: f64,
    /// Deterministic seed for population and the transaction stream.
    pub seed: u64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            scale: 1.0,
            seed: 1,
        }
    }
}

impl TpccConfig {
    /// Items in the catalog (spec: 100 000).
    pub fn items(&self) -> u64 {
        ((100_000.0 * self.scale) as u64).max(100)
    }

    /// Customers per district (spec: 3000).
    pub fn customers(&self) -> u64 {
        ((3000.0 * self.scale) as u64).max(30)
    }

    /// Initial orders per district (spec: 3000, the last 900 undelivered).
    pub fn initial_orders(&self) -> u64 {
        self.customers()
    }
}

/// Number of districts per warehouse (spec).
pub const DISTRICTS: u64 = 10;

const D_SHIFT: u64 = 40;
const OL_SHIFT: u64 = 8;

fn customer_key(d: u64, c: u64) -> u64 {
    d * 1_000_000 + c
}
fn order_key(d: u64, o: u64) -> u64 {
    (d << D_SHIFT) | (o << OL_SHIFT)
}
fn order_line_key(d: u64, o: u64, n: u64) -> u64 {
    (d << D_SHIFT) | (o << OL_SHIFT) | n
}

// Record field indices.
const W_YTD: u32 = 0;
const D_NEXT_O_ID: u32 = 0;
const D_YTD: u32 = 1;
const C_BALANCE: u32 = 0;
const C_YTD_PAYMENT: u32 = 1;
const C_PAYMENT_CNT: u32 = 2;
const C_DELIVERY_CNT: u32 = 3;
const I_PRICE: u32 = 0;
const S_QUANTITY: u32 = 0;
const S_YTD: u32 = 1;
const S_ORDER_CNT: u32 = 2;
const O_C_ID: u32 = 0;
const O_OL_CNT: u32 = 1;
const O_CARRIER: u32 = 2;
const OL_ITEM: u32 = 0;
// order-line field 1 is the quantity (written at insert, read only via amount)
const OL_AMOUNT: u32 = 2;

/// One table: a B+Tree (key → record ObjectID) plus the pool its nodes and
/// records are allocated from.
#[derive(Debug)]
struct Table {
    tree: PersistentBPlusTree,
    pool: PoolId,
}

impl Table {
    fn create(rt: &mut Runtime, holder: ObjectId, pool: PoolId) -> Result<Self, PmemError> {
        Ok(Table {
            tree: PersistentBPlusTree::create(rt, holder)?,
            pool,
        })
    }

    /// Allocates a record, writes its fields, and inserts it.
    fn insert_record(
        &mut self,
        rt: &mut Runtime,
        key: u64,
        fields: &[u64],
        rng: &mut StdRng,
    ) -> Result<ObjectId, PmemError> {
        let size = (fields.len() as u64 * 8).max(8);
        let rec = if rt.in_transaction() {
            rt.tx_pmalloc_in(self.pool, size)?
        } else {
            rt.pmalloc(self.pool, size)?
        };
        let r = rt.deref(rec, None)?;
        for (i, &f) in fields.iter().enumerate() {
            rt.write_u64_at(&r, i as u32 * 8, f)?;
        }
        rt.persist(rec, size)?;
        self.tree.insert(rt, key, rec.raw(), self.pool, rng)?;
        Ok(rec)
    }

    fn lookup(
        &self,
        rt: &mut Runtime,
        key: u64,
        rng: &mut StdRng,
    ) -> Result<Option<ObjectId>, PmemError> {
        Ok(self.tree.get(rt, key, rng)?.map(ObjectId::from_raw))
    }

    fn field(&self, rt: &mut Runtime, rec: ObjectId, idx: u32) -> Result<u64, PmemError> {
        let r = rt.deref(rec, None)?;
        Ok(rt.read_u64_at(&r, idx * 8)?.0)
    }

    /// Updates record fields, logging the record once per transaction set.
    fn update_fields(
        &self,
        rt: &mut Runtime,
        log: &mut TxLogSet,
        rec: ObjectId,
        len: u32,
        fields: &[(u32, u64)],
    ) -> Result<(), PmemError> {
        log.log(rt, rec, len)?;
        let r = rt.deref(rec, None)?;
        for &(idx, v) in fields {
            rt.write_u64_at(&r, idx * 8, v)?;
        }
        Ok(())
    }
}

/// What a TPC-C run produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TpccReport {
    /// Transactions executed.
    pub transactions: u64,
    /// NewOrder count.
    pub new_orders: u64,
    /// Payment count.
    pub payments: u64,
    /// OrderStatus count.
    pub order_statuses: u64,
    /// Delivery count.
    pub deliveries: u64,
    /// StockLevel count.
    pub stock_levels: u64,
}

/// The populated TPC-C database and its transaction driver.
#[derive(Debug)]
pub struct Tpcc {
    cfg: TpccConfig,
    warehouse: Table,
    district: Table,
    customer: Table,
    item: Table,
    stock: Table,
    orders: Table,
    new_order: Table,
    order_line: Table,
    history: Table,
    history_seq: u64,
    rng: StdRng,
}

impl Tpcc {
    /// Creates pools, builds all nine trees, and populates them to spec
    /// (scaled). The paper measures only the 1000-transaction phase, so
    /// setup runs inside [`Runtime::untraced`]: it executes in full (data,
    /// persistence, translation state and counters) but adds nothing to
    /// the runtime's trace.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures.
    pub fn setup(
        rt: &mut Runtime,
        pattern: TpccPattern,
        cfg: TpccConfig,
    ) -> Result<Self, PmemError> {
        rt.untraced(|rt| Self::create(rt, pattern, cfg))
    }

    fn create(rt: &mut Runtime, pattern: TpccPattern, cfg: TpccConfig) -> Result<Self, PmemError> {
        let meta = rt.pool_create("tpcc-meta", 16 << 10)?;
        let dir = rt.pool_root(meta, 9 * 8)?;
        let table_names = [
            "warehouse",
            "district",
            "customer",
            "item",
            "stock",
            "orders",
            "new-order",
            "order-line",
            "history",
        ];
        let pools: Vec<PoolId> = match pattern {
            TpccPattern::All => {
                let p = rt.pool_create("tpcc-all", 192 << 20)?;
                vec![p; 9]
            }
            TpccPattern::Each => table_names
                .iter()
                .map(|n| rt.pool_create(&format!("tpcc-{n}"), 64 << 20))
                .collect::<Result<_, _>>()?,
        };
        let mut holders = Vec::new();
        for i in 0..9u32 {
            let h = rt.pmalloc(pools[i as usize], 8)?;
            let d = rt.deref(dir, None)?;
            rt.write_u64_at(&d, i * 8, h.raw())?;
            holders.push(h);
        }
        rt.persist(dir, 9 * 8)?;

        let mut tpcc = Tpcc {
            cfg,
            warehouse: Table::create(rt, holders[0], pools[0])?,
            district: Table::create(rt, holders[1], pools[1])?,
            customer: Table::create(rt, holders[2], pools[2])?,
            item: Table::create(rt, holders[3], pools[3])?,
            stock: Table::create(rt, holders[4], pools[4])?,
            orders: Table::create(rt, holders[5], pools[5])?,
            new_order: Table::create(rt, holders[6], pools[6])?,
            order_line: Table::create(rt, holders[7], pools[7])?,
            history: Table::create(rt, holders[8], pools[8])?,
            history_seq: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x7C0C_7C0C),
        };
        tpcc.populate(rt)?;
        Ok(tpcc)
    }

    fn populate(&mut self, rt: &mut Runtime) -> Result<(), PmemError> {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x9999);
        self.warehouse.insert_record(rt, 1, &[0], &mut rng)?;
        let items = self.cfg.items();
        for i in 1..=items {
            let price = rng.gen_range(100..10_000);
            self.item.insert_record(rt, i, &[price], &mut rng)?;
            let qty = rng.gen_range(10..100);
            self.stock.insert_record(rt, i, &[qty, 0, 0], &mut rng)?;
        }
        let customers = self.cfg.customers();
        let init_orders = self.cfg.initial_orders();
        for d in 1..=DISTRICTS {
            self.district
                .insert_record(rt, d, &[init_orders + 1, 0], &mut rng)?;
            for c in 1..=customers {
                self.customer
                    .insert_record(rt, customer_key(d, c), &[0, 0, 0, 0], &mut rng)?;
            }
            for o in 1..=init_orders {
                let c = (o * 7) % customers + 1;
                let ol_cnt = rng.gen_range(5..=15u64);
                let delivered = o <= init_orders * 7 / 10;
                let carrier = if delivered { rng.gen_range(1..=10) } else { 0 };
                self.orders
                    .insert_record(rt, order_key(d, o), &[c, ol_cnt, carrier], &mut rng)?;
                if !delivered {
                    self.new_order
                        .insert_record(rt, order_key(d, o), &[1], &mut rng)?;
                }
                for n in 1..=ol_cnt {
                    let i = rng.gen_range(1..=items);
                    let qty = rng.gen_range(1..=10);
                    self.order_line.insert_record(
                        rt,
                        order_line_key(d, o, n),
                        &[i, qty, qty * 100],
                        &mut rng,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Runs `transactions` transactions with the spec mix.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures.
    pub fn run(&mut self, rt: &mut Runtime, transactions: u64) -> Result<TpccReport, PmemError> {
        let mut report = TpccReport::default();
        for _ in 0..transactions {
            let roll = self.rng.gen_range(0..100u32);
            let d = self.rng.gen_range(1..=DISTRICTS);
            if roll < 45 {
                self.new_order_txn(rt, d)?;
                report.new_orders += 1;
            } else if roll < 88 {
                self.payment_txn(rt, d)?;
                report.payments += 1;
            } else if roll < 92 {
                self.order_status_txn(rt, d)?;
                report.order_statuses += 1;
            } else if roll < 96 {
                self.delivery_txn(rt, d)?;
                report.deliveries += 1;
            } else {
                self.stock_level_txn(rt, d)?;
                report.stock_levels += 1;
            }
            report.transactions += 1;
        }
        Ok(report)
    }

    fn new_order_txn(&mut self, rt: &mut Runtime, d: u64) -> Result<(), PmemError> {
        let c = self.rng.gen_range(1..=self.cfg.customers());
        let ol_cnt = self.rng.gen_range(5..=15u64);
        let items: Vec<(u64, u64)> = (0..ol_cnt)
            .map(|_| {
                (
                    self.rng.gen_range(1..=self.cfg.items()),
                    self.rng.gen_range(1..=10u64),
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(self.rng.gen());

        rt.tx_begin(self.district.pool)?;
        let mut log = TxLogSet::new();
        let drec = self
            .district
            .lookup(rt, d, &mut rng)?
            .expect("district exists");
        let o = self.district.field(rt, drec, D_NEXT_O_ID)?;
        self.district
            .update_fields(rt, &mut log, drec, 16, &[(D_NEXT_O_ID, o + 1)])?;

        self.orders
            .insert_record(rt, order_key(d, o), &[c, ol_cnt, 0], &mut rng)?;
        self.new_order
            .insert_record(rt, order_key(d, o), &[1], &mut rng)?;

        for (n, &(item, qty)) in items.iter().enumerate() {
            let irec = self.item.lookup(rt, item, &mut rng)?.expect("item exists");
            let price = self.item.field(rt, irec, I_PRICE)?;
            let srec = self
                .stock
                .lookup(rt, item, &mut rng)?
                .expect("stock exists");
            let squant = self.stock.field(rt, srec, S_QUANTITY)?;
            let sytd = self.stock.field(rt, srec, S_YTD)?;
            let scnt = self.stock.field(rt, srec, S_ORDER_CNT)?;
            let new_q = if squant > qty + 10 {
                squant - qty
            } else {
                squant + 91 - qty
            };
            self.stock.update_fields(
                rt,
                &mut log,
                srec,
                24,
                &[
                    (S_QUANTITY, new_q),
                    (S_YTD, sytd + qty),
                    (S_ORDER_CNT, scnt + 1),
                ],
            )?;
            self.order_line.insert_record(
                rt,
                order_line_key(d, o, n as u64 + 1),
                &[item, qty, qty * price],
                &mut rng,
            )?;
        }
        rt.tx_end()?;
        Ok(())
    }

    fn payment_txn(&mut self, rt: &mut Runtime, d: u64) -> Result<(), PmemError> {
        let c = self.rng.gen_range(1..=self.cfg.customers());
        let amount = self.rng.gen_range(100..500_000u64);
        let mut rng = StdRng::seed_from_u64(self.rng.gen());

        rt.tx_begin(self.district.pool)?;
        let mut log = TxLogSet::new();
        let wrec = self.warehouse.lookup(rt, 1, &mut rng)?.expect("warehouse");
        let wytd = self.warehouse.field(rt, wrec, W_YTD)?;
        self.warehouse
            .update_fields(rt, &mut log, wrec, 8, &[(W_YTD, wytd + amount)])?;
        let drec = self.district.lookup(rt, d, &mut rng)?.expect("district");
        let dytd = self.district.field(rt, drec, D_YTD)?;
        self.district
            .update_fields(rt, &mut log, drec, 16, &[(D_YTD, dytd + amount)])?;
        let crec = self
            .customer
            .lookup(rt, customer_key(d, c), &mut rng)?
            .expect("customer");
        let bal = self.customer.field(rt, crec, C_BALANCE)?;
        let ytd = self.customer.field(rt, crec, C_YTD_PAYMENT)?;
        let cnt = self.customer.field(rt, crec, C_PAYMENT_CNT)?;
        self.customer.update_fields(
            rt,
            &mut log,
            crec,
            32,
            &[
                (C_BALANCE, bal.wrapping_sub(amount)),
                (C_YTD_PAYMENT, ytd + amount),
                (C_PAYMENT_CNT, cnt + 1),
            ],
        )?;
        self.history_seq += 1;
        self.history.insert_record(
            rt,
            self.history_seq,
            &[customer_key(d, c), amount],
            &mut rng,
        )?;
        rt.tx_end()?;
        Ok(())
    }

    fn order_status_txn(&mut self, rt: &mut Runtime, d: u64) -> Result<(), PmemError> {
        let c = self.rng.gen_range(1..=self.cfg.customers());
        let mut rng = StdRng::seed_from_u64(self.rng.gen());
        // Find the customer's most recent order by scanning back from the
        // district's order counter (bounded probe, as the paper's port
        // indexes orders by id).
        let drec = self.district.lookup(rt, d, &mut rng)?.expect("district");
        let next_o = self.district.field(rt, drec, D_NEXT_O_ID)?;
        let mut found = None;
        for o in (1..next_o).rev().take(40) {
            if let Some(orec) = self.orders.lookup(rt, order_key(d, o), &mut rng)? {
                if self.orders.field(rt, orec, O_C_ID)? == c {
                    found = Some((o, orec));
                    break;
                }
            }
        }
        if let Some((o, orec)) = found {
            let ol_cnt = self.orders.field(rt, orec, O_OL_CNT)?;
            for n in 1..=ol_cnt {
                if let Some(olrec) =
                    self.order_line
                        .lookup(rt, order_line_key(d, o, n), &mut rng)?
                {
                    let _ = self.order_line.field(rt, olrec, OL_AMOUNT)?;
                }
            }
        }
        Ok(())
    }

    fn delivery_txn(&mut self, rt: &mut Runtime, d: u64) -> Result<(), PmemError> {
        let mut rng = StdRng::seed_from_u64(self.rng.gen());
        // Oldest undelivered order for the district.
        let lo = order_key(d, 0);
        let hi = order_key(d + 1, 0);
        let batch = self.new_order.tree.scan_from(rt, lo, 1, &mut rng)?;
        let Some(&(key, _)) = batch.first().filter(|&&(k, _)| k < hi) else {
            return Ok(());
        };
        let o = (key >> OL_SHIFT) & ((1 << (D_SHIFT - OL_SHIFT)) - 1);

        rt.tx_begin(self.district.pool)?;
        let mut log = TxLogSet::new();
        self.new_order.tree.remove(rt, key, &mut rng)?;
        let orec = self
            .orders
            .lookup(rt, key, &mut rng)?
            .expect("order exists");
        let c = self.orders.field(rt, orec, O_C_ID)?;
        let ol_cnt = self.orders.field(rt, orec, O_OL_CNT)?;
        self.orders
            .update_fields(rt, &mut log, orec, 24, &[(O_CARRIER, 7)])?;
        let mut total = 0;
        for n in 1..=ol_cnt {
            if let Some(olrec) = self
                .order_line
                .lookup(rt, order_line_key(d, o, n), &mut rng)?
            {
                total += self.order_line.field(rt, olrec, OL_AMOUNT)?;
            }
        }
        let crec = self
            .customer
            .lookup(rt, customer_key(d, c), &mut rng)?
            .expect("customer");
        let bal = self.customer.field(rt, crec, C_BALANCE)?;
        let cnt = self.customer.field(rt, crec, C_DELIVERY_CNT)?;
        self.customer.update_fields(
            rt,
            &mut log,
            crec,
            32,
            &[
                (C_BALANCE, bal.wrapping_add(total)),
                (C_DELIVERY_CNT, cnt + 1),
            ],
        )?;
        rt.tx_end()?;
        Ok(())
    }

    fn stock_level_txn(&mut self, rt: &mut Runtime, d: u64) -> Result<(), PmemError> {
        let threshold = self.rng.gen_range(10..=20u64);
        let mut rng = StdRng::seed_from_u64(self.rng.gen());
        let drec = self.district.lookup(rt, d, &mut rng)?.expect("district");
        let next_o = self.district.field(rt, drec, D_NEXT_O_ID)?;
        let mut low = 0u64;
        for o in next_o.saturating_sub(20)..next_o {
            if let Some(orec) = self.orders.lookup(rt, order_key(d, o), &mut rng)? {
                let ol_cnt = self.orders.field(rt, orec, O_OL_CNT)?;
                for n in 1..=ol_cnt {
                    if let Some(olrec) =
                        self.order_line
                            .lookup(rt, order_line_key(d, o, n), &mut rng)?
                    {
                        let item = self.order_line.field(rt, olrec, OL_ITEM)?;
                        if let Some(srec) = self.stock.lookup(rt, item, &mut rng)? {
                            if self.stock.field(rt, srec, S_QUANTITY)? < threshold {
                                low += 1;
                            }
                        }
                    }
                }
            }
        }
        rt.exec(low as u32 + 4);
        Ok(())
    }

    /// The configuration this database was populated with.
    pub fn config(&self) -> TpccConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poat_pmem::RuntimeConfig;

    fn small() -> TpccConfig {
        TpccConfig {
            scale: 0.004,
            seed: 3,
        } // 400 items, 30 cust/district
    }

    #[test]
    fn setup_and_run_all_pattern() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let mut tpcc = Tpcc::setup(&mut rt, TpccPattern::All, small()).unwrap();
        let rep = tpcc.run(&mut rt, 60).unwrap();
        assert_eq!(rep.transactions, 60);
        assert_eq!(
            rep.new_orders + rep.payments + rep.order_statuses + rep.deliveries + rep.stock_levels,
            60
        );
        assert!(rep.new_orders > 10, "mix is NewOrder-heavy: {rep:?}");
        assert!(!rt.trace().is_empty());
    }

    #[test]
    fn setup_populates_without_recording() {
        for cfg in [RuntimeConfig::base(), RuntimeConfig::opt()] {
            for pattern in [TpccPattern::All, TpccPattern::Each] {
                let mut rt = Runtime::new(cfg.clone());
                Tpcc::setup(&mut rt, pattern, small()).unwrap();
                assert!(rt.trace().is_empty(), "{pattern}/{:?}", cfg.mode);
                assert!(rt.stats().pmallocs > 1000, "population ran");
            }
        }
    }

    #[test]
    fn each_pattern_uses_separate_pools() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let mut tpcc = Tpcc::setup(&mut rt, TpccPattern::Each, small()).unwrap();
        // meta + 9 table pools.
        assert_eq!(rt.open_pools(), 10);
        let rep = tpcc.run(&mut rt, 30).unwrap();
        assert_eq!(rep.transactions, 30);
    }

    #[test]
    fn all_pattern_uses_one_data_pool() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let _ = Tpcc::setup(&mut rt, TpccPattern::All, small()).unwrap();
        assert_eq!(rt.open_pools(), 2, "meta + one data pool");
    }

    #[test]
    fn new_orders_advance_district_counter() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let mut tpcc = Tpcc::setup(&mut rt, TpccPattern::All, small()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let before: Vec<u64> = (1..=DISTRICTS)
            .map(|d| {
                let rec = tpcc.district.lookup(&mut rt, d, &mut rng).unwrap().unwrap();
                tpcc.district.field(&mut rt, rec, D_NEXT_O_ID).unwrap()
            })
            .collect();
        for d in 1..=DISTRICTS {
            tpcc.new_order_txn(&mut rt, d).unwrap();
        }
        for d in 1..=DISTRICTS {
            let rec = tpcc.district.lookup(&mut rt, d, &mut rng).unwrap().unwrap();
            let now = tpcc.district.field(&mut rt, rec, D_NEXT_O_ID).unwrap();
            assert_eq!(now, before[(d - 1) as usize] + 1, "district {d}");
        }
    }

    #[test]
    fn payment_updates_balance_and_history() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let mut tpcc = Tpcc::setup(&mut rt, TpccPattern::All, small()).unwrap();
        let seq_before = tpcc.history_seq;
        for _ in 0..5 {
            tpcc.payment_txn(&mut rt, 1).unwrap();
        }
        assert_eq!(tpcc.history_seq, seq_before + 5);
        let mut rng = StdRng::seed_from_u64(0);
        let wrec = tpcc
            .warehouse
            .lookup(&mut rt, 1, &mut rng)
            .unwrap()
            .unwrap();
        assert!(tpcc.warehouse.field(&mut rt, wrec, W_YTD).unwrap() > 0);
    }

    #[test]
    fn delivery_consumes_new_orders() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let mut tpcc = Tpcc::setup(&mut rt, TpccPattern::All, small()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let lo = order_key(1, 0);
        let pending_before = tpcc
            .new_order
            .tree
            .scan_from(&mut rt, lo, 1000, &mut rng)
            .unwrap()
            .iter()
            .filter(|&&(k, _)| k < order_key(2, 0))
            .count();
        assert!(pending_before > 0, "population left undelivered orders");
        tpcc.delivery_txn(&mut rt, 1).unwrap();
        let pending_after = tpcc
            .new_order
            .tree
            .scan_from(&mut rt, lo, 1000, &mut rng)
            .unwrap()
            .iter()
            .filter(|&&(k, _)| k < order_key(2, 0))
            .count();
        assert_eq!(pending_after, pending_before - 1);
    }

    #[test]
    fn transactions_survive_crash() {
        let mut rt = Runtime::new(RuntimeConfig::default());
        let mut tpcc = Tpcc::setup(&mut rt, TpccPattern::Each, small()).unwrap();
        tpcc.run(&mut rt, 20).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let wrec = tpcc
            .warehouse
            .lookup(&mut rt, 1, &mut rng)
            .unwrap()
            .unwrap();
        let ytd = tpcc.warehouse.field(&mut rt, wrec, W_YTD).unwrap();
        let mut rt2 = rt.crash_and_recover(23).unwrap();
        let wrec2 = tpcc
            .warehouse
            .lookup(&mut rt2, 1, &mut rng)
            .unwrap()
            .unwrap();
        assert_eq!(tpcc.warehouse.field(&mut rt2, wrec2, W_YTD).unwrap(), ytd);
    }
}
