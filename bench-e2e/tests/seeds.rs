//! `--seed` reaches the workloads through the same entry points `repro`
//! uses: at seed 0 the benchmark's Figure-9 cells are exactly the
//! cells of `experiments::main_matrix`, and seed 1 changes them.

use poat_bench_e2e::workload::{record, Spec, Workload};
use poat_harness::experiments::main_matrix;
use poat_harness::runner::{self, Scale, WorkloadRun};
use poat_workloads::{ExpConfig, TpccPattern};

fn cells(seed: u64) -> (Vec<WorkloadRun>, Vec<u64>) {
    let w = Workload::Fig9Quick;
    let runs: Vec<WorkloadRun> = w
        .specs()
        .into_iter()
        .map(|spec| record(spec, Scale::Quick, seed))
        .collect();
    let cycles = w
        .jobs()
        .iter()
        .map(|j| runner::simulate(&runs[j.run], j.core, j.cfg).cycles)
        .collect();
    (runs, cycles)
}

#[test]
fn seed_0_reproduces_the_quick_main_matrix_and_seed_1_differs() {
    let main = main_matrix(Scale::Quick);
    let (runs, cycles) = cells(0);
    assert_eq!(main.fig9a.len(), 20);
    assert_eq!(cycles.len(), 20 * 7);
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    for (c, job) in cycles.chunks(7).enumerate() {
        // The replay order of `Workload::jobs`: BASE in-order, BASE OoO,
        // then OPT in-order Pipelined/Parallel/ideal, OoO Pipelined/ideal.
        let [ino_base, ooo_base, ino_pipe, ino_par, ino_ideal, ooo_pipe, ooo_ideal] = job else {
            unreachable!("chunks of 7")
        };
        let (a, b, i) = (&main.fig9a[c], &main.fig9b[c], &main.instrs[c]);
        assert_eq!(
            a.pipelined,
            ratio(*ino_base, *ino_pipe),
            "{} {}",
            a.bench,
            a.pattern
        );
        assert_eq!(a.parallel, Some(ratio(*ino_base, *ino_par)));
        assert_eq!(a.ideal, ratio(*ino_base, *ino_ideal));
        assert_eq!(b.pipelined, ratio(*ooo_base, *ooo_pipe));
        assert_eq!(b.ideal, ratio(*ooo_base, *ooo_ideal));
        assert_eq!(i.base_instructions, runs[2 * c].summary.instructions);
        assert_eq!(i.opt_instructions, runs[2 * c + 1].summary.instructions);
    }

    let (runs_1, cycles_1) = cells(1);
    assert_ne!(cycles, cycles_1, "seed 1 changes the simulated cycles");
    let specs = Workload::Fig9Quick.specs();
    let tpcc = specs
        .iter()
        .position(|&s| s == Spec::Tpcc(TpccPattern::Each, ExpConfig::Opt))
        .expect("a TPC-C EACH cell");
    assert_ne!(runs[tpcc].trace, runs_1[tpcc].trace, "seed 1 reaches TPC-C");
}

#[test]
fn same_seed_records_identical_traces() {
    let spec = Spec::Tpcc(TpccPattern::All, ExpConfig::Base);
    assert_eq!(
        record(spec, Scale::Quick, 5).trace,
        record(spec, Scale::Quick, 5).trace
    );
}
