//! Serial-vs-parallel equivalence: the executor must produce
//! bit-identical result matrices for every worker count, because each
//! (benchmark, configuration) cell derives its randomness independently
//! and results merge in canonical matrix order.

use line_distillation::distill::{DistillCache, DistillConfig};
use line_distillation::experiments::exec::{run_cells, ExecPolicy};
use line_distillation::experiments::{run, run_baseline, RunConfig, RunResult};
use line_distillation::workloads::memory_intensive;
use std::collections::BTreeMap;

/// A small but non-trivial quick sweep: 6 benchmarks × 3 configurations,
/// mixing cheap and expensive benchmarks so parallel completion order
/// genuinely differs from canonical order. Returns one row of 3 cells
/// per benchmark.
fn quick_sweep(threads: usize) -> Vec<Vec<RunResult>> {
    let cells: Vec<_> = memory_intensive()
        .into_iter()
        .filter(|b| matches!(b.name, "art" | "mcf" | "twolf" | "apsi" | "swim" | "health"))
        .flat_map(|b| (0..3).map(move |config| (b, config)))
        .collect();
    let cfg = RunConfig::quick().with_accesses(60_000);
    let report = run_cells(
        cells,
        move |_, (b, config)| match config {
            0 => run_baseline(b, &cfg, 1 << 20),
            1 => run(b, &cfg, || DistillCache::new(DistillConfig::ldis_base())),
            _ => run(b, &cfg, || {
                DistillCache::new(DistillConfig::hpca2007_default())
            }),
        },
        &ExecPolicy::with_threads(threads),
        BTreeMap::new(),
        |_, _| {},
    );
    let flat: Vec<RunResult> = report
        .outcomes
        .into_iter()
        .map(|o| o.expect("clean matrix must not quarantine"))
        .collect();
    flat.chunks(3).map(<[RunResult]>::to_vec).collect()
}

#[test]
fn serial_and_parallel_matrices_are_bit_identical() {
    let serial = quick_sweep(1);
    let parallel = quick_sweep(4);
    assert_eq!(serial.len(), 6);
    assert!(serial.iter().all(|row| row.len() == 3));
    // RunResult::eq compares every counter, histogram bin and float bit
    // for bit — any scheduling leak into the simulation fails here.
    assert_eq!(serial, parallel);
}

#[test]
fn oversubscribed_pool_changes_nothing() {
    // More workers than cells: every cell still lands in its slot.
    assert_eq!(quick_sweep(64), quick_sweep(2));
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    assert_eq!(quick_sweep(4), quick_sweep(4));
}

#[test]
fn cells_use_independent_derived_seeds() {
    // Two cells of the same benchmark under different configurations must
    // not share a trace (the configuration label splits the seed), while
    // rerunning the same cell reproduces it exactly.
    let b = memory_intensive()
        .into_iter()
        .find(|b| b.name == "twolf")
        .unwrap();
    let cfg = RunConfig::quick().with_accesses(60_000);
    let base = run(&b, &cfg, || DistillCache::new(DistillConfig::ldis_base()));
    let mt = run(&b, &cfg, || DistillCache::new(DistillConfig::ldis_mt()));
    let again = run(&b, &cfg, || DistillCache::new(DistillConfig::ldis_base()));
    assert_eq!(base, again, "same cell must reproduce bit for bit");
    assert_ne!(
        base.hierarchy.instructions, mt.hierarchy.instructions,
        "different configuration labels must derive different workload streams"
    );
}
