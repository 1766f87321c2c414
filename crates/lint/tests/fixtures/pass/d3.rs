//! D3 pass fixture: workers return per-cell values; the reduction
//! happens after the canonical-order merge, on the main thread.
//! Scanned as `crates/experiments/src/fixture.rs`. Expected findings: 0.

pub fn merge(cells: &[u64]) -> f64 {
    let per_cell: Vec<f64> = for_each_benchmark(cells, |c| *c as f64);
    let mut total = 0.0;
    for v in &per_cell {
        total += v;
    }
    total
}

pub fn named_job(cells: &[u64]) -> Vec<f64> {
    // A named fn cannot capture an accumulator: no closure, no finding.
    run_matrix(cells, 1, cell_mpki)
}
