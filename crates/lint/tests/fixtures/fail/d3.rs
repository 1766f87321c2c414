//! D3 fail fixture: float accumulation that merges parallel-sweep cell
//! results in completion order, inside closures handed to the executor
//! entry points. Scanned as
//! `crates/experiments/src/fixture.rs`.
//!
//! Expected findings: 3 — a shared `Mutex<f64>` accumulator, a float
//! `+=` inside a worker closure, and a float `.sum()` reduction inside
//! a worker closure.

pub fn merge(cells: &[u64]) -> f64 {
    let total = Mutex::new(0.0f64);
    for_each_benchmark(cells, |c| {
        let mpki = *c as f64;
        *total.lock().unwrap() += mpki;
    });
    let t = *total.lock().unwrap();
    t
}

pub fn reduce(cells: &[u64]) -> f64 {
    run_cells(cells, |_, c| (0..*c).map(|x| x as f64).sum::<f64>())
}
