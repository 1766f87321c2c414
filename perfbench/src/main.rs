//! The repository benchmark of the line-distillation simulator.
//!
//! ```text
//! ldis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it alternates set-up rounds of every cell with passes
//! that run every cell on the crash-safe executor with one worker, for
//! `--seconds`, then checks the outputs and prints the end-to-end
//! metrics. With `--trace 1` it records each cell's access stream and L2
//! event tape and times every simulator layer alone on them
//! ([`layers`]). Every timed sample is paired with a sample of a frozen
//! reference kernel, and each time is reported as a reference-scaled
//! median ([`clock`]). Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! README.md for the workloads, the metrics and what each one is expected
//! to move.

mod cells;
mod clock;
mod layers;
mod tape;

use cells::{Cell, Out, Workload};
use clock::{RefKernel, Sample};
use ldis_experiments::exec::{run_cells, ExecPolicy};
use ldis_experiments::RunConfig;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Set-up rounds before each pass, each one sample of `setup_s`.
const SETUP_ROUNDS_PER_PASS: usize = 10;
/// Measured passes per run, at least, even past `--seconds`.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// Prints the human-readable table and, as the last line, the result JSON.
fn report(
    title: &str,
    rows: &[(&str, Option<f64>, &str)],
    json_metrics: &[&str],
    attempted: u64,
    failures: &[String],
) {
    println!("{title}");
    println!("  {:<34} {:>16}  unit", "metric", "value");
    for (name, value, unit) in rows {
        let shown = value.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.6}"));
        println!("  {name:<34} {shown:>16}  {unit}");
    }
    for f in failures {
        println!("  FAILED {f}");
    }
    let metrics: Vec<String> = rows
        .iter()
        .filter(|(name, _, _)| json_metrics.contains(name))
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value.unwrap_or(f64::NAN))
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        metrics.join(", ")
    );
}

/// What the measured passes of one run produced.
struct Measured {
    /// Outputs of the first pass; `None` where the executor lost the cell.
    first: Vec<Option<Out>>,
    /// The first failure of each failed cell.
    failed: BTreeMap<usize, String>,
    /// Each cell's samples, one per pass.
    cells: Vec<Vec<Sample>>,
    /// One sample per set-up round (every cell built once).
    setup: Vec<Sample>,
    passes: usize,
    peak_rss: Option<f64>,
    /// Reference samples whose checksum was wrong.
    bad_checksums: u64,
    /// Median raw reference sample, in seconds.
    ref_s: f64,
    measured_s: f64,
}

impl Measured {
    /// Simulated accesses over the sum of each cell's reference-scaled
    /// median time, in Maccess/s.
    fn maccess_per_s(&self, w: &Workload) -> f64 {
        self.throughput(w, clock::scaled_median)
    }

    /// The same over raw CPU time, not normalized.
    fn raw_maccess_per_s(&self, w: &Workload) -> f64 {
        self.throughput(w, clock::raw_median)
    }

    fn throughput(&self, w: &Workload, cell_s: fn(&[Sample]) -> f64) -> f64 {
        let busy_s: f64 = self.cells.iter().map(|s| cell_s(s)).sum();
        let simulated: u64 = w.cells.iter().map(|c| c.accesses(w.accesses)).sum();
        simulated as f64 / busy_s / 1e6
    }
}

/// Alternates set-up rounds with passes that run every cell (its work
/// done `repeat` times per sample) on the executor with one worker, for
/// `seconds` and at least `MIN_PASSES` passes. Every sample is paired
/// with the reference sample taken right before it.
fn measure(w: &Workload, cfg: RunConfig, seconds: f64, repeat: usize) -> Measured {
    // The worker thread takes the kernel for each cell; one worker means
    // no contention. A cell that panics poisons the lock, but the kernel
    // is whole at every step (each sample refills its table), so the
    // guard is taken back.
    let kernel = Arc::new(Mutex::new(RefKernel::default()));
    let policy = ExecPolicy::with_threads(1);
    let mut m = Measured {
        first: Vec::new(),
        failed: BTreeMap::new(),
        cells: vec![Vec::new(); w.cells.len()],
        setup: Vec::new(),
        passes: 0,
        peak_rss: None,
        bad_checksums: 0,
        ref_s: f64::NAN,
        measured_s: 0.0,
    };
    let start = Instant::now();
    let mut pass_s = 0.0;
    // Start another pass only if it should end within `seconds`.
    while m.passes < MIN_PASSES || start.elapsed().as_secs_f64() + pass_s <= seconds {
        let pass_start = Instant::now();
        {
            let mut k = kernel.lock().unwrap_or_else(PoisonError::into_inner);
            m.setup.extend((0..SETUP_ROUNDS_PER_PASS).map(|_| {
                k.paired(|| {
                    for cell in &w.cells {
                        cells::set_up_cell(cell, &cfg);
                    }
                })
                .1
            }));
        }
        let k = Arc::clone(&kernel);
        let report = run_cells(
            w.cells.clone(),
            move |_, cell: &Cell| {
                let mut k = k.lock().unwrap_or_else(PoisonError::into_inner);
                k.paired(|| {
                    let mut out = cells::run_cell(cell, &cfg);
                    for _ in 1..repeat {
                        out = cells::run_cell(cell, &cfg);
                    }
                    out
                })
            },
            &policy,
            BTreeMap::new(),
            |_, _| {},
        );
        m.passes += 1;
        pass_s = pass_start.elapsed().as_secs_f64();
        let outs: Vec<Option<Out>> = report
            .outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| match outcome {
                Ok((out, sample)) => {
                    if let Some(cell) = m.cells.get_mut(i) {
                        cell.push(sample);
                    }
                    Some(out)
                }
                Err(failure) => {
                    m.failed.entry(i).or_insert_with(|| failure.to_string());
                    None
                }
            })
            .collect();
        if m.first.is_empty() {
            // Read the high-water mark after the first pass: later passes
            // repeat its work, but each spawns a new worker thread, and
            // whether the allocator reuses the old thread's arena varies
            // from run to run.
            m.peak_rss = peak_rss_mib();
            m.first = outs;
        } else {
            for (i, (a, b)) in m.first.iter().zip(&outs).enumerate() {
                if let (Some(a), Some(b)) = (a, b) {
                    if a != b {
                        m.failed
                            .entry(i)
                            .or_insert_with(|| "output changed between passes".into());
                    }
                }
            }
        }
    }
    m.measured_s = start.elapsed().as_secs_f64();
    let k = kernel.lock().unwrap_or_else(PoisonError::into_inner);
    m.bad_checksums = k.bad_checksums();
    m.ref_s = k.median_s();
    m
}

/// The end-to-end run: measured passes, then the output checks.
fn end_to_end(w: &Workload, args: &Args) {
    let cfg = cells::run_config(w.accesses, args.seed);
    let m = measure(w, cfg, args.seconds, 1);
    let mut failed = m.failed.clone();
    for (i, (cell, out)) in w.cells.iter().zip(&m.first).enumerate() {
        if let Some(out) = out {
            if let Err(reason) = cells::check_cell(cell, &cfg, out) {
                failed.entry(i).or_insert(reason);
            }
        }
    }
    let outs: Option<Vec<Out>> = m.first.iter().cloned().collect();
    let accuracy = outs
        .as_deref()
        .map(|o| cells::accuracy(w, o))
        .unwrap_or_default();
    // Every cell, the reference checksum, and the golden rows if the
    // workload runs sweep cells.
    let mut attempted = w.cells.len() as u64 + 1;
    let mut failures: Vec<String> = failed
        .iter()
        .map(|(&i, reason)| {
            let key = w.cells.get(i).map(Cell::key).unwrap_or_default();
            format!("{key}: {reason}")
        })
        .collect();
    if m.bad_checksums > 0 {
        failures.push(format!(
            "reference kernel: {} sample(s) missed the frozen checksum {}",
            m.bad_checksums,
            clock::REF_HITS
        ));
    }
    if w.cells
        .iter()
        .any(|c| matches!(c.kind, cells::Kind::Run(_)))
    {
        attempted += 1;
        if let Err(reason) = cells::check_sweep_golden(w) {
            failures.push(format!("golden sweep rows: {reason}"));
        }
    }
    let min_samples = m.cells.iter().map(Vec::len).min().unwrap_or(0);
    let title = format!(
        "{}: {} cells x {} accesses, seed {}, 1 worker; {} passes in {:.1} s \
         (>= {min_samples} samples per cell), {} set-up rounds",
        w.name,
        w.cells.len(),
        w.accesses,
        args.seed,
        m.passes,
        m.measured_s,
        m.setup.len()
    );
    report(
        &title,
        &[
            ("setup_s", Some(clock::scaled_median(&m.setup)), "s"),
            ("maccess_per_s", Some(m.maccess_per_s(w)), "Maccess/s"),
            ("peak_rss_mib", m.peak_rss, "MiB"),
            (
                "raw_maccess_per_s",
                Some(m.raw_maccess_per_s(w)),
                "Maccess/s",
            ),
            ("ref_kernel_ms", Some(m.ref_s * 1e3), "ms"),
            (
                "failed_frac",
                Some(failures.len() as f64 / attempted as f64),
                "frac",
            ),
            (
                "mpki_reduction_err_pp",
                accuracy.mpki_reduction_err_pp,
                "pp",
            ),
            (
                "fac_mpki_reduction_err_pp",
                accuracy.fac_mpki_reduction_err_pp,
                "pp",
            ),
            ("ipc_gain_err_pp", accuracy.ipc_gain_err_pp, "pp"),
            ("shards_mpki_err", accuracy.shards_mpki_err, "MPKI"),
        ],
        &["setup_s", "maccess_per_s", "peak_rss_mib"],
        attempted,
        &failures,
    );
}

fn traced(w: &Workload, args: &Args) {
    let start = Instant::now();
    let traced = layers::run(w, args.seed);
    let title = format!(
        "{} (traced): {} benchmarks x {} accesses, seed {}, {} repetitions per layer, {:.1} s",
        w.name,
        w.benchmarks.len(),
        w.accesses,
        args.seed,
        layers::REPS,
        start.elapsed().as_secs_f64()
    );
    let title = match traced.canary_seed {
        Some(seed) => {
            format!("{title}\n  seeded tape mutation (seed {seed}): reported as unfaithful")
        }
        None => title,
    };
    let rows: Vec<(&str, Option<f64>, &str)> = traced
        .metrics
        .iter()
        .map(|m| (m.name, Some(m.value), m.unit))
        .collect();
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    report(&title, &rows, &names, traced.attempted, &traced.failures);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: ldis-perfbench --workload <{}> --seed <n> --seconds <s> \
                 --trace <0|1>",
                cells::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = cells::workload(&args.workload) else {
        eprintln!(
            "error: unknown workload '{}'; expected one of {}",
            args.workload,
            cells::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.trace {
        traced(&w, &args);
    } else {
        end_to_end(&w, &args);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_the_work_per_sample_halves_maccess_per_s() {
        // The reference pairing must cancel the host's drift, not a real
        // change: a cell that does its work twice per sample must read
        // about half the throughput. Rounds alternate so that drift
        // between them touches both sides alike.
        let mut w = cells::workload("l1-resident").expect("l1-resident is a workload");
        w.cells.truncate(2);
        let cfg = cells::run_config(w.accesses, 7);
        let (mut once, mut twice) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            for (repeat, out) in [(1, &mut once), (2, &mut twice)] {
                let m = measure(&w, cfg, 1.0, repeat);
                assert!(m.failed.is_empty() && m.bad_checksums == 0);
                out.push((m.maccess_per_s(&w), m.raw_maccess_per_s(&w)));
            }
        }
        let fell = |pick: fn(&(f64, f64)) -> f64| {
            let med = |v: &[(f64, f64)]| clock::median(&v.iter().map(pick).collect::<Vec<_>>());
            med(&once) / med(&twice)
        };
        let ratio = fell(|m| m.0);
        eprintln!(
            "doubled work: maccess_per_s fell {ratio:.3}x (raw CPU-time throughput {:.3}x)",
            fell(|m| m.1)
        );
        assert!(
            (1.7..=2.3).contains(&ratio),
            "doubled work moved maccess_per_s by {ratio:.3}x, not about 2x"
        );
    }
}
