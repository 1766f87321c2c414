//! The benchmark's workloads: which cells each runs, how one cell is set up
//! and run through the entry points the `ldis-experiments` commands use,
//! and the checks its outputs must pass.

use ldis_cache::{Hierarchy, HierarchyStats, L2Stats, SecondLevel};
use ldis_compress::ValueSizeModel;
use ldis_distill::CellFailure;
use ldis_experiments::golden;
use ldis_experiments::mrc::{all_benchmarks, MRC_SIZES};
use ldis_experiments::sweep::{self, SweepConfig};
use ldis_experiments::{
    baseline_config, run, run_baseline, run_capacity_sweep, run_sampled_capacity_sweep, RunConfig,
    RunResult,
};
use ldis_mem::stats::{gmean_percent, mean, percent_improvement, percent_reduction};
use ldis_mem::LineGeometry;
use ldis_mrc::{check_bounded_error, mpki_tolerance, MattsonL2, ShardsConfig, ShardsL2};
use ldis_timing::{workload_factors, L2Timing, SystemConfig, TimingResult, TimingSim};
use ldis_workloads::{cache_insensitive, memory_intensive, Benchmark, TraceLength};
use std::hint::black_box;

/// The one SHARDS sampling rate the `mrc-profile` workload runs.
pub const SHARDS_RATE: f64 = 0.01;

/// Paper reference values the accuracy metrics are measured against.
/// Fig. 6: LDIS-MT-RC cuts mean MPKI by 30.7 %.
pub const PAPER_LDIS_MT_RC_REDUCTION: f64 = 30.7;
/// Fig. 11: FAC-4xTags cuts mean MPKI by about 50 %.
pub const PAPER_FAC_REDUCTION: f64 = 50.0;
/// Fig. 9: distill cache gmean IPC gain of 12 %.
pub const PAPER_IPC_GAIN: f64 = 12.0;

/// The L2 organizations the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Org {
    Baseline,
    LdisBase,
    LdisMtRc,
    Cmpr,
    Fac,
    Sfp,
}

pub const ORGS: [Org; 6] = [
    Org::Baseline,
    Org::LdisBase,
    Org::LdisMtRc,
    Org::Cmpr,
    Org::Fac,
    Org::Sfp,
];

impl Org {
    pub fn label(self) -> &'static str {
        match self {
            Org::Baseline => "baseline",
            Org::LdisBase => "LDIS-Base",
            Org::LdisMtRc => "LDIS-MT-RC",
            Org::Cmpr => "CMPR-4xTags",
            Org::Fac => "FAC-4xTags",
            Org::Sfp => "SFP-16k",
        }
    }
}

/// The value model the compressed organizations size lines with, built
/// as Figure 11 builds it.
pub fn value_model(bench: &Benchmark, seed: u64) -> ValueSizeModel {
    ValueSizeModel::new((bench.make)(seed).values(), LineGeometry::default(), seed)
}

/// Builds `$org`'s L2 for `$bench` (run seed `$seed`) as the figure
/// experiments do, binds it to `$l2` and evaluates `$body`. A macro
/// because every arm has its own concrete L2 type and the simulator is
/// generic over it.
macro_rules! with_l2 {
    ($org:expr, $bench:expr, $seed:expr, |$l2:ident| $body:expr) => {
        match $org {
            $crate::cells::Org::Baseline => {
                let $l2 = ldis_cache::BaselineL2::new(ldis_experiments::baseline_config(1 << 20));
                $body
            }
            $crate::cells::Org::LdisBase => {
                let $l2 = ldis_distill::DistillCache::new(ldis_distill::DistillConfig::ldis_base());
                $body
            }
            $crate::cells::Org::LdisMtRc => {
                let $l2 =
                    ldis_distill::DistillCache::new(ldis_distill::DistillConfig::ldis_mt_rc());
                $body
            }
            $crate::cells::Org::Cmpr => {
                let $l2 = ldis_compress::CmprCache::new(
                    ldis_compress::CmprConfig::cmpr_4x_tags(),
                    $crate::cells::value_model($bench, $seed),
                );
                $body
            }
            $crate::cells::Org::Fac => {
                let $l2 = ldis_compress::fac_4x_tags($crate::cells::value_model($bench, $seed));
                $body
            }
            $crate::cells::Org::Sfp => {
                let $l2 = ldis_sfp::SfpCache::new(ldis_sfp::SfpConfig::sfp_16k());
                $body
            }
        }
    };
}
pub(crate) use with_l2;

/// What one cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `run()` of one benchmark against one L2 organization (the figure
    /// and sweep experiments' cell).
    Run(Org),
    /// `run_capacity_sweep` (exact Mattson at every `MRC_SIZES` size) plus
    /// `run_sampled_capacity_sweep` (SHARDS at [`SHARDS_RATE`]).
    Mrc,
    /// Figure 9's timed system: `TimingSim` over the 1 MB baseline or the
    /// distill cache, on the undivided run seed as `fig9::data` uses it.
    Ipc(Org),
}

#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub bench: Benchmark,
    pub kind: Kind,
}

impl Cell {
    pub fn key(&self) -> String {
        let what = match self.kind {
            Kind::Run(org) => org.label().to_owned(),
            Kind::Mrc => "mrc".to_owned(),
            Kind::Ipc(org) => format!("ipc-{}", org.label()),
        };
        format!("{}/{what}", self.bench.name)
    }

    /// Simulated accesses the cell runs (an MRC cell runs two passes).
    pub fn accesses(&self, n: u64) -> u64 {
        match self.kind {
            Kind::Mrc => 2 * n,
            Kind::Run(_) | Kind::Ipc(_) => n,
        }
    }
}

/// A workload: a named set of cells of one length.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Accesses per cell.
    pub accesses: u64,
    pub benchmarks: Vec<Benchmark>,
    pub cells: Vec<Cell>,
}

impl Workload {
    /// Whether the workload runs `kind` on `bench`.
    pub fn has(&self, bench: &Benchmark, kind: Kind) -> bool {
        self.cells
            .iter()
            .any(|c| c.bench.id == bench.id && c.kind == kind)
    }
}

pub const WORKLOADS: [&str; 3] = ["l2-orgs", "l1-resident", "mrc-profile"];

fn matrix(benchmarks: &[Benchmark], kinds: &[Kind]) -> Vec<Cell> {
    benchmarks
        .iter()
        .flat_map(|&bench| kinds.iter().map(move |&kind| Cell { bench, kind }))
        .collect()
}

pub fn workload(name: &str) -> Option<Workload> {
    let (name, accesses, benchmarks, kinds): (_, _, _, Vec<Kind>) = match name {
        "l2-orgs" => (
            "l2-orgs",
            150_000,
            memory_intensive(),
            ORGS.iter()
                .map(|&o| Kind::Run(o))
                .chain([Kind::Ipc(Org::Baseline), Kind::Ipc(Org::LdisMtRc)])
                .collect(),
        ),
        "l1-resident" => (
            "l1-resident",
            600_000,
            cache_insensitive(),
            vec![Kind::Run(Org::Baseline), Kind::Run(Org::LdisMtRc)],
        ),
        "mrc-profile" => ("mrc-profile", 300_000, all_benchmarks(), vec![Kind::Mrc]),
        _ => return None,
    };
    let cells = matrix(&benchmarks, &kinds);
    Some(Workload {
        name,
        accesses,
        benchmarks,
        cells,
    })
}

pub fn run_config(accesses: u64, seed: u64) -> RunConfig {
    RunConfig {
        accesses,
        warmup: 0,
        seed,
    }
}

pub fn shards_config() -> ShardsConfig {
    ShardsConfig::at_rate(SHARDS_RATE)
}

/// Figure 9's system configuration for `bench`.
pub fn system(bench: &Benchmark) -> SystemConfig {
    let (dep, br) = workload_factors(bench.name);
    SystemConfig::hpca2007_baseline().with_workload_factors(dep, br)
}

/// Figure 9's L2 latency model for the timed organizations.
pub fn l2_timing(org: Org) -> L2Timing {
    if org == Org::Baseline {
        L2Timing::baseline()
    } else {
        L2Timing::distill()
    }
}

/// The result of an MRC cell.
#[derive(Clone, Debug, PartialEq)]
pub struct MrcOut {
    pub hierarchy: HierarchyStats,
    /// L2 demand requests the profilers saw.
    pub l2_accesses: u64,
    /// Exact MPKI per `MRC_SIZES` size.
    pub exact_mpki: Vec<f64>,
    /// SHARDS-estimated MPKI per size.
    pub sampled_mpki: Vec<f64>,
    /// Line misses of the exact 1 MB point.
    pub exact_1mb_misses: u64,
    pub peak_samples: usize,
    /// Whether the sampled pass replayed the exact pass's hierarchy.
    pub same_stream: bool,
}

/// The result of an IPC cell.
#[derive(Clone, Debug, PartialEq)]
pub struct IpcOut {
    pub timing: TimingResult,
    pub hierarchy: HierarchyStats,
    pub l2: L2Stats,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Out {
    Run(RunResult),
    Mrc(MrcOut),
    Ipc(IpcOut),
}

/// Runs one MRC cell as the `mrc` experiment and the sampled oracle do.
pub fn run_mrc(bench: &Benchmark, cfg: &RunConfig) -> MrcOut {
    let exact = run_capacity_sweep(bench, cfg, &MRC_SIZES);
    let sampled = run_sampled_capacity_sweep(bench, cfg, &MRC_SIZES, &shards_config());
    let one_mb = exact.point(1 << 20);
    MrcOut {
        hierarchy: exact.hierarchy,
        l2_accesses: one_mb.map_or(0, |p| p.result.accesses),
        exact_mpki: MRC_SIZES.iter().map(|&s| exact.mpki_at(s)).collect(),
        sampled_mpki: MRC_SIZES.iter().map(|&s| sampled.mpki_at(s)).collect(),
        exact_1mb_misses: one_mb.map_or(0, |p| p.result.line_misses),
        peak_samples: sampled.peak_samples,
        same_stream: sampled.hierarchy == exact.hierarchy,
    }
}

/// Runs one cell of `cfg.accesses` accesses.
pub fn run_cell(cell: &Cell, cfg: &RunConfig) -> Out {
    let bench = &cell.bench;
    match cell.kind {
        Kind::Run(org) => with_l2!(org, bench, cfg.seed, |l2| Out::Run(run(
            bench,
            cfg,
            move || l2
        ))),
        Kind::Mrc => Out::Mrc(run_mrc(bench, cfg)),
        Kind::Ipc(org) => with_l2!(org, bench, cfg.seed, |l2| {
            let mut sim = TimingSim::new(l2, system(bench), l2_timing(org));
            let timing = sim.run(&mut (bench.make)(cfg.seed), cfg.accesses);
            let hier = sim.hierarchy();
            Out::Ipc(IpcOut {
                timing,
                hierarchy: *hier.stats(),
                l2: hier.l2().stats().clone(),
            })
        }),
    }
}

/// Builds everything a cell needs before its first access — generators,
/// value models, caches, the hierarchy or timed core — and drops it.
pub fn set_up_cell(cell: &Cell, cfg: &RunConfig) {
    let bench = &cell.bench;
    match cell.kind {
        Kind::Run(org) => with_l2!(org, bench, cfg.seed, |l2| {
            let workload = (bench.make)(cfg.seed_for(bench, l2.name()));
            black_box((workload, Hierarchy::hpca2007(l2)));
        }),
        Kind::Mrc => {
            let configs: Vec<_> = MRC_SIZES.iter().map(|&s| baseline_config(s)).collect();
            let exact = Hierarchy::hpca2007(MattsonL2::for_configs(&configs));
            let sampled =
                Hierarchy::hpca2007(ShardsL2::new(LineGeometry::default(), shards_config()));
            let seed = cfg.seed_for(bench, "baseline");
            black_box(((bench.make)(seed), exact, (bench.make)(seed), sampled));
        }
        Kind::Ipc(org) => with_l2!(org, bench, cfg.seed, |l2| {
            let sim = TimingSim::new(l2, system(bench), l2_timing(org));
            black_box(((bench.make)(cfg.seed), sim));
        }),
    }
}

/// The simulated accuracy figures of a workload (paper-relative errors),
/// `None` where the workload does not run what the figure needs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accuracy {
    pub mpki_reduction_err_pp: Option<f64>,
    pub fac_mpki_reduction_err_pp: Option<f64>,
    pub ipc_gain_err_pp: Option<f64>,
    pub shards_mpki_err: Option<f64>,
}

fn out_of<'a>(w: &Workload, outs: &'a [Out], bench: &str, kind: Kind) -> Option<&'a Out> {
    w.cells
        .iter()
        .position(|c| c.bench.name == bench && c.kind == kind)
        .and_then(|i| outs.get(i))
}

/// Mean-MPKI reduction of `org` over the baseline across the workload's
/// benchmarks, the summary statistic of Figures 6 and 11.
fn mean_reduction(w: &Workload, outs: &[Out], org: Org) -> Option<f64> {
    let mpki = |o: Org| -> Option<Vec<f64>> {
        w.benchmarks
            .iter()
            .map(|b| match out_of(w, outs, b.name, Kind::Run(o)) {
                Some(Out::Run(r)) => Some(r.mpki),
                _ => None,
            })
            .collect()
    };
    let base = mpki(Org::Baseline)?;
    let new = mpki(org)?;
    Some(percent_reduction(mean(&base), mean(&new)))
}

fn ipc_gain(w: &Workload, outs: &[Out]) -> Option<f64> {
    let gains: Option<Vec<f64>> = w
        .benchmarks
        .iter()
        .map(|b| {
            let ipc = |o: Org| match out_of(w, outs, b.name, Kind::Ipc(o)) {
                Some(Out::Ipc(i)) => Some(i.timing.ipc()),
                _ => None,
            };
            Some(percent_improvement(
                ipc(Org::Baseline)?,
                ipc(Org::LdisMtRc)?,
            ))
        })
        .collect();
    Some(gmean_percent(&gains?))
}

/// The paper-relative accuracy of a workload's outputs.
pub fn accuracy(w: &Workload, outs: &[Out]) -> Accuracy {
    let shards = outs
        .iter()
        .filter_map(|o| match o {
            Out::Mrc(m) => Some(
                m.exact_mpki
                    .iter()
                    .zip(&m.sampled_mpki)
                    .map(|(e, s)| (e - s).abs())
                    .fold(0.0f64, f64::max),
            ),
            _ => None,
        })
        .reduce(f64::max);
    // Figures 6 and 11 average over the memory-intensive suite, which only
    // `l2-orgs` runs; the insensitive suite has no paper reduction to meet.
    let figures = w.name == "l2-orgs";
    Accuracy {
        mpki_reduction_err_pp: mean_reduction(w, outs, Org::LdisMtRc)
            .filter(|_| figures)
            .map(|r| (r - PAPER_LDIS_MT_RC_REDUCTION).abs()),
        fac_mpki_reduction_err_pp: mean_reduction(w, outs, Org::Fac)
            .filter(|_| figures)
            .map(|r| (r - PAPER_FAC_REDUCTION).abs()),
        ipc_gain_err_pp: ipc_gain(w, outs).map(|g| (g - PAPER_IPC_GAIN).abs()),
        shards_mpki_err: shards,
    }
}

/// Checks one cell's output on its own: counters that must add up, the
/// SHARDS error budget, MRC/direct-run agreement, and that the timed core
/// leaves the cache behaviour of a plain hierarchy run untouched.
pub fn check_cell(cell: &Cell, cfg: &RunConfig, out: &Out) -> Result<(), String> {
    let bench = &cell.bench;
    match (cell.kind, out) {
        (Kind::Run(_), Out::Run(r)) => {
            if r.l2.hits() + r.l2.demand_misses() != r.l2.accesses || !r.mpki.is_finite() {
                return Err("L2 hits + misses do not add up to accesses".into());
            }
        }
        (Kind::Mrc, Out::Mrc(m)) => {
            if !m.same_stream {
                return Err("the SHARDS pass saw another L2 request stream".into());
            }
            let direct = run_baseline(bench, cfg, 1 << 20);
            let one_mb = MRC_SIZES.iter().position(|&s| s == 1 << 20);
            let exact_1mb = one_mb.and_then(|i| m.exact_mpki.get(i));
            if exact_1mb.map(|x| x.to_bits()) != Some(direct.mpki.to_bits())
                || m.exact_1mb_misses != direct.l2.line_misses
            {
                return Err("Mattson 1 MB point differs from a direct 1 MB baseline run".into());
            }
            let tolerance = mpki_tolerance(SHARDS_RATE, m.l2_accesses, m.hierarchy.instructions);
            for (e, s) in m.exact_mpki.iter().zip(&m.sampled_mpki) {
                check_bounded_error(*s, *e, tolerance)?;
            }
        }
        (Kind::Ipc(org), Out::Ipc(i)) => {
            let ipc = i.timing.ipc();
            if !(ipc > 0.0 && ipc <= f64::from(system(bench).width)) {
                return Err(format!("IPC {ipc} outside (0, width]"));
            }
            let l2 = with_l2!(org, bench, cfg.seed, |l2| {
                let mut hier = Hierarchy::hpca2007(l2);
                (bench.make)(cfg.seed).drive(&mut hier, TraceLength::accesses(cfg.accesses));
                hier.l2().stats().clone()
            });
            if l2 != i.l2 {
                return Err("the timed run's L2 statistics differ from a plain run's".into());
            }
        }
        _ => return Err("cell produced the wrong kind of output".into()),
    }
    Ok(())
}

/// Reruns, at the golden's seed (42) and length (150k accesses), every
/// sweep cell (`baseline`, `LDIS-Base`, `LDIS-MT-RC`) of the workload's
/// benchmarks and compares those rows of `tests/golden/sweep.json`; the
/// other rows are skipped as the sweep skips quarantined cells.
pub fn check_sweep_golden(w: &Workload) -> Result<(), String> {
    let cfg = golden::golden_config();
    let mut skipped = Vec::new();
    let outcomes: Vec<_> = sweep::cells()
        .iter()
        .map(|spec| {
            let org = match spec.config {
                SweepConfig::Baseline => Org::Baseline,
                SweepConfig::LdisBase => Org::LdisBase,
                SweepConfig::LdisMtRc => Org::LdisMtRc,
            };
            if w.has(&spec.benchmark, Kind::Run(org)) {
                Ok(sweep::run_cell(spec, &cfg))
            } else {
                skipped.push(spec.key());
                Err(CellFailure::ResultLost)
            }
        })
        .collect();
    golden::verify_surviving("sweep", &sweep::snapshot(&outcomes), &skipped).map(|_| ())
}
