//! The traced run: per-layer host time, each layer timed alone on input
//! recorded once per cell, plus the faithfulness checks that make those
//! timings trustworthy.
//!
//! For every benchmark of the workload the run records:
//!
//! * one `run()` cell per L2 organization (six), each with its access
//!   stream (`Workload::fill_block`) and its L2 event tape — per
//!   organization, because a WOC partial hit changes the L1D's later
//!   requests;
//! * the two Figure 9 `TimingSim` cells (baseline and LDIS-MT-RC).
//!
//! It then times, `REPS` times each: generation alone, the `Hierarchy`
//! over a tape [`Player`] (the L1 cost), each organization replaying its
//! own tape into a fresh L2, the Mattson and SHARDS profilers fed the
//! baseline tape, and `TimingSim` over a player minus the hierarchy span
//! of the same input (the timing model's self time). As in the end-to-end
//! run, every timed sample is paired with the reference sample taken
//! right before it ([`clock`]); each layer's figure is the median over
//! repetitions of its time over its reference time.

use crate::cells::{self, with_l2, Cell, Kind, Org, Out, Workload, ORGS};
use crate::clock::{self, cpu_timed, RefKernel, REF_NOMINAL_S};
use crate::tape::{self, Player, Recorder, Tape};
use ldis_cache::{Hierarchy, HierarchyStats, L2Stats, SecondLevel};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_experiments::exec::{run_cells, ExecPolicy};
use ldis_experiments::mrc::MRC_SIZES;
use ldis_experiments::{baseline_config, RunConfig};
use ldis_mem::{stats::mpki, Access, LineGeometry, Trace};
use ldis_mrc::{MattsonL2, ShardsL2};
use ldis_timing::TimingSim;
use ldis_workloads::{Benchmark, Workload as Generator};
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed repetitions of every layer on every cell.
pub const REPS: usize = 3;
/// Trivial cells per `run_cells` call when timing the executor.
const EXEC_CELLS: u64 = 512;
/// Timed `run_cells` calls. Each takes well under a millisecond, and its
/// wall time varies with how soon the host schedules the new worker
/// thread, so it gets more samples than the layers do.
const EXEC_REPS: usize = 31;

/// Host time of one layer over the whole workload: for each cell, the
/// median over repetitions of the layer's time over its reference time,
/// scaled by the nominal reference time and summed; and the work it did
/// (accesses or L2 requests).
#[derive(Default)]
struct Span {
    /// The current cell's time over reference time, per repetition.
    ratios: [f64; REPS],
    ns: f64,
    work: u64,
}

impl Span {
    fn end_cell(&mut self) {
        self.ns += clock::median(&self.ratios) * REF_NOMINAL_S * 1e9;
        self.ratios = [0.0; REPS];
    }

    fn per_unit(&self) -> f64 {
        self.ns / self.work.max(1) as f64
    }
}

/// One per-layer metric as printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Cells recorded and checked.
    pub attempted: u64,
    /// One line per cell that failed a faithfulness check.
    pub failures: Vec<String>,
    /// Seed of the tape mutation the faithfulness check reported.
    pub canary_seed: Option<u64>,
}

/// Generates `n` accesses of `generator` in the blocks `Workload::drive`
/// uses, so the stream equals the one a `run()` cell simulates.
fn generate(generator: &mut Generator, n: usize) -> Vec<Access> {
    let mut out = Vec::with_capacity(n);
    let mut block = Vec::with_capacity(Generator::DRIVE_BLOCK);
    while out.len() < n {
        generator.fill_block(&mut block, (n - out.len()).min(Generator::DRIVE_BLOCK));
        out.extend_from_slice(&block);
    }
    out
}

fn record<L: SecondLevel>(l2: L, trace: &Trace) -> (HierarchyStats, L2Stats, Tape) {
    let mut hier = Hierarchy::hpca2007(Recorder::new(l2));
    hier.run_trace(trace);
    let l2_stats = hier.l2().stats().clone();
    (*hier.stats(), l2_stats, hier.l2_mut().take_tape())
}

/// The span a timed sample belongs to.
#[derive(Clone, Copy)]
enum Layer {
    Gen,
    Hierarchy,
    /// The organization at this index of `ORGS`.
    Org(usize),
    Mattson,
    Shards,
    Timing,
}

/// Accumulates spans, counts and failures across the workload.
#[derive(Default)]
struct Run {
    gen: Span,
    hierarchy: Span,
    orgs: [Span; ORGS.len()],
    mattson: Span,
    shards: Span,
    timing: Span,
    exec_us_per_cell: f64,
    kernel: RefKernel,
    /// CPU time and accesses of the plain `run()` cells, and the CPU time
    /// of recording the same cells.
    plain_s: f64,
    plain_accesses: u64,
    recorded_s: f64,
    own: Vec<(HierarchyStats, u64)>,
    ldis: L2Stats,
    peak_samples: usize,
    attempted: u64,
    failures: Vec<String>,
    canary_seed: Option<u64>,
}

impl Run {
    /// Times `f` as repetition `rep` of `layer`, paired with a reference
    /// sample. A `sign` of -1 subtracts it: the hierarchy part of a
    /// `TimingSim` step.
    fn timed<T>(&mut self, layer: Layer, rep: usize, sign: f64, f: impl FnOnce() -> T) -> T {
        let (out, s) = self.kernel.paired(f);
        let span = match layer {
            Layer::Gen => &mut self.gen,
            Layer::Hierarchy => &mut self.hierarchy,
            Layer::Org(i) => &mut self.orgs[i],
            Layer::Mattson => &mut self.mattson,
            Layer::Shards => &mut self.shards,
            Layer::Timing => &mut self.timing,
        };
        span.ratios[rep] += sign * s.secs / s.ref_secs;
        out
    }

    /// Ends a cell: closes every span's repetitions, counts the cell and
    /// records its first failure, if any.
    fn checked(&mut self, key: String, result: Result<(), String>) {
        let spans = [
            &mut self.gen,
            &mut self.hierarchy,
            &mut self.mattson,
            &mut self.shards,
            &mut self.timing,
        ];
        for span in spans.into_iter().chain(&mut self.orgs) {
            span.end_cell();
        }
        self.attempted += 1;
        if let Err(reason) = result {
            self.failures.push(format!("{key}: {reason}"));
        }
    }
}

fn expect(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_owned())
    }
}

/// Records, times and checks one `run()` cell; returns its tape.
fn run_cell(
    r: &mut Run,
    w: &Workload,
    cfg: &RunConfig,
    bench: &Benchmark,
    org: Org,
) -> (Tape, L2Stats) {
    let cell = Cell {
        bench: *bench,
        kind: Kind::Run(org),
    };
    let (plain, plain_s) = cpu_timed(|| match cells::run_cell(&cell, cfg) {
        Out::Run(result) => result,
        _ => unreachable!("a run cell returns a run result"),
    });
    r.plain_s += plain_s;
    r.plain_accesses += cfg.accesses;

    let ((seed, trace, (hier_stats, l2_stats, tape)), recorded_s) = cpu_timed(|| {
        with_l2!(org, bench, cfg.seed, |l2| {
            let seed = cfg.seed_for(bench, l2.name());
            let mut generator = (bench.make)(seed);
            let trace =
                Trace::from_accesses(bench.name, generate(&mut generator, cfg.accesses as usize));
            let recorded = record(l2, &trace);
            (seed, trace, recorded)
        })
    });
    r.recorded_s += recorded_s;

    let mut result = expect(
        hier_stats == plain.hierarchy && l2_stats == plain.l2,
        "the recorded run differs from the plain run() cell",
    );
    let n = trace.len() as u64;
    let requests = tape::requests(&tape);
    let slot = ORGS.iter().position(|&o| o == org).unwrap_or(0);
    for rep in 0..REPS {
        let mut generator = (bench.make)(seed);
        let generated = r.timed(Layer::Gen, rep, 1.0, || {
            generate(&mut generator, trace.len())
        });
        if rep == 0 && result.is_ok() {
            result = expect(generated == trace.accesses(), "regenerated stream differs");
        }

        let mut hier = Hierarchy::hpca2007(Player::new(&tape));
        r.timed(Layer::Hierarchy, rep, 1.0, || hier.run_trace(&trace));
        if result.is_ok() {
            result = expect(
                hier.l2().divergence() == 0 && *hier.stats() == plain.hierarchy,
                "the hierarchy over the tape player left the recording",
            );
        }

        let replayed = with_l2!(org, bench, cfg.seed, |l2| {
            let mut l2 = l2;
            let mismatches = r.timed(Layer::Org(slot), rep, 1.0, || tape::replay(&tape, &mut l2));
            tape::check_replay(org.label(), mismatches, &l2, &plain.l2)
        });
        if result.is_ok() {
            result = replayed;
        }
    }
    r.gen.work += n;
    r.hierarchy.work += n;
    r.orgs[slot].work += requests;
    if w.has(bench, Kind::Run(org)) {
        r.own.push((plain.hierarchy, plain.l2.accesses));
    }
    if org == Org::LdisMtRc {
        add_stats(&mut r.ldis, &plain.l2);
    }
    r.checked(cell.key(), result);
    (tape, plain.l2)
}

fn add_stats(sum: &mut L2Stats, s: &L2Stats) {
    sum.accesses += s.accesses;
    sum.woc_hits += s.woc_hits;
    sum.hole_misses += s.hole_misses;
    sum.woc_installs += s.woc_installs;
}

/// The seeded proof that the faithfulness check bites: one recorded
/// `valid_words` of an LDIS-MT-RC tape is flipped, and replaying the copy
/// into a fresh L2 must be reported as unfaithful.
fn canary(r: &mut Run, seed: u64, tape: &Tape, want: &L2Stats) {
    let mut mutated = tape.clone();
    tape::mutate(&mut mutated, seed);
    let mut fresh = DistillCache::new(DistillConfig::ldis_mt_rc());
    let mismatches = tape::replay(&mutated, &mut fresh);
    if tape::check_replay("canary", mismatches, &fresh, want).is_ok() {
        r.failures
            .push("seeded tape mutation: the faithfulness check did not report it".into());
    }
    r.canary_seed = Some(seed);
}

/// Times the MRC engines on the baseline tape and checks them against the
/// plain MRC cell and against the baseline replay.
fn mrc_cell(r: &mut Run, w: &Workload, cfg: &RunConfig, bench: &Benchmark, tape: &Tape) {
    let plain = cells::run_mrc(bench, cfg);
    let configs: Vec<_> = MRC_SIZES.iter().map(|&s| baseline_config(s)).collect();
    let instructions = plain.hierarchy.instructions;
    let requests = tape::requests(tape);
    let mut result = Ok(());
    for rep in 0..REPS {
        let mut exact = MattsonL2::for_configs(&configs);
        r.timed(Layer::Mattson, rep, 1.0, || tape::replay(tape, &mut exact));

        let mut sampled = ShardsL2::new(LineGeometry::default(), cells::shards_config());
        r.timed(Layer::Shards, rep, 1.0, || tape::replay(tape, &mut sampled));

        if rep > 0 {
            continue;
        }
        r.peak_samples = r.peak_samples.max(sampled.profiler().peak_samples());
        let mut direct = ldis_cache::BaselineL2::new(baseline_config(1 << 20));
        let mismatches = tape::replay(tape, &mut direct);
        let d = direct.stats();
        let one_mb = exact.result_for(&baseline_config(1 << 20));
        let same_as_direct = mismatches == 0
            && one_mb.as_ref().is_some_and(|m| {
                m.accesses == d.accesses
                    && m.hits == d.loc_hits
                    && m.line_misses == d.line_misses
                    && m.compulsory_misses == d.compulsory_misses
                    && m.evictions == d.evictions
                    && m.writebacks == d.writebacks
                    && m.words_used_at_evict == d.words_used_at_evict
            });
        let exact_mpki: Vec<f64> = configs
            .iter()
            .map(|c| {
                exact
                    .result_for(c)
                    .map_or(f64::NAN, |p| mpki(p.line_misses, instructions))
            })
            .collect();
        let mrc = sampled.mrc();
        let geom = LineGeometry::default();
        let sampled_mpki: Vec<f64> = MRC_SIZES
            .iter()
            .map(|&s| mrc.estimated_mpki(s / u64::from(geom.line_bytes()), instructions))
            .collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        result = expect(
            same_as_direct,
            "Mattson 1 MB result differs from BaselineL2 on the same tape",
        )
        .and(expect(
            bits(&exact_mpki) == bits(&plain.exact_mpki),
            "Mattson fed the tape differs from run_capacity_sweep",
        ))
        .and(expect(
            bits(&sampled_mpki) == bits(&plain.sampled_mpki)
                && sampled.profiler().peak_samples() == plain.peak_samples,
            "SHARDS fed the tape differs from run_sampled_capacity_sweep",
        ));
    }
    r.mattson.work += requests;
    r.shards.work += requests;
    if w.has(bench, Kind::Mrc) {
        r.own.push((plain.hierarchy, plain.l2_accesses));
    }
    r.checked(format!("{}/mrc", bench.name), result);
}

/// Records, times and checks one Figure 9 timed cell.
fn ipc_cell(r: &mut Run, w: &Workload, cfg: &RunConfig, bench: &Benchmark, org: Org) {
    let cell = Cell {
        bench: *bench,
        kind: Kind::Ipc(org),
    };
    let plain = match cells::run_cell(&cell, cfg) {
        Out::Ipc(out) => out,
        _ => unreachable!("an IPC cell returns an IPC result"),
    };
    let mut generator = (bench.make)(cfg.seed);
    let trace = Trace::from_accesses(bench.name, generate(&mut generator, cfg.accesses as usize));
    let (_, l2_stats, tape) = with_l2!(org, bench, cfg.seed, |l2| record(l2, &trace));
    let replayed = with_l2!(org, bench, cfg.seed, |l2| {
        let mut l2 = l2;
        let mismatches = tape::replay(&tape, &mut l2);
        tape::check_replay(org.label(), mismatches, &l2, &plain.l2)
    });
    let mut result = expect(
        l2_stats == plain.l2,
        "the recorded run differs from the timed cell",
    )
    .and(replayed);
    for rep in 0..REPS {
        // Self time: the steps minus the hierarchy on the same input,
        // each over its own reference time.
        let mut hier = Hierarchy::hpca2007(Player::new(&tape));
        r.timed(Layer::Timing, rep, -1.0, || hier.run_trace(&trace));

        let mut sim = TimingSim::new(
            Player::new(&tape),
            cells::system(bench),
            cells::l2_timing(org),
        );
        r.timed(Layer::Timing, rep, 1.0, || {
            for &a in trace.accesses() {
                sim.step(a);
            }
        });
        if rep == 0 && result.is_ok() {
            result = expect(
                sim.hierarchy().l2().divergence() == 0
                    && sim.cycles() == plain.timing.cycles
                    && sim.hierarchy().stats().instructions == plain.timing.instructions,
                "TimingSim over the tape player differs from the timed cell",
            );
        }
    }
    r.timing.work += trace.len() as u64;
    if w.has(bench, Kind::Ipc(org)) {
        r.own.push((plain.hierarchy, plain.l2.accesses));
    }
    r.checked(cell.key(), result);
}

/// Runs the traced measurement of workload `w` at `seed`.
pub fn run(w: &Workload, seed: u64) -> Traced {
    let cfg = cells::run_config(w.accesses, seed);
    let mut r = Run::default();
    for bench in &w.benchmarks {
        for org in ORGS {
            let (tape, stats) = run_cell(&mut r, w, &cfg, bench, org);
            match org {
                Org::Baseline => mrc_cell(&mut r, w, &cfg, bench, &tape),
                Org::LdisMtRc if r.canary_seed.is_none() => canary(&mut r, cfg.seed, &tape, &stats),
                _ => {}
            }
        }
        for org in [Org::Baseline, Org::LdisMtRc] {
            ipc_cell(&mut r, w, &cfg, bench, org);
        }
    }
    let mut exec_ratios = Vec::with_capacity(EXEC_REPS);
    for _ in 0..EXEC_REPS {
        // Wall time: the executor's cost is mostly spawning and joining
        // its worker thread, which the calling thread's CPU clock misses.
        let ((report, wall_s), s) = r.kernel.paired(|| {
            let t = Instant::now();
            let report = run_cells(
                (0..EXEC_CELLS).collect(),
                |_, &x: &u64| x,
                &ExecPolicy::with_threads(1),
                BTreeMap::new(),
                |_, _| {},
            );
            (report, t.elapsed().as_secs_f64())
        });
        exec_ratios.push(wall_s / s.ref_secs);
        if !report.all_ok() {
            r.failures
                .push("run_cells quarantined a trivial cell".into());
        }
    }
    r.exec_us_per_cell = clock::median(&exec_ratios) * REF_NOMINAL_S * 1e6 / EXEC_CELLS as f64;
    r.attempted += 1;
    if r.kernel.bad_checksums() > 0 {
        r.failures.push(format!(
            "reference kernel: {} sample(s) missed the frozen checksum {}",
            r.kernel.bad_checksums(),
            clock::REF_HITS
        ));
    }
    metrics(r)
}

fn metrics(r: Run) -> Traced {
    let (mut l1d, mut l1d_hits, mut accesses, mut l2_reqs) = (0u64, 0u64, 0u64, 0u64);
    for (h, reqs) in &r.own {
        l1d += h.l1d_accesses;
        l1d_hits += h.l1d_hits;
        accesses += h.l1d_accesses + h.l1i_accesses;
        l2_reqs += reqs;
    }
    let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let org = |o: Org| r.orgs[ORGS.iter().position(|&x| x == o).unwrap_or(0)].per_unit();
    let m = |name, value, unit| Metric { name, value, unit };
    Traced {
        metrics: vec![
            m("workloads.gen_ns_per_access", r.gen.per_unit(), "ns"),
            m(
                "cache.hierarchy_ns_per_access",
                r.hierarchy.per_unit(),
                "ns",
            ),
            m("cache.l1d_hit_frac", frac(l1d_hits, l1d), "frac"),
            m(
                "cache.l2_req_per_access",
                frac(l2_reqs, accesses),
                "1/access",
            ),
            m("cache.baseline_ns_per_req", org(Org::Baseline), "ns"),
            m("core.ldis_base_ns_per_req", org(Org::LdisBase), "ns"),
            m("core.ldis_mt_rc_ns_per_req", org(Org::LdisMtRc), "ns"),
            m(
                "core.woc_hit_frac",
                frac(r.ldis.woc_hits, r.ldis.accesses),
                "frac",
            ),
            m(
                "core.hole_miss_frac",
                frac(r.ldis.hole_misses, r.ldis.accesses),
                "frac",
            ),
            m(
                "core.woc_installs_per_req",
                frac(r.ldis.woc_installs, r.ldis.accesses),
                "1/req",
            ),
            m("compress.cmpr_ns_per_req", org(Org::Cmpr), "ns"),
            m("compress.fac_ns_per_req", org(Org::Fac), "ns"),
            m("sfp.sfp_ns_per_req", org(Org::Sfp), "ns"),
            m("mrc.mattson_ns_per_req", r.mattson.per_unit(), "ns"),
            m("mrc.shards_ns_per_req", r.shards.per_unit(), "ns"),
            m("mrc.shards_peak_samples", r.peak_samples as f64, "count"),
            m("timing.step_ns_per_access", r.timing.per_unit(), "ns"),
            m("experiments.exec_us_per_cell", r.exec_us_per_cell, "us"),
            m("bench.ref_kernel_ms", r.kernel.median_s() * 1e3, "ms"),
            m(
                "bench.raw_maccess_per_s",
                r.plain_accesses as f64 / r.plain_s / 1e6,
                "Maccess/s",
            ),
            m(
                "bench.trace_overhead_frac",
                r.recorded_s / r.plain_s - 1.0,
                "frac",
            ),
        ],
        attempted: r.attempted,
        failures: r.failures,
        canary_seed: r.canary_seed,
    }
}
