//! Differential-oracle tests: the single-pass Mattson profiler
//! (`crates/mrc`) against direct `ldis-cache` simulation.
//!
//! The profiler and the simulator are independently derived models of the
//! same LRU cache, so their agreement cross-validates both: a bug in
//! either the stack-distance construction or the set-associative
//! substrate breaks the equality. Every comparison here is bit-for-bit —
//! integer counters, f64 MPKI bit patterns and whole histograms — for
//! every benchmark of the paper (16 memory-intensive + 11
//! cache-insensitive) at every capacity of the MRC sweep, at the
//! canonical quick configuration. The suite runs under `LDIS_THREADS=1`
//! and `=4` in CI; the derived-seed scheme keeps both byte-identical.

use line_distillation::distill::{DistillCache, DistillConfig};
use line_distillation::experiments::appendix::{self, Table5Row, Table6Row};
use line_distillation::experiments::fig8::{self, Fig8Row};
use line_distillation::experiments::{
    for_each_benchmark, golden, mrc, run, run_baseline, run_baseline_with_words,
    run_capacity_sweep, run_matrix, RunConfig,
};
use line_distillation::mem::stats::percent_reduction;
use line_distillation::workloads::{cache_insensitive, memory_intensive};

/// Oracle-vs-simulator equality over the full quick matrix: all 27
/// benchmarks × {0.5, 0.75, 1, 1.5, 2, 4} MB. One Mattson pass per
/// benchmark answers what 6 direct simulations compute.
#[test]
fn oracle_matches_direct_simulation_for_every_benchmark_and_size() {
    let cfg = golden::golden_config();
    let benches = mrc::all_benchmarks();
    let sweeps = for_each_benchmark(&benches, move |b| {
        run_capacity_sweep(b, &cfg, &mrc::MRC_SIZES)
    });
    let direct = run_matrix(&benches, mrc::MRC_SIZES.len(), move |b, i| {
        run_baseline_with_words(b, &cfg, mrc::MRC_SIZES[i])
    });
    assert_eq!(sweeps.len(), benches.len());
    for (sweep, row) in sweeps.iter().zip(&direct) {
        for (&size, (r, words)) in mrc::MRC_SIZES.iter().zip(row) {
            let ctx = format!("{} at {} kB", sweep.benchmark, size >> 10);
            let p = sweep
                .point(size)
                .unwrap_or_else(|| panic!("{ctx}: size missing from sweep"));
            assert_eq!(sweep.benchmark, r.benchmark, "{ctx}: benchmark order");
            assert_eq!(
                p.mpki.to_bits(),
                r.mpki.to_bits(),
                "{ctx}: mpki {} vs {}",
                p.mpki,
                r.mpki
            );
            assert_eq!(p.result.accesses, r.l2.accesses, "{ctx}: accesses");
            assert_eq!(p.result.hits, r.l2.loc_hits, "{ctx}: hits");
            assert_eq!(p.result.line_misses, r.l2.line_misses, "{ctx}: misses");
            assert_eq!(
                p.result.compulsory_misses, r.l2.compulsory_misses,
                "{ctx}: compulsory misses"
            );
            assert_eq!(p.result.evictions, r.l2.evictions, "{ctx}: evictions");
            assert_eq!(p.result.writebacks, r.l2.writebacks, "{ctx}: writebacks");
            assert_eq!(
                p.result.words_used_at_evict, r.l2.words_used_at_evict,
                "{ctx}: words-used-at-evict histogram"
            );
            assert_eq!(
                p.result.words_used_with_resident, *words,
                "{ctx}: words-used histogram including resident lines"
            );
            assert_eq!(sweep.hierarchy, r.hierarchy, "{ctx}: L1/trace statistics");
        }
    }
}

/// The pre-rewire Figure 8 matrix: one direct baseline simulation per
/// traditional size.
fn fig8_direct(cfg: RunConfig) -> Vec<Fig8Row> {
    for_each_benchmark(&memory_intensive(), move |b| {
        let base = run_baseline(b, &cfg, 1 << 20);
        let distill = run(b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let t15 = run_baseline(b, &cfg, 3 << 19);
        let t20 = run_baseline(b, &cfg, 2 << 20);
        Fig8Row {
            benchmark: b.name.to_owned(),
            base: base.mpki,
            distill: percent_reduction(base.mpki, distill.mpki),
            trad_1_5mb: percent_reduction(base.mpki, t15.mpki),
            trad_2mb: percent_reduction(base.mpki, t20.mpki),
        }
    })
}

/// The pre-rewire Table 5 matrix: one direct baseline simulation per
/// traditional size.
fn table5_direct(cfg: RunConfig) -> Vec<Table5Row> {
    for_each_benchmark(&cache_insensitive(), move |b| {
        let t1 = run_baseline(b, &cfg, 1 << 20);
        let l1 = run(b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let t2 = run_baseline(b, &cfg, 2 << 20);
        let t4 = run_baseline(b, &cfg, 4 << 20);
        Table5Row {
            benchmark: b.name.to_owned(),
            trad_1mb: t1.mpki,
            ldis_1mb: l1.mpki,
            trad_2mb: t2.mpki,
            trad_4mb: t4.mpki,
            paper_trad_1mb: b.paper_mpki,
        }
    })
}

/// The pre-rewire Table 6 sweep: one direct simulation per size.
fn table6_direct(cfg: RunConfig) -> Vec<Table6Row> {
    for_each_benchmark(&memory_intensive(), move |b| {
        let mut avg_words = [0.0; 5];
        for (slot, &size) in avg_words.iter_mut().zip(&appendix::TABLE6_SIZES) {
            let (_, words) = run_baseline_with_words(b, &cfg, size);
            *slot = words.mean();
        }
        Table6Row {
            benchmark: b.name.to_owned(),
            avg_words,
            paper_1mb: b.paper_avg_words,
        }
    })
}

/// The float fields of a row as bit patterns, so a `NaN` fallback
/// compares equal to itself and `-0.0` differs from `0.0`.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The rewired Figure 8 must equal the pre-rewire per-size simulations
/// bit for bit (the committed golden was generated from the direct
/// path).
#[test]
fn rewired_fig8_is_byte_identical_to_direct_simulations() {
    let cfg = golden::golden_config();
    let rewired = fig8::data(&cfg);
    let direct = fig8_direct(cfg);
    assert_eq!(rewired.len(), direct.len());
    for (r, d) in rewired.iter().zip(&direct) {
        assert_eq!(r.benchmark, d.benchmark);
        assert_eq!(
            bits(&[r.base, r.distill, r.trad_1_5mb, r.trad_2mb]),
            bits(&[d.base, d.distill, d.trad_1_5mb, d.trad_2mb]),
            "{}: single-pass Figure 8 diverged from per-size simulation",
            r.benchmark
        );
    }
}

/// The rewired Table 5 must equal the pre-rewire per-size simulations.
#[test]
fn rewired_table5_is_byte_identical_to_direct_simulations() {
    let cfg = golden::golden_config();
    let rewired = appendix::table5_data(&cfg);
    let direct = table5_direct(cfg);
    assert_eq!(rewired.len(), direct.len());
    let fields = |r: &Table5Row| {
        bits(&[
            r.trad_1mb,
            r.ldis_1mb,
            r.trad_2mb,
            r.trad_4mb,
            r.paper_trad_1mb,
        ])
    };
    for (r, d) in rewired.iter().zip(&direct) {
        assert_eq!(r.benchmark, d.benchmark);
        assert_eq!(
            fields(r),
            fields(d),
            "{}: single-pass Table 5 diverged from per-size simulation",
            r.benchmark
        );
    }
}

/// The rewired Table 6 words-used sweep must equal the pre-rewire
/// per-size simulations, including its `NaN` fallback bit pattern.
#[test]
fn rewired_table6_is_byte_identical_to_direct_simulations() {
    let cfg = golden::golden_config();
    let rewired = appendix::table6_data(&cfg);
    let direct = table6_direct(cfg);
    assert_eq!(rewired.len(), direct.len());
    for (r, d) in rewired.iter().zip(&direct) {
        assert_eq!(r.benchmark, d.benchmark);
        assert_eq!(
            bits(&r.avg_words),
            bits(&d.avg_words),
            "{}: single-pass Table 6 diverged from per-size simulation",
            r.benchmark
        );
        assert_eq!(r.paper_1mb.to_bits(), d.paper_1mb.to_bits());
    }
}
