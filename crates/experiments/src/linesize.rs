//! Line-size sensitivity (Section 2's footnote and Section 7.5.1).
//!
//! The paper's footnote 2 observes that shrinking the line from 64 B to
//! 32 B increases misses for most benchmarks — the naive alternative to
//! distillation throws away spatial locality where it *does* exist. This
//! experiment reproduces that claim and contrasts it with LDIS at 64 B,
//! which gets the best of both.

use crate::report::{fmt_f, fmt_pct, Json, Table};
use crate::{run, run_matrix, RunConfig};
use ldis_cache::{BaselineL2, CacheConfig};
use ldis_distill::{DistillCache, DistillConfig, ReverterConfig, ThresholdPolicy};
use ldis_mem::stats::percent_reduction;
use ldis_mem::LineGeometry;
use ldis_workloads::memory_intensive;

/// Per-benchmark MPKI across line sizes plus LDIS at 64 B.
#[derive(Clone, Debug)]
pub struct LineSizeRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline 64 B MPKI.
    pub base_64b: f64,
    /// Change from moving to 32 B lines (%, negative = more misses).
    pub delta_32b: f64,
    /// Change from moving to 128 B lines (%).
    pub delta_128b: f64,
    /// Change from LDIS at 64 B (%).
    pub delta_ldis: f64,
    /// Change from LDIS at 128 B lines (%). Section 7.5.1: the unused-word
    /// problem — and so distillation's opportunity — grows with the line.
    pub delta_ldis_128b: f64,
}

fn baseline_with_lines(line_bytes: u32) -> BaselineL2 {
    let geom = LineGeometry::new(line_bytes, 8);
    BaselineL2::new(CacheConfig::new(1 << 20, 8, geom))
}

/// The five configurations of the line-size matrix, in column order.
const CONFIGS: usize = 5;

/// Runs the line-size matrix (1 MB 8-way at 32 B / 64 B / 128 B, plus
/// LDIS-MT-RC at 64 B and 128 B). Every one of the 16 × 5 cells is an
/// independent unit of parallel work on the executor, so a single slow
/// benchmark cannot serialize its whole row.
pub fn data(cfg: &RunConfig) -> Vec<LineSizeRow> {
    let benches = memory_intensive();
    let cfg = *cfg;
    let matrix = run_matrix(&benches, CONFIGS, move |b, config| match config {
        0 => run(b, &cfg, || baseline_with_lines(64)),
        1 => run(b, &cfg, || baseline_with_lines(32)),
        2 => run(b, &cfg, || baseline_with_lines(128)),
        3 => run(b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        }),
        _ => run(b, &cfg, || DistillCache::new(ldis_config_for_line(128))),
    });
    benches
        .iter()
        .zip(matrix)
        .map(|(b, cells)| {
            // The sweep produced exactly one cell per configuration above;
            // a missing cell would mean the matrix shape itself is broken.
            let mpki = |i: usize| cells.get(i).map_or(0.0, |c| c.mpki);
            let base = mpki(0);
            LineSizeRow {
                benchmark: b.name.to_owned(),
                base_64b: base,
                delta_32b: percent_reduction(base, mpki(1)),
                delta_128b: percent_reduction(base, mpki(2)),
                delta_ldis: percent_reduction(base, mpki(3)),
                delta_ldis_128b: percent_reduction(base, mpki(4)),
            }
        })
        .collect()
}

/// The golden snapshot: the full line-size sensitivity matrix (base MPKI
/// and all four deltas per benchmark) at the given configuration.
/// Compared against `tests/golden/linesize.json`.
pub fn snapshot(cfg: &RunConfig) -> Json {
    let rows = data(cfg).into_iter().map(|r| {
        Json::obj([
            ("benchmark", Json::str(r.benchmark)),
            ("base_64b_mpki", Json::num(r.base_64b)),
            ("delta_32b_pct", Json::num(r.delta_32b)),
            ("delta_128b_pct", Json::num(r.delta_128b)),
            ("delta_ldis_pct", Json::num(r.delta_ldis)),
            ("delta_ldis_128b_pct", Json::num(r.delta_ldis_128b)),
        ])
    });
    Json::obj([
        ("experiment", Json::str("linesize")),
        ("accesses", Json::uint(cfg.accesses)),
        ("seed", Json::uint(cfg.seed)),
        ("rows", Json::arr(rows)),
    ])
}

/// Builds an LDIS configuration for a non-default line size (used by the
/// extension study: distillation composes with any line size).
pub fn ldis_config_for_line(line_bytes: u32) -> DistillConfig {
    let geom = LineGeometry::new(line_bytes, line_bytes / 8);
    DistillConfig::new(1 << 20, 8, 2, geom)
        .with_policy(ThresholdPolicy::median())
        .with_reverter(ReverterConfig::default())
}

/// Renders the line-size report.
pub fn report(rows: &[LineSizeRow]) -> String {
    let mut t = Table::new(
        "Line-size sensitivity: % MPKI reduction vs. the 64B baseline (negative = worse)",
        &[
            "bench",
            "base-64B",
            "TRAD-32B",
            "TRAD-128B",
            "LDIS-64B",
            "LDIS-128B",
        ],
    );
    let mut worse_at_32 = 0;
    for r in rows {
        if r.delta_32b < 0.0 {
            worse_at_32 += 1;
        }
        t.row(vec![
            r.benchmark.clone(),
            fmt_f(r.base_64b, 2),
            fmt_pct(r.delta_32b),
            fmt_pct(r.delta_128b),
            fmt_pct(r.delta_ldis),
            fmt_pct(r.delta_ldis_128b),
        ]);
    }
    t.note(format!(
        "{worse_at_32}/{} benchmarks get worse at 32B (paper footnote 2: 'increases the cache misses for most of the benchmarks')",
        rows.len()
    ));
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    #[test]
    fn dense_benchmarks_suffer_at_32b() {
        // swim streams full lines: halving the line doubles its fetches.
        let b = spec2000::by_name("swim").unwrap();
        let cfg = RunConfig::quick().with_accesses(300_000);
        let b64 = run(&b, &cfg, || baseline_with_lines(64));
        let b32 = run(&b, &cfg, || baseline_with_lines(32));
        assert!(
            b32.mpki > b64.mpki * 1.5,
            "swim at 32B {} should be much worse than 64B {}",
            b32.mpki,
            b64.mpki
        );
    }

    #[test]
    fn ldis_beats_shrinking_the_line_on_sparse_chases() {
        // The naive fix for unused words — smaller lines — doesn't even
        // help health much: its 1–3-word clusters sit at arbitrary offsets
        // and often straddle 32B boundaries, doubling fetches. LDIS keeps
        // the 64B line and simply stops wasting space on the dead words.
        let b = spec2000::by_name("health").unwrap();
        let cfg = RunConfig::quick().with_accesses(400_000);
        let b64 = run(&b, &cfg, || baseline_with_lines(64));
        let b32 = run(&b, &cfg, || baseline_with_lines(32));
        let ldis = run(&b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        assert!(
            ldis.mpki < b64.mpki,
            "LDIS at 64B must beat the 64B baseline"
        );
        assert!(
            ldis.mpki < b32.mpki,
            "LDIS at 64B ({}) must beat the 32B baseline ({})",
            ldis.mpki,
            b32.mpki
        );
    }

    #[test]
    fn ldis_composes_with_other_line_sizes() {
        let cfg128 = ldis_config_for_line(128);
        assert_eq!(cfg128.geometry().line_bytes(), 128);
        assert_eq!(cfg128.geometry().words_per_line(), 8);
        // It must at least construct and run.
        let mut dc = DistillCache::new(cfg128);
        use ldis_cache::{L2Request, SecondLevel};
        use ldis_mem::{LineAddr, WordIndex};
        dc.access(L2Request::data(LineAddr::new(1), WordIndex::new(0), false));
        assert_eq!(dc.stats().accesses, 1);
    }

    #[test]
    fn report_counts_regressions() {
        let rows = vec![
            LineSizeRow {
                benchmark: "a".into(),
                base_64b: 1.0,
                delta_32b: -10.0,
                delta_128b: 5.0,
                delta_ldis: 20.0,
                delta_ldis_128b: 25.0,
            },
            LineSizeRow {
                benchmark: "b".into(),
                base_64b: 1.0,
                delta_32b: 10.0,
                delta_128b: 5.0,
                delta_ldis: 20.0,
                delta_ldis_128b: 25.0,
            },
        ];
        let s = report(&rows);
        assert!(s.contains("1/2 benchmarks"));
    }
}
