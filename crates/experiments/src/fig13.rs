//! Figure 13: spatial footprint prediction (SFP) vs. line distillation.

use crate::report::{fmt_f, fmt_pct, Table};
use crate::{for_each_benchmark, run, run_baseline, RunConfig};
use ldis_distill::{DistillCache, DistillConfig};
use ldis_mem::stats::percent_reduction;
use ldis_sfp::{SfpCache, SfpConfig};
use ldis_workloads::memory_intensive;

/// MPKI reductions over the baseline for SFP (two predictor sizes) and
/// LDIS.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig13Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Baseline MPKI.
    pub base: f64,
    /// SFP with a 16 k-entry (64 kB) predictor: reduction (%).
    pub sfp_16k: f64,
    /// SFP with a 64 k-entry (256 kB) predictor: reduction (%).
    pub sfp_64k: f64,
    /// LDIS-MT-RC: reduction (%).
    pub ldis: f64,
}

/// Runs the Figure 13 matrix.
pub fn data(cfg: &RunConfig) -> Vec<Fig13Row> {
    let benches = memory_intensive();
    let cfg = *cfg;
    for_each_benchmark(&benches, move |b| {
        let base = run_baseline(b, &cfg, 1 << 20);
        let s16 = run(b, &cfg, || SfpCache::new(SfpConfig::sfp_16k()));
        let s64 = run(b, &cfg, || SfpCache::new(SfpConfig::sfp_64k()));
        let ldis = run(b, &cfg, || {
            DistillCache::new(DistillConfig::hpca2007_default())
        });
        let red = |m: f64| percent_reduction(base.mpki, m);
        Fig13Row {
            benchmark: b.name.to_owned(),
            base: base.mpki,
            sfp_16k: red(s16.mpki),
            sfp_64k: red(s64.mpki),
            ldis: red(ldis.mpki),
        }
    })
}

/// Mean-MPKI reductions for the three configurations.
pub fn mean_reductions(rows: &[Fig13Row]) -> (f64, f64, f64) {
    let n = rows.len() as f64;
    let base: f64 = rows.iter().map(|r| r.base).sum::<f64>() / n;
    let mean_of = |f: fn(&Fig13Row) -> f64| {
        let reduced: f64 = rows
            .iter()
            .map(|r| r.base * (1.0 - f(r) / 100.0))
            .sum::<f64>()
            / n;
        percent_reduction(base, reduced)
    };
    (
        mean_of(|r| r.sfp_16k),
        mean_of(|r| r.sfp_64k),
        mean_of(|r| r.ldis),
    )
}

/// Renders the Figure 13 report.
pub fn report(rows: &[Fig13Row]) -> String {
    let mut t = Table::new(
        "Figure 13: % MPKI reduction — SFP (install-time prediction) vs LDIS (eviction-time filtering)",
        &["bench", "base-mpki", "SFP-16k", "SFP-64k", "LDIS"],
    );
    for r in rows {
        t.row(vec![
            r.benchmark.clone(),
            fmt_f(r.base, 2),
            fmt_pct(r.sfp_16k),
            fmt_pct(r.sfp_64k),
            fmt_pct(r.ldis),
        ]);
    }
    let (s16, s64, ldis) = mean_reductions(rows);
    t.row(vec![
        "avg".into(),
        String::new(),
        fmt_pct(s16),
        fmt_pct(s64),
        fmt_pct(ldis),
    ]);
    t.note("paper: SFP reduces misses but significantly less than LDIS; mispredictions turn would-be hits into misses");
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldis_workloads::spec2000;

    #[test]
    fn ldis_beats_sfp_on_average() {
        let benches: Vec<_> = memory_intensive()
            .into_iter()
            .filter(|b| matches!(b.name, "health" | "twolf" | "ammp"))
            .collect();
        let cfg = RunConfig::quick().with_accesses(400_000);
        let rows = for_each_benchmark(&benches, move |b| {
            let base = run_baseline(b, &cfg, 1 << 20);
            let sfp = run(b, &cfg, || SfpCache::new(SfpConfig::sfp_16k()));
            let ldis = run(b, &cfg, || {
                DistillCache::new(DistillConfig::hpca2007_default())
            });
            let red = |m: f64| percent_reduction(base.mpki, m);
            Fig13Row {
                benchmark: b.name.to_owned(),
                base: base.mpki,
                sfp_16k: red(sfp.mpki),
                sfp_64k: f64::NAN,
                ldis: red(ldis.mpki),
            }
        });
        let avg_sfp: f64 = rows.iter().map(|r| r.sfp_16k).sum::<f64>() / rows.len() as f64;
        let avg_ldis: f64 = rows.iter().map(|r| r.ldis).sum::<f64>() / rows.len() as f64;
        assert!(
            avg_ldis > avg_sfp,
            "LDIS {avg_ldis}% must beat SFP {avg_sfp}% on sparse workloads"
        );
    }

    #[test]
    fn sfp_still_reduces_misses_somewhere() {
        let b = spec2000::by_name("health").unwrap();
        let cfg = RunConfig::quick().with_accesses(400_000);
        let base = run_baseline(&b, &cfg, 1 << 20);
        let sfp = run(&b, &cfg, || SfpCache::new(SfpConfig::sfp_64k()));
        assert!(
            sfp.mpki < base.mpki,
            "SFP should still beat the baseline on health: {} vs {}",
            sfp.mpki,
            base.mpki
        );
    }

    #[test]
    fn report_renders() {
        let rows = vec![Fig13Row {
            benchmark: "x".into(),
            base: 5.0,
            sfp_16k: 10.0,
            sfp_64k: 12.0,
            ldis: 30.0,
        }];
        assert!(report(&rows).contains("SFP-64k"));
    }
}
