//! Ablations of the design choices DESIGN.md calls out: WOC way count,
//! distillation threshold policy, WOC replacement selection, reverter
//! leader-set count and word size.

use crate::report::{fmt_pct, Table};
use crate::{for_each_benchmark, run, run_baseline, RunConfig};
use ldis_distill::{DistillCache, DistillConfig, ReverterConfig, ThresholdPolicy, WocReplacement};
use ldis_mem::stats::percent_reduction;
use ldis_workloads::{memory_intensive, Benchmark};

/// A generic ablation result: mean-MPKI reduction per variant.
#[derive(Clone, Debug)]
pub struct Ablation {
    /// Ablation name.
    pub name: String,
    /// `(variant label, mean-MPKI reduction %)` pairs.
    pub variants: Vec<(String, f64)>,
}

/// A representative benchmark subset for ablations (covers sparse chase,
/// mixed, dense and the pathology).
fn subset() -> Vec<Benchmark> {
    memory_intensive()
        .into_iter()
        .filter(|b| {
            matches!(
                b.name,
                "health" | "twolf" | "galgel" | "swim" | "ammp" | "art"
            )
        })
        .collect()
}

fn mean_reduction(cfg: &RunConfig, variant: DistillConfig) -> f64 {
    let benches = subset();
    let cfg = *cfg;
    let pairs = for_each_benchmark(&benches, move |b| {
        let base = run_baseline(b, &cfg, 1 << 20);
        let d = run(b, &cfg, || DistillCache::new(variant));
        (base.mpki, d.mpki)
    });
    let base: f64 = pairs.iter().map(|p| p.0).sum::<f64>();
    let dist: f64 = pairs.iter().map(|p| p.1).sum::<f64>();
    percent_reduction(base, dist)
}

/// WOC way count: 1, 2 (paper) or 3 of 8 ways.
pub fn woc_ways(cfg: &RunConfig) -> Ablation {
    let variants = [1u32, 2, 3]
        .iter()
        .map(|&w| {
            let red = mean_reduction(cfg, DistillConfig::hpca2007_default().with_woc_ways(w));
            (format!("{w} WOC ways"), red)
        })
        .collect();
    Ablation {
        name: "WOC way count".into(),
        variants,
    }
}

/// Threshold policy: none (LDIS-Base), fixed K in {2, 4, 6}, median.
pub fn threshold_policy(cfg: &RunConfig) -> Ablation {
    let mut variants = Vec::new();
    let with_policy = |p: ThresholdPolicy| DistillConfig::hpca2007_default().with_policy(p);
    variants.push((
        "all (no threshold)".to_owned(),
        mean_reduction(cfg, with_policy(ThresholdPolicy::All)),
    ));
    for k in [2u8, 4, 6] {
        variants.push((
            format!("fixed K={k}"),
            mean_reduction(cfg, with_policy(ThresholdPolicy::Fixed(k))),
        ));
    }
    variants.push((
        "median".to_owned(),
        mean_reduction(cfg, with_policy(ThresholdPolicy::median())),
    ));
    Ablation {
        name: "distillation threshold policy".into(),
        variants,
    }
}

/// WOC replacement candidate selection: random (paper) vs. round-robin.
pub fn woc_replacement(cfg: &RunConfig) -> Ablation {
    let variants = [
        ("random", WocReplacement::Random),
        ("round-robin", WocReplacement::RoundRobin),
    ]
    .iter()
    .map(|(label, policy)| {
        let red = mean_reduction(
            cfg,
            DistillConfig::hpca2007_default().with_woc_replacement(*policy),
        );
        ((*label).to_owned(), red)
    })
    .collect();
    Ablation {
        name: "WOC replacement selection".into(),
        variants,
    }
}

/// Reverter leader-set count: 8, 32 (paper), 128.
pub fn leader_sets(cfg: &RunConfig) -> Ablation {
    let variants = [8u32, 32, 128]
        .iter()
        .map(|&n| {
            let red = mean_reduction(
                cfg,
                DistillConfig::ldis_mt().with_reverter(ReverterConfig {
                    leader_sets: n,
                    ..ReverterConfig::default()
                }),
            );
            (format!("{n} leader sets"), red)
        })
        .collect();
    Ablation {
        name: "reverter leader sets".into(),
        variants,
    }
}

/// Renders an ablation as a table.
pub fn report(ablation: &Ablation) -> String {
    let mut t = Table::new(
        format!("Ablation: {}", ablation.name),
        &["variant", "mean-MPKI reduction"],
    );
    for (label, red) in &ablation.variants {
        t.row(vec![label.clone(), fmt_pct(*red)]);
    }
    t.render()
}

/// Runs every ablation and concatenates the reports.
pub fn all(cfg: &RunConfig) -> String {
    [
        woc_ways(cfg),
        threshold_policy(cfg),
        woc_replacement(cfg),
        leader_sets(cfg),
    ]
    .iter()
    .map(report)
    .collect::<Vec<_>>()
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_and_round_robin_are_similar() {
        // The paper's footnote: random selection has similar performance
        // to ordered selection.
        let cfg = RunConfig::quick().with_accesses(250_000);
        let a = woc_replacement(&cfg);
        let random = a.variants[0].1;
        let rr = a.variants[1].1;
        assert!(
            (random - rr).abs() < 10.0,
            "random {random}% vs round-robin {rr}% should be similar"
        );
    }

    #[test]
    fn two_woc_ways_is_a_sweet_spot_over_one() {
        let cfg = RunConfig::quick().with_accesses(250_000);
        let a = woc_ways(&cfg);
        let one = a.variants[0].1;
        let two = a.variants[1].1;
        assert!(
            two > one - 3.0,
            "2 WOC ways ({two}%) should not lose to 1 ({one}%)"
        );
    }

    #[test]
    fn report_renders() {
        let a = Ablation {
            name: "demo".into(),
            variants: vec![("v1".into(), 10.0)],
        };
        assert!(report(&a).contains("demo"));
    }
}
