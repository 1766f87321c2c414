//! `ldis-lint`: static analysis for the line-distillation workspace.
//!
//! The golden-snapshot harness catches a determinism break only *after*
//! it corrupts a snapshot. This crate machine-checks the invariants the
//! harness depends on, before they break:
//!
//! * **D1 — determinism**: no wall clocks, ambient RNGs or environment
//!   reads inside the simulator crates; all randomness flows through
//!   `SimRng`/`SimRng::derive`.
//! * **D2 — ordered iteration**: no `HashMap`/`HashSet` anywhere a
//!   report, snapshot or test expectation could observe iteration order;
//!   `BTreeMap`/`BTreeSet` or an explicit `// ldis: allow(D2, "why")`.
//! * **P1 — panic safety**: no `unwrap`/`expect`/`panic!`-family calls in
//!   simulator core code (test modules and the experiments binaries are
//!   exempt); failures route through `LdisError` or checked accessors.
//!   **P1X** (warn tier) additionally tracks raw `[...]` indexing.
//! * **C1 — config invariants**: literal cache configurations in
//!   examples and the golden snapshots must describe possible
//!   geometries (power-of-two sets and word counts, a LOC/WOC split that
//!   partitions the associativity, PSEL thresholds on the paper's 64/192
//!   hysteresis rails).
//!
//! Existing debt lives in the committed `lint.toml` baseline with a
//! justification per entry; `--deny` (CI mode) fails on any new finding
//! *and* on stale baseline entries, so the debt ledger can only shrink.
//!
//! There is deliberately no dependency on `syn` or any other registry
//! crate: the build environment is fully offline, so the crate carries
//! its own Rust lexer, TOML-subset reader and JSON reader.

pub mod absint;
pub mod analyze;
pub mod cfg;
pub mod dataflow;
pub mod json;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod report;
pub mod rules;
pub mod toml;

use report::{Baseline, Finding, Outcome};
use rules::{FileContext, Rule};
use std::path::{Path, PathBuf};

/// Crates whose sources model the simulator itself: full determinism and
/// panic-safety rules apply.
pub const SIM_CRATES: &[&str] = &[
    "mem",
    "cache",
    "core",
    "compress",
    "sfp",
    "timing",
    "workloads",
    "mrc",
];

/// The rules that apply to one workspace-relative path, or `None` when
/// the file is out of scope.
///
/// Scope map:
///
/// | path | rules |
/// |---|---|
/// | `crates/<sim>/src/**` | D1 D2 P1 P1X |
/// | `crates/experiments/src/exec/**` | D1 D2 P1 P1X (crash-safe executor: wall-clock reads must be waived) |
/// | `crates/experiments/src/**` (not `bin/`) | D2 P1 P1X |
/// | `crates/experiments/src/bin/**` | D2 |
/// | `crates/lint/src/**` | D2 |
/// | `crates/*/tests/**`, `tests/*.rs` | D2 |
/// | `examples/*.rs` | D2 C1 |
/// | `tests/golden/*.json` | C1 (snapshot checks) |
///
/// `crates/lint/tests/fixtures/**` holds deliberate violations and is
/// always skipped.
pub fn rules_for(rel: &str) -> Option<Vec<Rule>> {
    if rel.starts_with("crates/lint/tests/fixtures/") {
        return None;
    }
    if rel.ends_with(".json") {
        return rel.starts_with("tests/golden/").then(|| vec![Rule::C1]);
    }
    if !rel.ends_with(".rs") {
        return None;
    }
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (krate, sub) = rest.split_once('/')?;
        if SIM_CRATES.contains(&krate) && sub.starts_with("src/") {
            return Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X]);
        }
        if krate == "experiments" && sub.starts_with("src/") {
            return Some(if sub.starts_with("src/bin/") {
                vec![Rule::D2]
            } else if sub.starts_with("src/exec") {
                // The crash-safe executor sits between the harness and
                // the simulator: deterministic-clock discipline applies
                // (its watchdog wall-clock reads carry inline waivers).
                vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X]
            } else {
                vec![Rule::D2, Rule::P1, Rule::P1X]
            });
        }
        if krate == "lint" && sub.starts_with("src/") {
            return Some(vec![Rule::D2]);
        }
        if sub.starts_with("tests/") {
            return Some(vec![Rule::D2]);
        }
        return None;
    }
    if rel.starts_with("examples/") {
        return Some(vec![Rule::D2, Rule::C1]);
    }
    if rel.starts_with("tests/") {
        return Some(vec![Rule::D2]);
    }
    None
}

/// Recursively collects lintable files under `root`, as sorted
/// workspace-relative paths.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name.starts_with('.') || name == "target" {
                    continue;
                }
                stack.push(path);
                continue;
            }
            if !(name.ends_with(".rs") || name.ends_with(".json")) {
                continue;
            }
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if rules_for(&rel).is_some() {
                files.push(rel);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints one file's contents under the rules its path selects.
pub fn scan_file(rel: &str, src: &str) -> Vec<Finding> {
    let Some(rules) = rules_for(rel) else {
        return Vec::new();
    };
    if rel.ends_with(".json") {
        let stem = rel
            .rsplit('/')
            .next()
            .and_then(|n| n.strip_suffix(".json"))
            .unwrap_or(rel);
        return rules::scan_golden(rel, stem, src);
    }
    let ctx = FileContext::new(rel, src);
    rules::scan_rust(&ctx, &rules)
}

/// Lints the whole workspace rooted at `root` and classifies the
/// findings against `baseline`. Runs the per-file token rules first,
/// then the interprocedural passes (P2/U1/D3) over the call graph of
/// every in-scope `.rs` file.
pub fn scan_workspace(root: &Path, baseline: &Baseline) -> std::io::Result<Outcome> {
    let mut findings = Vec::new();
    let mut sources: Vec<(String, String)> = Vec::new();
    for rel in collect_files(root)? {
        let src = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(scan_file(&rel, &src));
        if rel.ends_with(".rs") {
            sources.push((rel, src));
        }
    }
    let cfg = analyze::AnalysisConfig::from_baseline(baseline);
    findings.extend(analyze::scan_model(&sources, &cfg));
    Ok(report::classify(findings, baseline))
}

/// Loads `lint.toml` from `path`; a missing file is an empty baseline.
pub fn load_baseline(path: &Path) -> Result<Baseline, String> {
    match std::fs::read_to_string(path) {
        Ok(src) => Baseline::parse(&src).map_err(|e| format!("{}: {e}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Baseline::default()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Computes a fresh baseline from an outcome: one entry per (rule, path)
/// pair of deny-tier findings, preserving justifications from `previous`
/// where a pair already had one.
pub fn regenerate_baseline(outcome: &Outcome, previous: &Baseline) -> Vec<report::AllowEntry> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in outcome.errors.iter().chain(&outcome.baselined) {
        *counts
            .entry((f.rule.to_string(), f.path.clone()))
            .or_insert(0) += 1;
    }
    let mut old: BTreeMap<(String, String), String> = BTreeMap::new();
    for a in &previous.allows {
        old.insert((a.rule.clone(), a.path.clone()), a.justification.clone());
    }
    counts
        .into_iter()
        .map(|((rule, path), count)| {
            let justification = old
                .get(&(rule.clone(), path.clone()))
                .cloned()
                .unwrap_or_else(|| "TODO: justify this debt or fix it".to_string());
            report::AllowEntry {
                rule,
                path,
                count,
                justification,
            }
        })
        .collect()
}

/// Best-effort workspace root discovery for `cargo run -p ldis-lint`:
/// walks up from `start` to the first directory holding a `Cargo.toml`
/// with a `[workspace]` table.
pub fn find_root(start: &Path) -> PathBuf {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return start.to_path_buf();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_map_matches_the_design() {
        assert_eq!(
            rules_for("crates/mem/src/rng.rs"),
            Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X])
        );
        assert_eq!(
            rules_for("crates/mrc/src/profiler.rs"),
            Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X])
        );
        // The SHARDS sampler and the multi-tenant stream generator are
        // simulator sources: full determinism + panic-safety tier.
        assert_eq!(
            rules_for("crates/mrc/src/shards.rs"),
            Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X])
        );
        assert_eq!(
            rules_for("crates/workloads/src/tenants.rs"),
            Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X])
        );
        assert_eq!(
            rules_for("crates/experiments/src/advisor.rs"),
            Some(vec![Rule::D2, Rule::P1, Rule::P1X])
        );
        assert_eq!(
            rules_for("crates/mrc/tests/shards_properties.rs"),
            Some(vec![Rule::D2])
        );
        assert_eq!(
            rules_for("tests/mrc_sampled_oracle.rs"),
            Some(vec![Rule::D2])
        );
        assert_eq!(
            rules_for("examples/sampled_mrc.rs"),
            Some(vec![Rule::D2, Rule::C1])
        );
        assert_eq!(rules_for("tests/golden/advisor.json"), Some(vec![Rule::C1]));
        assert_eq!(
            rules_for("crates/experiments/src/runner.rs"),
            Some(vec![Rule::D2, Rule::P1, Rule::P1X])
        );
        // Hot-path helper modules from the arena/bitops overhaul are
        // simulator sources under the full determinism + panic-safety tier;
        // their differential suite is a root integration test.
        assert_eq!(
            rules_for("crates/mem/src/bitops.rs"),
            Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X])
        );
        assert_eq!(
            rules_for("crates/cache/src/arena.rs"),
            Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X])
        );
        assert_eq!(
            rules_for("tests/hotpath_equivalence.rs"),
            Some(vec![Rule::D2])
        );
        assert_eq!(
            rules_for("crates/experiments/src/exec/mod.rs"),
            Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X])
        );
        assert_eq!(
            rules_for("crates/experiments/src/exec/journal.rs"),
            Some(vec![Rule::D1, Rule::D2, Rule::P1, Rule::P1X])
        );
        assert_eq!(
            rules_for("crates/experiments/src/bin/main.rs"),
            Some(vec![Rule::D2])
        );
        assert_eq!(rules_for("crates/lint/src/rules.rs"), Some(vec![Rule::D2]));
        assert_eq!(rules_for("crates/cache/tests/lru.rs"), Some(vec![Rule::D2]));
        assert_eq!(rules_for("tests/end_to_end.rs"), Some(vec![Rule::D2]));
        assert_eq!(
            rules_for("examples/quickstart.rs"),
            Some(vec![Rule::D2, Rule::C1])
        );
        assert_eq!(
            rules_for("tests/golden/motivation.json"),
            Some(vec![Rule::C1])
        );
        assert_eq!(rules_for("crates/lint/tests/fixtures/fail/p1.rs"), None);
        assert_eq!(rules_for("README.md"), None);
        assert_eq!(rules_for("results.json"), None);
    }

    #[test]
    fn scan_file_dispatches_json_vs_rust() {
        let json = scan_file("tests/golden/x.json", r#"{"experiment": "y"}"#);
        assert_eq!(json.len(), 1, "experiment/stem mismatch");
        let rust = scan_file(
            "crates/mem/src/fake.rs",
            "fn f(v: Option<u8>) -> u8 { v.unwrap() }",
        );
        assert_eq!(rust.len(), 1);
        assert_eq!(rust[0].rule, "P1");
        assert!(scan_file("out_of_scope.rs", "fn f() { x.unwrap(); }").is_empty());
    }
}
