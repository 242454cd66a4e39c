//! Benchmarks the `appvsweb-lint` analyzer over the real workspace,
//! phase by phase: lexing alone, the per-file parse (item tables), the
//! call-graph build, and the full single-worker pipeline. The
//! artifact's `meta` block records scan size, derived throughput, and
//! the per-rule finding counts — open *and* suppressed-by-allow — so
//! the lint's cost and the workspace's debt are both tracked per PR.

use appvsweb_bench::repo_root;
use appvsweb_json::Json;
use appvsweb_lint::{analyze_files, analyze_one, collect_workspace, lex};
use appvsweb_testkit::BenchRunner;
use std::collections::BTreeMap;

fn main() {
    let root = repo_root();
    let files = collect_workspace(&root).expect("workspace readable");
    let report = analyze_files(&files);
    println!(
        "lint: {} files, {} tokens, {} findings, {} labels",
        report.files,
        report.tokens,
        report.findings.len(),
        report.labels.len()
    );

    // Shared inputs for the phase benches.
    let analyses: Vec<_> = files.iter().map(analyze_one).collect();
    let tables: Vec<_> = analyses.iter().map(|a| a.table.clone()).collect();

    let mut runner = BenchRunner::new("lint").with_samples(2, 10);
    runner.bench("lex_workspace", || {
        files.iter().map(|f| lex(&f.text).len()).sum::<usize>()
    });
    runner.bench("parse_workspace", || {
        files
            .iter()
            .map(|f| analyze_one(f).table.fns.len())
            .sum::<usize>()
    });
    runner.bench("callgraph", || {
        appvsweb_lint::callgraph::CallGraph::build(&tables)
            .fns
            .len()
    });
    runner.bench("analyze_workspace", || analyze_files(&files));

    runner.meta("files_scanned", report.files);
    runner.meta("tokens", report.tokens);
    runner.meta("labels", report.labels.len() as u64);
    runner.meta("allows", report.allows);
    let analyze_ns = runner
        .results()
        .iter()
        .find(|r| r.name == "analyze_workspace")
        .map(|r| r.median_ns)
        .unwrap_or(f64::NAN);
    runner.meta(
        "tokens_per_sec",
        (report.tokens as f64 / (analyze_ns / 1e9)).round(),
    );

    // Per-rule debt: open findings and allow-suppressed sites, in one
    // object so a PR that trades one for the other is visible.
    let mut by_rule: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (rule, n) in report.counts_by_rule() {
        by_rule.entry(rule).or_default().0 = n;
    }
    for rc in &report.suppressed {
        by_rule.entry(rc.rule.clone()).or_default().1 = rc.count;
    }
    runner.meta(
        "findings_by_rule",
        Json::Obj(
            by_rule
                .into_iter()
                .map(|(rule, (open, suppressed))| {
                    (
                        rule,
                        Json::Obj(vec![
                            ("open".to_string(), Json::Uint(open)),
                            ("suppressed".to_string(), Json::Uint(suppressed)),
                        ]),
                    )
                })
                .collect(),
        ),
    );

    runner
        .write_json(&repo_root())
        .expect("write bench artifact");
}
