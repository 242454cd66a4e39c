//! Command-line front end, shared by the standalone `appvsweb-lint`
//! binary and the `repro lint` subcommand.

use crate::baseline::Baseline;
use crate::engine::{analyze_files_with, collect_workspace, Report};
use appvsweb_json::encode_pretty;
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: appvsweb-lint [--root DIR] [--check] [--json] [--fix-baseline] \
     [--labels] [--workers N]\n\
  (default)       analyze the workspace and list every finding\n\
  --check         diff findings against lint.baseline.json (schema v2); exit 1 on new ones\n\
  --fix-baseline  rewrite lint.baseline.json to accept the current findings\n\
  --json          print the full report as canonical JSON (always exits 0)\n\
  --labels        print only the D3 fork-label table\n\
  --workers N     analysis threads (default: available cores, at most 16); any N gives the same output\n\
  --root DIR      workspace root (default: discovered from the cwd)";

/// The committed baseline file name, at the workspace root.
pub const BASELINE_FILE: &str = "lint.baseline.json";

struct Options {
    root: Option<PathBuf>,
    check: bool,
    json: bool,
    fix_baseline: bool,
    labels_only: bool,
    workers: usize,
}

/// Run the CLI with pre-split arguments; returns the process exit code
/// (0 clean, 1 findings/new findings, 2 usage or I/O error).
pub fn run(args: &[String]) -> i32 {
    let mut opts = Options {
        root: None,
        check: false,
        json: false,
        fix_baseline: false,
        labels_only: false,
        workers: appvsweb_core::exec::available_workers(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => opts.root = it.next().map(PathBuf::from),
            "--check" => opts.check = true,
            "--json" => opts.json = true,
            "--fix-baseline" => opts.fix_baseline = true,
            "--labels" => opts.labels_only = true,
            "--workers" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.workers = n,
                _ => {
                    eprintln!("appvsweb-lint: --workers needs a positive integer\n{USAGE}");
                    return 2;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            other => {
                eprintln!("appvsweb-lint: unknown argument {other:?}\n{USAGE}");
                return 2;
            }
        }
    }

    let root = match opts.root.clone().or_else(discover_root) {
        Some(root) => root,
        None => {
            eprintln!(
                "appvsweb-lint: could not find the workspace root (no Cargo.toml + \
                 crates/ above the cwd); pass --root"
            );
            return 2;
        }
    };

    let files = match collect_workspace(&root) {
        Ok(files) => files,
        Err(err) => {
            eprintln!(
                "appvsweb-lint: cannot read workspace at {}: {err}",
                root.display()
            );
            return 2;
        }
    };
    let report = analyze_files_with(&files, opts.workers);

    if opts.json {
        // Machine-readable mode: the canonical report (findings sorted
        // by path, line, rule), documented in DESIGN §10. Always exits
        // 0 so pipelines distinguish "ran and reported" from crashes.
        println!("{}", encode_pretty(&report));
        return 0;
    }
    if opts.labels_only {
        print_labels(&report);
        return 0;
    }
    if opts.fix_baseline {
        let baseline = Baseline::from_report(&report);
        let path = root.join(BASELINE_FILE);
        if let Err(err) = std::fs::write(&path, baseline.to_json_text()) {
            eprintln!("appvsweb-lint: cannot write {}: {err}", path.display());
            return 2;
        }
        println!(
            "baseline rewritten: {} accepted finding(s) -> {}",
            baseline.findings.len(),
            path.display()
        );
        return 0;
    }

    println!(
        "appvsweb-lint: {} files, {} tokens, {} allow annotation(s)",
        report.files, report.tokens, report.allows
    );
    if !report.suppressed.is_empty() {
        let parts: Vec<String> = report
            .suppressed
            .iter()
            .map(|rc| format!("{} {}", rc.rule, rc.count))
            .collect();
        println!("suppressed by allow: {}", parts.join(", "));
    }
    if opts.check {
        return check_against_baseline(&root, &report);
    }

    print_findings(&report.findings, "findings");
    print_labels(&report);
    i32::from(!report.findings.is_empty())
}

fn check_against_baseline(root: &Path, report: &Report) -> i32 {
    let path = root.join(BASELINE_FILE);
    let baseline = match std::fs::read_to_string(&path) {
        Ok(text) => match Baseline::from_json_text(&text) {
            Ok(baseline) => baseline,
            Err(err) => {
                eprintln!("appvsweb-lint: bad baseline {}: {err:?}", path.display());
                return 2;
            }
        },
        Err(_) => Baseline::default(), // no baseline file = empty baseline
    };
    let diff = baseline.diff(report);
    if !diff.stale.is_empty() {
        println!(
            "note: {} stale baseline entr{} (fixed or moved); run --fix-baseline to drop",
            diff.stale.len(),
            if diff.stale.len() == 1 { "y" } else { "ies" }
        );
    }
    if diff.new.is_empty() {
        println!(
            "check passed: no findings outside the baseline ({} baselined)",
            baseline.findings.len()
        );
        0
    } else {
        print_findings(&diff.new, "NEW findings (not in baseline)");
        println!("fix these, add a `// lint:allow(RULE) reason`, or run --fix-baseline");
        1
    }
}

fn print_findings(findings: &[crate::engine::Finding], heading: &str) {
    if findings.is_empty() {
        println!("{heading}: none");
        return;
    }
    println!("{heading}: {}", findings.len());
    for f in findings {
        println!("  [{}] {}:{} — {}", f.rule, f.path, f.line, f.message);
    }
}

fn print_labels(report: &Report) {
    println!("fork-label table ({} entr{}):", report.labels.len(), {
        if report.labels.len() == 1 {
            "y"
        } else {
            "ies"
        }
    });
    for site in &report.labels {
        println!("  {:<24} {}:{}", site.label, site.path, site.line);
    }
}

/// Walk up from the cwd to the first directory that looks like the
/// workspace root (has both `Cargo.toml` and `crates/`).
fn discover_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
