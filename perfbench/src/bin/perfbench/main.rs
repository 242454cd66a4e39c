//! `perfbench` — the appvsweb benchmark harness.
//!
//! ```text
//! perfbench run --workload NAME --seed N --seconds S --trace 0|1 [--git-rev REV] [--out FILE]
//! ```
//!
//! Workloads: `campaign_cold`, `campaign_warm`, `population`,
//! `serve_churn` (see `perfbench/README.md` for why each exists). The
//! last stdout line is the JSON result; `--out` also writes the full
//! record with its provenance stamp. The `child-*` subcommands are the
//! fresh processes the workloads spawn.

mod campaign;
mod population;
mod report;
mod serve;
mod trace;
mod util;

use appvsweb_json::Json;
use std::path::PathBuf;
use util::flag;

const WORKLOADS: &[&str] = &[
    "campaign_cold",
    "campaign_warm",
    "population",
    "serve_churn",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or(&[]).to_vec();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&rest),
        Some("child-campaign") => campaign::child(&rest),
        Some("child-identities") => campaign::child_identities(&rest),
        Some("child-population") => population::child(&rest),
        Some("child-serve") => serve::child(&rest),
        _ => {
            eprintln!(
                "usage: perfbench run --workload {} --seed N --seconds S --trace 0|1 \
                 [--git-rev REV] [--out FILE]",
                WORKLOADS.join("|")
            );
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> i32 {
    let Some(workload) = flag(args, "--workload").filter(|w| WORKLOADS.contains(w)) else {
        eprintln!("--workload must be one of {}", WORKLOADS.join(", "));
        return 2;
    };
    let (Some(seed), Some(seconds), Some(trace)) = (
        flag(args, "--seed").and_then(|v| v.parse::<u64>().ok()),
        flag(args, "--seconds").and_then(|v| v.parse::<f64>().ok()),
        flag(args, "--trace").and_then(|v| match v {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        eprintln!("--seed N, --seconds S and --trace 0|1 are required");
        return 2;
    };
    let results = PathBuf::from(flag(args, "--results").unwrap_or("perfbench/results"));
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("cannot create {}: {e}", results.display());
        return 1;
    }
    let spans = results.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let spans = spans.display().to_string();

    let outcome = match workload {
        "campaign_cold" => campaign::run(false, seed, seconds, trace, &spans),
        "campaign_warm" => campaign::run(true, seed, seconds, trace, &spans),
        "population" => population::run(seed, seconds, trace),
        _ => serve::run(
            seed,
            seconds,
            trace,
            &results.join(format!("serve-{}", std::process::id())),
        ),
    };

    let warmth = match workload {
        "campaign_warm" | "population" => "warm",
        _ => "cold",
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let stamp: Vec<(String, Json)> = vec![
        (
            "git_rev".to_string(),
            Json::Str(flag(args, "--git-rev").unwrap_or("unknown").to_string()),
        ),
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("seed".to_string(), Json::Uint(seed)),
        ("seconds".to_string(), Json::Float(seconds)),
        ("trace".to_string(), Json::Bool(trace)),
        ("nproc".to_string(), Json::Uint(nproc as u64)),
        ("workers".to_string(), Json::Uint(util::WORKERS as u64)),
        ("warmth".to_string(), Json::Str(warmth.to_string())),
        (
            "profile".to_string(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .to_string(),
            ),
        ),
        ("obs".to_string(), Json::Bool(appvsweb_obs::ENABLED)),
    ];
    if let Some(path) = flag(args, "--out") {
        if let Err(e) = std::fs::write(path, outcome.record(&stamp).to_pretty()) {
            eprintln!("cannot write {path}: {e}");
        }
    }
    outcome.print(&stamp, trace);
    0
}
