//! The `repro population` subcommand: population-scale campaigns.
//!
//! * `repro population` measures the base study, scales it to the
//!   configured user count, and prints the population renderings of
//!   Tables 3–5 plus the Figure 2–7 CDF summaries.
//! * `repro population --smoke` is the CI gate: a 1k-user campaign on
//!   the quick study, asserting the determinism contract end to end —
//!   1 and 2 workers byte-identical, and shard partitioning invisible
//!   to the aggregate (the merge law through the real ingest path).
//!   Exits non-zero on any violation.

use appvsweb_analysis::population::render_population_report;
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::SimDuration;
use appvsweb_population::{run_campaign_on, CampaignConfig};

struct Args {
    cfg: CampaignConfig,
    minutes: u64,
    smoke: bool,
    json: Option<String>,
}

/// Parse the value of a numeric flag: a decimal integer that fits `T`.
/// Anything else (a missing value, `1e6`, `-3`, a count past `T`'s
/// range) is a usage error, never a silent default or a truncation.
fn number<T: TryFrom<u64>>(flag: &str, value: Option<&String>) -> Result<T, i32> {
    let parsed = value.and_then(|v| v.parse::<u64>().ok());
    match parsed.and_then(|n| T::try_from(n).ok()) {
        Some(n) => Ok(n),
        None => {
            eprintln!(
                "repro population: {flag} needs an integer in range, got {}",
                value.map_or("nothing".to_string(), |v| format!("{v:?}"))
            );
            Err(2)
        }
    }
}

fn parse_args(args: &[String]) -> Result<Args, i32> {
    let mut parsed = Args {
        cfg: CampaignConfig::default(),
        minutes: 4,
        smoke: false,
        json: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--users" => parsed.cfg.users = number(arg, it.next())?,
            "--shards" => parsed.cfg.shards = number(arg, it.next())?,
            "--workers" => parsed.cfg.workers = number(arg, it.next())?,
            "--seed" => parsed.cfg.seed = number(arg, it.next())?,
            "--minutes" => parsed.minutes = number(arg, it.next())?,
            "--smoke" => parsed.smoke = true,
            "--json" => match it.next() {
                Some(path) => parsed.json = Some(path.clone()),
                None => {
                    eprintln!("repro population: --json needs a file path");
                    return Err(2);
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro population [--users N] [--shards N] [--workers N] \
                     [--seed N] [--minutes N] [--smoke] [--json FILE]"
                );
                return Err(0);
            }
            other => {
                eprintln!("unknown population argument: {other}");
                return Err(2);
            }
        }
    }
    Ok(parsed)
}

/// Entry point for `repro population`. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(code) => return code,
    };
    if args.smoke {
        return smoke();
    }
    let study_cfg = StudyConfig {
        duration: SimDuration::from_mins(args.minutes),
        ..StudyConfig::default()
    };
    eprintln!(
        "measuring the base study ({} min sessions), then scaling to {} users ...",
        args.minutes, args.cfg.users
    );
    let study = run_study(&study_cfg);
    let report = run_campaign_on(&study, &args.cfg);
    println!("{}", render_population_report(&report));
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, appvsweb_json::encode_pretty(&report)) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
        eprintln!("population report written to {path}");
    }
    0
}

/// The CI smoke gate: a 1k-user campaign on the quick study with the
/// determinism contract asserted end to end.
fn smoke() -> i32 {
    let study = run_study(&crate::quick_config());
    let base = CampaignConfig {
        users: 1_000,
        shards: 16,
        workers: 1,
        seed: 2016,
    };
    let one = run_campaign_on(&study, &base);
    let mut failures = 0usize;
    let mut gate = |name: &str, ok: bool| {
        eprintln!("  [{}] {name}", if ok { " ok " } else { "FAIL" });
        if !ok {
            failures += 1;
        }
    };

    let two = run_campaign_on(
        &study,
        &CampaignConfig {
            workers: 2,
            ..base.clone()
        },
    );
    gate(
        "1 and 2 workers byte-identical",
        appvsweb_json::encode(&one) == appvsweb_json::encode(&two),
    );

    let single_shard = run_campaign_on(
        &study,
        &CampaignConfig {
            shards: 1,
            ..base.clone()
        },
    );
    gate(
        "shard partitioning invisible to the aggregate",
        appvsweb_json::encode(&one.aggregate) == appvsweb_json::encode(&single_shard.aggregate),
    );
    gate(
        "top-k summaries stayed in the exact regime",
        one.aggregate.is_exact(),
    );
    gate("every user accounted", one.aggregate.users == base.users);
    gate("constant-memory witness present", one.peak_state_bytes > 0);

    if failures > 0 {
        eprintln!("population --smoke: FAIL ({failures} gates)");
        1
    } else {
        eprintln!(
            "population --smoke: determinism contract holds ({} users, {} sessions)",
            one.aggregate.users, one.aggregate.sessions
        );
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, i32> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn numeric_flags_parse() {
        let Ok(args) = parse(&[
            "--users",
            "1000000",
            "--shards",
            "4294967295",
            "--workers",
            "3",
            "--seed",
            "7",
            "--minutes",
            "1",
        ]) else {
            panic!("valid flags must parse");
        };
        assert_eq!(args.cfg.users, 1_000_000);
        assert_eq!(args.cfg.shards, u32::MAX);
        assert_eq!(args.cfg.workers, 3);
        assert_eq!(args.cfg.seed, 7);
        assert_eq!(args.minutes, 1);
    }

    #[test]
    fn missing_or_unparsable_values_are_usage_errors() {
        for bad in [
            &["--users", "1e6"][..],
            &["--users", "-5"],
            &["--users"],
            &["--seed", "x"],
            &["--minutes", "1.5"],
            &["--workers", ""],
            &["--json"],
        ] {
            assert_eq!(parse(bad).err(), Some(2), "{bad:?}");
        }
    }

    #[test]
    fn shard_counts_past_u32_are_rejected_not_truncated() {
        // 2^32 + 64 would truncate to 64 with `as u32`.
        assert_eq!(parse(&["--shards", "4294967360"]).err(), Some(2));
        assert_eq!(parse(&["--shards", "4294967296"]).err(), Some(2));
    }

    #[test]
    fn unknown_flags_and_help_keep_their_codes() {
        assert_eq!(parse(&["--bogus"]).err(), Some(2));
        assert_eq!(parse(&["--help"]).err(), Some(0));
    }
}
