//! Population-campaign benches: 10k / 100k / 1M / 10M users over one
//! measured quick study.
//!
//! Emits `BENCH_population.json` at the repo root. The metadata records
//! the peak shard-state footprint at each scale — the constant-memory
//! witness: the bytes must not grow with the user count.
//!
//! With `BENCH_GATE=1` in the environment (ci.sh sets it), the run is
//! also a perf-regression gate: the fresh `campaign_1m_users` median is
//! compared against the committed artifact *before* it is overwritten,
//! and a regression of more than 25% fails the process. Every row but
//! `campaign_10k_users_1_worker` runs at a fixed [`GATE_WORKERS`]
//! threads, recorded as `meta.workers` beside the host's `meta.nproc`;
//! the gate refuses an artifact measured at another worker count.

use appvsweb_bench::{bench_gate, committed, nproc, quick_config, repo_root, GATE_WORKERS};
use appvsweb_core::study::run_study;
use appvsweb_population::{run_campaign_on, CampaignConfig};
use appvsweb_testkit::BenchRunner;

fn main() {
    const GATED: &str = "campaign_1m_users";
    let baseline = committed(&repo_root().join("BENCH_population.json"), GATED);
    let study = run_study(&quick_config());
    let mut runner = BenchRunner::new("population").with_samples(1, 5);

    let cfg = |users: u64| CampaignConfig {
        users,
        workers: GATE_WORKERS,
        ..CampaignConfig::default()
    };
    for (name, users) in [
        ("campaign_10k_users", 10_000u64),
        ("campaign_100k_users", 100_000),
        (GATED, 1_000_000),
    ] {
        let cfg = cfg(users);
        let report = run_campaign_on(&study, &cfg);
        runner.meta(
            &format!("peak_state_bytes_{users}_users"),
            report.peak_state_bytes,
        );
        runner.bench(name, || run_campaign_on(&study, &cfg));
    }

    let base = cfg(10_000);
    runner.meta("shards", base.shards);
    runner.meta("workers", base.workers as u64);
    runner.meta("nproc", nproc());
    runner.bench("campaign_10k_users_1_worker", || {
        run_campaign_on(
            &study,
            &CampaignConfig {
                workers: 1,
                ..base.clone()
            },
        )
    });

    // The largest scale, with fewer samples: from 1M to 10M users the
    // footprint must be flat — the sketches have saturated the fixed
    // cell/org universe, the structural bound that makes memory
    // independent of user count.
    let mut runner = runner.with_samples(0, 3);
    let ten_million = cfg(10_000_000);
    let mut peak = 0;
    runner.bench("campaign_10m_users", || {
        let report = run_campaign_on(&study, &ten_million);
        peak = report.peak_state_bytes;
        report
    });
    runner.meta("peak_state_bytes_10000000_users", peak);

    let fresh = runner
        .results()
        .iter()
        .find(|r| r.name == GATED)
        .map(|r| r.median_ns);
    runner
        .write_json(&repo_root())
        .expect("write bench artifact");
    if !bench_gate(GATED, baseline, fresh, GATE_WORKERS) {
        std::process::exit(1);
    }
}
