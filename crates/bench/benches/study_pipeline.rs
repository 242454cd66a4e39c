//! End-to-end pipeline benches: single cells and the full campaign.
//!
//! Emits `BENCH_pipeline.json` at the repo root with median/p95 ns per
//! stage, so PRs can diff the perf trajectory of the whole pipeline.
//!
//! With `BENCH_GATE=1` in the environment (ci.sh sets it), the run
//! doubles as a perf-regression gate: the freshly measured
//! `full_campaign_1min_sessions` median is compared against the
//! committed artifact *before* it is overwritten, and a regression of
//! more than 25% fails the process. The campaign runs at a fixed
//! [`GATE_WORKERS`] threads, recorded as `meta.workers` beside the
//! host's `meta.nproc`; the gate refuses an artifact measured at another
//! worker count.

use appvsweb_bench::{bench_gate, committed, nproc, quick_config, repo_root, GATE_WORKERS};
use appvsweb_core::study::{run_cell, run_study, StudyConfig};
use appvsweb_netsim::Os;
use appvsweb_services::{Catalog, Medium};
use appvsweb_testkit::BenchRunner;

fn main() {
    let catalog = Catalog::paper();
    let cfg = quick_config();
    let mut runner = BenchRunner::new("pipeline").with_samples(1, 10);

    // One app cell and one web cell (capture + detection + classification).
    let weather = catalog.get("weather-channel").unwrap();
    runner.bench("cell_app_weather_1min", || {
        run_cell(weather, Os::Android, Medium::App, &cfg, None)
    });
    runner.bench("cell_web_weather_1min", || {
        run_cell(weather, Os::Android, Medium::Web, &cfg, None)
    });
    let bbc = catalog.get("bbc-news").unwrap();
    runner.bench("cell_web_bbc_heavy_1min", || {
        run_cell(bbc, Os::Ios, Medium::Web, &cfg, None)
    });

    // The full 196-cell campaign at 1 simulated minute per session.
    const CAMPAIGN: &str = "full_campaign_1min_sessions";
    let baseline = committed(&repo_root().join("BENCH_pipeline.json"), CAMPAIGN);
    let campaign_cfg = StudyConfig {
        workers: GATE_WORKERS,
        ..cfg
    };
    runner.bench(CAMPAIGN, || run_study(&campaign_cfg));
    runner.meta("workers", GATE_WORKERS as u64);
    runner.meta("nproc", nproc());

    let fresh = runner
        .results()
        .iter()
        .find(|r| r.name == CAMPAIGN)
        .map(|r| r.median_ns);
    runner
        .write_json(&repo_root())
        .expect("write bench artifact");

    if !bench_gate(CAMPAIGN, baseline, fresh, GATE_WORKERS) {
        std::process::exit(1);
    }
}
