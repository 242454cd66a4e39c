//! Shared helpers for the reproduction benches and the `repro` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz_cli;
pub mod fuzz_targets;
pub mod obs_cli;
pub mod population_cli;
pub mod serve_cli;

use appvsweb_analysis::Study;
use appvsweb_core::study::StudyConfig;

/// The canonical full study (seed 2016, 4-minute sessions), computed once
/// per process and shared by every table/figure bench. Delegates to the
/// testkit fixture so benches and integration tests share one cache.
pub fn shared_study() -> &'static Study {
    appvsweb_testkit::fixtures::canonical_study()
}

/// A faster study configuration (1-minute sessions, no ReCon) for benches
/// that measure the pipeline itself rather than consume its output.
pub fn quick_config() -> StudyConfig {
    appvsweb_testkit::fixtures::quick_study_config()
}

/// The repository root, where `BENCH_*.json` artifacts are written so
/// successive PRs can diff them in place.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// Worker count of the `BENCH_GATE=1`-gated rows. Fixed rather than
/// taken from the host, so a committed median and a fresh one are
/// measured at the same parallelism wherever either was recorded.
pub const GATE_WORKERS: usize = 2;

/// The host's available parallelism, recorded as `meta.nproc` next to
/// `meta.workers` so an artifact says what machine shape measured it.
pub fn nproc() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// One gated benchmark as committed in a `BENCH_<suite>.json` artifact.
#[derive(Clone, Copy, Debug)]
pub struct Committed {
    /// The committed median, ns.
    pub median_ns: f64,
    /// The artifact's `meta.workers`; `None` when it does not record one.
    pub workers: Option<u64>,
}

/// Read one benchmark's committed median, and the artifact's
/// `meta.workers`, from a `BENCH_<suite>.json` artifact. `None` when the
/// file, the entry, or its median is missing — a fresh checkout without
/// artifacts must not trip the regression gate.
pub fn committed(path: &std::path::Path, name: &str) -> Option<Committed> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = appvsweb_json::parse(&text).ok()?;
    let median_ns = json
        .get("results")?
        .items()
        .ok()?
        .iter()
        .find(|r| matches!(r.get("name"), Some(appvsweb_json::Json::Str(s)) if s == name))?
        .field::<f64>("median_ns")
        .ok()?;
    let workers = json
        .get("meta")
        .and_then(|meta| meta.field::<u64>("workers").ok());
    Some(Committed { median_ns, workers })
}

/// The `BENCH_GATE=1` perf-regression gate shared by the gated benches.
///
/// `baseline` is the committed row of `name`, read *before* the run
/// overwrites the artifact; `fresh` is this run's median, measured at
/// `workers` threads. With `BENCH_GATE` unset the gate is off. Returns
/// `false` (and says why on stderr) when the committed artifact records
/// no worker count or a different one — the medians would not be
/// comparable — or when the fresh median is more than 25% over the
/// baseline. A missing baseline passes, so a fresh checkout never trips
/// it.
pub fn bench_gate(
    name: &str,
    baseline: Option<Committed>,
    fresh: Option<f64>,
    workers: usize,
) -> bool {
    if std::env::var_os("BENCH_GATE").is_none() {
        return true;
    }
    let (Some(base), Some(now)) = (baseline, fresh) else {
        eprintln!("BENCH GATE: no committed baseline for {name}; skipping");
        return true;
    };
    if base.workers != Some(workers as u64) {
        eprintln!(
            "BENCH GATE: {name} committed median was measured at meta.workers = {}, \
             this run at {workers}; regenerate the artifact at {workers} workers",
            base.workers
                .map_or_else(|| "(missing)".to_string(), |w| w.to_string()),
        );
        return false;
    }
    let base = base.median_ns;
    if now > base * 1.25 {
        eprintln!(
            "BENCH GATE: {name} median regressed {:.1}% \
             ({:.1}ms -> {:.1}ms at {workers} workers, threshold 25%)",
            (now / base - 1.0) * 100.0,
            base / 1e6,
            now / 1e6,
        );
        false
    } else {
        eprintln!(
            "BENCH GATE: {name} median {:.1}ms vs committed {:.1}ms at {workers} workers — ok",
            now / 1e6,
            base / 1e6,
        );
        true
    }
}
