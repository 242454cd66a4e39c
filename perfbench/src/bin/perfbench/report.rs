//! The result of one benchmark run: checks, operation counts, metrics,
//! the per-layer table and the provenance stamp.

use crate::util::{self, map_json};
use appvsweb_json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("campaign_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). A layer a
/// workload does not exercise reads 0 on it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wall.campaign_s", "s"),
    ("host.reference_ms", "ms"),
    ("core.testbed_ms", "ms"),
    ("core.fold_ms", "ms"),
    ("core.exec_busy_ratio", "ratio"),
    ("services.session_ms", "ms"),
    ("services.transactions", "count"),
    ("services.connections", "count"),
    ("services.wire_bytes", "bytes"),
    ("services.ns_per_transaction", "ns"),
    ("netsim.pool_takes", "count"),
    ("netsim.pool_recycle_ratio", "ratio"),
    ("netsim.pool_high_water_bytes", "bytes"),
    ("pii.detector_new_ms", "ms"),
    ("pii.dictionary_builds", "count"),
    ("pii.dictionary_hits", "count"),
    ("pii.identities", "count"),
    ("pii.redundant_builds", "count"),
    ("pii.rss_per_build_kb", "kB"),
    ("pii.recon_train_ms", "ms"),
    ("pii.scan_ns_per_byte", "ns/B"),
    ("pii.scans", "count"),
    ("adblock.categorizer_new_ms", "ms"),
    ("adblock.categorize_ns_per_host", "ns"),
    ("analysis.analyze_ms", "ms"),
    ("analysis.leaks", "count"),
    ("analysis.report_ms", "ms"),
    ("population.users_per_s", "1/s"),
    ("population.campaign_ns_per_user", "ns"),
    ("population.generate_ns_per_user", "ns"),
    ("population.peak_state_bytes", "bytes"),
    ("population.render_ms", "ms"),
    ("serve.job_latency_p50_s", "s"),
    ("serve.health_latency_p99_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.run_job_ms", "ms"),
    ("serve.checkpoint_ms", "ms"),
    ("serve.http_ms", "ms"),
    ("serve.health_blocked_ratio", "ratio"),
    ("serve.wal_bytes", "bytes"),
    ("serve.checkpoint_bytes", "bytes"),
    ("serve.recover_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.reconciled_pct", "%"),
    ("loadgen.lateness_p99_ms", "ms"),
];

/// Everything one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (cells, jobs, requests), checks excluded.
    pub attempted: u64,
    /// Operations that failed, checks excluded.
    pub failed: u64,
    /// Metric values by name (end-to-end or per-layer, per mode).
    pub metrics: BTreeMap<String, f64>,
    /// Per-layer share of the traced wall time: (layer, share).
    pub shares: Vec<(String, f64)>,
    /// Extra human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Record the end-to-end times of a run whose reference passes took
    /// `reference`: set-up and campaign CPU seconds, scaled to reference
    /// speed (the record keeps the raw values too).
    pub fn set_times(&mut self, setup_cpu_s: f64, campaign_cpu_s: f64, reference: &[f64]) {
        let scaled = |v: f64| util::at_reference_speed(v, reference);
        self.metrics.insert("setup_s".into(), scaled(setup_cpu_s));
        self.metrics
            .insert("campaign_cpu_s".into(), scaled(campaign_cpu_s));
        self.metrics.insert("raw.setup_cpu_s".into(), setup_cpu_s);
        self.metrics
            .insert("raw.campaign_cpu_s".into(), campaign_cpu_s);
        let pass_ms = util::median(reference) * 1e3;
        self.metrics.insert("host.reference_ms".into(), pass_ms);
        self.notes.push(format!(
            "raw CPU: set-up {setup_cpu_s:.4} s, campaign {campaign_cpu_s:.4} s; reference pass \
             median {pass_ms:.4} ms over {} passes (reference speed: {:.4} ms)",
            reference.len(),
            util::REFERENCE_PASS_S * 1e3
        ));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Failed operations plus failed checks, over attempted ones.
    fn totals(&self) -> (u64, u64) {
        let failed_checks = self.checks.iter().filter(|(_, ok)| !ok).count() as u64;
        (
            self.attempted + self.checks.len() as u64,
            self.failed + failed_checks,
        )
    }

    /// The metrics the mode reports, with units, in table order.
    fn reported(&self, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(*name).copied().unwrap_or(0.0);
                (*name, *unit, value)
            })
            .collect()
    }

    /// Print the human report, then the one-line JSON result last.
    pub fn print(&self, stamp: &[(String, Json)], trace: bool) {
        let (attempted, failed) = self.totals();
        println!("== perfbench ==");
        for (k, v) in stamp {
            println!("  {k:<10} {}", v.to_compact());
        }
        println!("checks:");
        for (name, ok) in &self.checks {
            println!("  [{}] {name}", if *ok { " ok " } else { "FAIL" });
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!(
            "operations: attempted={attempted} failed={failed} failed_ratio={}",
            failed as f64 / attempted.max(1) as f64
        );
        if trace && !self.shares.is_empty() {
            println!("layer shares of workers x traced wall:");
            for (layer, share) in &self.shares {
                println!("  {layer:<24} {:>6.2}%", share * 100.0);
            }
        }
        println!("metrics:");
        for (name, unit, value) in self.reported(trace) {
            println!("  {name:<32} {value:>16.4} {unit}");
        }
        let metrics = Json::Obj(
            self.reported(trace)
                .into_iter()
                .map(|(name, unit, value)| {
                    (
                        name.to_string(),
                        Json::Obj(vec![
                            ("value".to_string(), Json::Float(value)),
                            ("unit".to_string(), Json::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        );
        let line = Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Uint(attempted)),
            ("failed".to_string(), Json::Uint(failed)),
            ("metrics".to_string(), metrics),
        ]);
        println!("{}", line.to_compact());
    }

    /// The full record kept on disk: stamp, checks, counts and every
    /// metric measured (both tables' names where present).
    pub fn record(&self, stamp: &[(String, Json)]) -> Json {
        let (attempted, failed) = self.totals();
        Json::Obj(vec![
            ("provenance".to_string(), Json::Obj(stamp.to_vec())),
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::Uint(attempted)),
            ("failed".to_string(), Json::Uint(failed)),
            (
                "checks".to_string(),
                Json::Obj(
                    self.checks
                        .iter()
                        .map(|(n, ok)| (n.clone(), Json::Bool(*ok)))
                        .collect(),
                ),
            ),
            ("metrics".to_string(), map_json(&self.metrics)),
        ])
    }
}
