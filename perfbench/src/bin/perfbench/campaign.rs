//! The campaign workloads: `campaign_cold` and `campaign_warm`.
//!
//! Both run the paper configuration (full grid, 4 simulated minutes,
//! ReCon on, 2 workers). Every campaign runs in a child process of this
//! executable so "cold" means a process that has compiled no
//! dictionary yet:
//!
//! * cold: each child runs exactly one campaign;
//! * warm: each child runs one warm-up campaign (its set-up), then
//!   repeats the campaign for its share of the measured seconds.
//!
//! The traced run re-makes the calls `run_study` makes from this file,
//! with a span around each, and must reproduce `run_study`'s dataset
//! bytes.

use crate::report::Outcome;
use crate::trace::{self, Recorder, Span};
use crate::util::{self, flag, flag_num, secs_since, WORKERS};
use appvsweb_adblock::Categorizer;
use appvsweb_analysis::leaks::scan_text_of;
use appvsweb_analysis::{analyze_trace, figures, tables, Study};
use appvsweb_core::dataset;
use appvsweb_core::exec::run_indexed;
use appvsweb_core::study::{
    campaign_cells, fold_outcomes, run_study, train_recon, CellOutcome, StudyConfig,
};
use appvsweb_core::Testbed;
use appvsweb_httpsim::Host;
use appvsweb_json::Json;
use appvsweb_netsim::{Os, SimDuration};
use appvsweb_pii::CombinedDetector;
use appvsweb_services::{Catalog, SessionConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// The services `core::study::train_recon` trains on; their training
/// accounts are identities of their own (a distinct seed stream). This
/// copies private details of `core::study`; the `child-identities`
/// check in traced campaign_cold runs catches drift.
const TRAINING_SERVICES: &[&str] = &["weather-channel", "shopmart", "study-pal", "chatterbox"];

/// Distinct `(service, OS)` ground truths a campaign compiles
/// dictionaries for, training accounts included: the builds a
/// race-free campaign does.
fn identities(cfg: &StudyConfig, catalog: &Catalog) -> u64 {
    let mut truths = BTreeSet::new();
    let mut add = |tb: &Testbed| {
        truths.insert(util::digest(appvsweb_json::encode(&tb.truth).as_bytes()));
    };
    if cfg.use_recon {
        let train_seed = cfg.seed ^ 0x7261_696e;
        for id in TRAINING_SERVICES {
            if let Some(spec) = catalog.get(id) {
                for os in [Os::Android, Os::Ios] {
                    add(&Testbed::for_cell(spec, os, train_seed));
                }
            }
        }
    }
    for (spec, os, _) in campaign_cells(catalog, &cfg.cells).expect("paper grid is valid") {
        add(&Testbed::for_cell(spec, os, cfg.seed));
    }
    truths.len() as u64
}

/// The paper configuration for one campaign seed.
pub fn paper_config(seed: u64) -> StudyConfig {
    StudyConfig {
        seed,
        duration: SimDuration::from_mins(4),
        workers: WORKERS,
        use_recon: true,
        ..StudyConfig::default()
    }
}

/// Dataset bytes digest: the byte-identity witness the checks compare.
pub fn study_digest(study: &Study) -> String {
    util::digest(dataset::to_json(study).as_bytes())
}

/// A traced campaign and what it measured.
pub struct Traced {
    /// The dataset the traced calls produced.
    pub study: Study,
    /// Wall time of the reconciled interval (training through fold), s.
    pub wall_s: f64,
    /// Per-layer metrics.
    pub layers: BTreeMap<String, f64>,
    /// Layer shares of workers x wall.
    pub shares: BTreeMap<String, f64>,
    /// Every recorded span.
    pub spans: Vec<Span>,
}

/// Run the campaign through the same public calls `run_study` makes,
/// spanned, then replay its scans and categorizations for the rates.
pub fn traced_campaign(cfg: &StudyConfig) -> Traced {
    let rec = Recorder::new();
    let catalog = Catalog::paper();
    let work = campaign_cells(&catalog, &cfg.cells).expect("paper grid is valid");
    let workers = cfg.workers.max(1);
    let rss0 = util::self_kb("VmRSS");
    let cache0 = appvsweb_pii::cache::stats();
    let pool0 = appvsweb_netsim::pool::stats();

    let t0 = rec.now();
    let recon = cfg
        .use_recon
        .then(|| rec.span("pii.recon_train", None, None, || train_recon(&catalog, cfg)));
    let par0 = rec.now();
    let outcomes: Vec<CellOutcome> = run_indexed(&work, workers, 1, |i, (spec, os, medium)| {
        let cell = Some(i as u32);
        let open = rec.open("core.cell", None, cell);
        let parent = Some(open.id());
        let session_cfg = SessionConfig {
            duration: cfg.duration,
            seed: cfg.seed,
            faults: cfg.faults.clone(),
            ..SessionConfig::default()
        };
        let mut tb = rec.span("core.testbed", parent, cell, || {
            Testbed::for_cell(spec, *os, cfg.seed)
        });
        let trace = rec.span("services.session", parent, cell, || {
            tb.run_session(spec, *os, *medium, &session_cfg)
        });
        let detector = rec.span("pii.detector_new", parent, cell, || {
            CombinedDetector::new(&tb.truth, recon.clone())
        });
        let categorizer = rec.span("adblock.categorizer_new", parent, cell, || {
            Categorizer::bundled(spec.first_party)
        });
        let analysis = rec.span("analysis.analyze", parent, cell, || {
            analyze_trace(&trace, spec, *os, *medium, &detector, &categorizer)
        });
        // The cell's testbed, trace and detector drop inside the cell,
        // as they do inside `run_study`'s per-cell call.
        rec.span("core.cell_drop", parent, cell, || {
            drop((tb, trace, detector, categorizer));
        });
        let outcome = CellOutcome {
            label: format!("{}/{:?}/{:?}", spec.id, os, medium),
            cell: Some(analysis),
            attempts: 1,
            panics: 0,
            panic_msg: None,
        };
        rec.close(open);
        outcome
    });
    let par1 = rec.now();
    let rss1 = util::self_kb("VmRSS");
    let cache1 = appvsweb_pii::cache::stats();
    let pool1 = appvsweb_netsim::pool::stats();
    let study = rec.span("core.fold", None, None, || fold_outcomes(outcomes));
    let t1 = rec.now();

    let report_ns = {
        let t = Instant::now();
        black_box(tables::table1(&study));
        black_box(tables::table2(&study, 10));
        black_box(tables::table3(&study));
        black_box(figures::all_figures(&study));
        t.elapsed().as_nanos() as f64
    };

    let spans = rec.spans();
    let total = trace::total_by_name(&spans);
    let own = trace::self_by_name(&spans);
    let ms = |name: &str| total.get(name).copied().unwrap_or(0) as f64 / 1e6;

    // Reconciliation: layer span self-times plus measured worker idle
    // time against workers x wall. The `core.cell` wrapper is not a
    // layer: its self-time (the harness's per-cell glue) and the gaps
    // between cells stay unaccounted. During the serial phases
    // (training, fold) only the calling thread works, so the other
    // slots idle; in the parallel phase each worker idles before its
    // first and after its last cell.
    let wall = (t1 - t0) as f64;
    let layer_own: BTreeMap<&str, u64> = own
        .iter()
        .filter(|(name, _)| **name != "core.cell")
        .map(|(name, ns)| (*name, *ns))
        .collect();
    let busy: u64 = layer_own.values().sum();
    let serial = (par0 - t0) + (t1 - par1);
    let mut idle = (workers as u64 - 1) * serial;
    let mut edges: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "core.cell") {
        let e = edges.entry(s.thread).or_insert((s.start, s.end));
        e.0 = e.0.min(s.start);
        e.1 = e.1.max(s.end);
    }
    for (first, last) in edges.values() {
        idle += (first - par0) + (par1 - last);
    }
    idle += workers.saturating_sub(edges.len()) as u64 * (par1 - par0);
    let slots = workers as f64 * wall;
    let reconciled = (busy + idle) as f64 / slots;
    let cell_busy: u64 = spans
        .iter()
        .filter(|s| s.name == "core.cell")
        .map(Span::dur)
        .sum();

    let mut shares: BTreeMap<String, f64> = layer_own
        .iter()
        .map(|(name, ns)| (name.to_string(), *ns as f64 / slots))
        .collect();
    shares.insert("(worker idle)".to_string(), idle as f64 / slots);
    shares.insert("(unaccounted)".to_string(), 1.0 - reconciled);

    let replay = replay_rates(cfg, &catalog, recon.as_ref());
    let identities = identities(cfg, &catalog);
    let builds = cache1.builds - cache0.builds;
    let takes = pool1.takes - pool0.takes;

    let mut layers = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        layers.insert(k.to_string(), v);
    };
    put("core.testbed_ms", ms("core.testbed"));
    put("core.fold_ms", ms("core.fold"));
    put(
        "core.exec_busy_ratio",
        cell_busy as f64 / (workers as f64 * (par1 - par0) as f64),
    );
    put("services.session_ms", ms("services.session"));
    put("services.transactions", replay.transactions as f64);
    put("services.connections", replay.connections as f64);
    put("services.wire_bytes", replay.wire_bytes as f64);
    put(
        "services.ns_per_transaction",
        ms("services.session") * 1e6 / replay.transactions.max(1) as f64,
    );
    put("netsim.pool_takes", takes as f64);
    put(
        "netsim.pool_recycle_ratio",
        (pool1.recycles - pool0.recycles) as f64 / takes.max(1) as f64,
    );
    put(
        "netsim.pool_high_water_bytes",
        pool1.high_water_bytes as f64,
    );
    put("pii.detector_new_ms", ms("pii.detector_new"));
    put("pii.dictionary_builds", builds as f64);
    put("pii.dictionary_hits", (cache1.hits - cache0.hits) as f64);
    put("pii.identities", identities as f64);
    put(
        "pii.redundant_builds",
        builds.saturating_sub(identities) as f64,
    );
    put(
        "pii.rss_per_build_kb",
        if builds == 0 {
            0.0
        } else {
            rss1.saturating_sub(rss0) as f64 / builds as f64
        },
    );
    put("pii.recon_train_ms", ms("pii.recon_train"));
    put(
        "pii.scan_ns_per_byte",
        replay.scan_ns / replay.scan_bytes.max(1) as f64,
    );
    put("pii.scans", replay.scans as f64);
    put("adblock.categorizer_new_ms", ms("adblock.categorizer_new"));
    put(
        "adblock.categorize_ns_per_host",
        replay.categorize_ns / replay.hosts.max(1) as f64,
    );
    put("analysis.analyze_ms", ms("analysis.analyze"));
    put(
        "analysis.leaks",
        study.cells.iter().map(|c| c.leak_count()).sum::<u64>() as f64,
    );
    put("analysis.report_ms", report_ns / 1e6);
    put("obs.reconciled_pct", reconciled * 100.0);
    put("obs.spans", spans.len() as f64);

    Traced {
        study,
        wall_s: wall / 1e9,
        layers,
        shares,
        spans,
    }
}

/// What the rate replay measured.
#[derive(Default)]
struct Replay {
    transactions: u64,
    connections: u64,
    wire_bytes: u64,
    scans: u64,
    scan_bytes: u64,
    scan_ns: f64,
    hosts: u64,
    categorize_ns: f64,
}

/// After the reconciled interval: regenerate each cell's trace and time
/// `CombinedDetector::scan` over its distinct `(host, scan_text)` pairs
/// (the pairs `analyze_trace` scans) and `categorize_host` over its
/// distinct hosts. Also counts traffic.
fn replay_rates(
    cfg: &StudyConfig,
    catalog: &Catalog,
    recon: Option<&appvsweb_pii::recon::ReconClassifier>,
) -> Replay {
    let mut r = Replay::default();
    let session_cfg = SessionConfig {
        duration: cfg.duration,
        seed: cfg.seed,
        faults: cfg.faults.clone(),
        ..SessionConfig::default()
    };
    let work = campaign_cells(catalog, &cfg.cells).expect("paper grid is valid");
    for (spec, os, medium) in work {
        let mut tb = Testbed::for_cell(spec, os, cfg.seed);
        let trace = tb.run_session(spec, os, medium, &session_cfg);
        r.transactions += trace.transactions.len() as u64;
        r.connections += trace.connections.len() as u64;
        r.wire_bytes += trace.total_bytes();
        let detector = CombinedDetector::new(&tb.truth, recon.cloned());
        let categorizer = Categorizer::bundled(spec.first_party);
        let mut seen = BTreeSet::new();
        for txn in &trace.transactions {
            let text = scan_text_of(&txn.request);
            let mut hasher = DefaultHasher::new();
            text.hash(&mut hasher);
            txn.host.hash(&mut hasher);
            if !seen.insert(hasher.finish()) {
                continue;
            }
            let domain = Host::new(&txn.host).registrable_domain();
            let t = Instant::now();
            black_box(detector.scan(black_box(&domain), black_box(&text)));
            r.scan_ns += t.elapsed().as_nanos() as f64;
            r.scan_bytes += text.len() as u64;
            r.scans += 1;
        }
        let hosts: BTreeSet<&str> = trace
            .connections
            .iter()
            .map(|c| c.host.as_str())
            .chain(trace.transactions.iter().map(|t| t.host.as_str()))
            .collect();
        let t = Instant::now();
        for host in &hosts {
            black_box(categorizer.categorize_host(black_box(host)));
        }
        r.categorize_ns += t.elapsed().as_nanos() as f64;
        r.hosts += hosts.len() as u64;
    }
    r
}

/// `child-campaign`: runs inside a fresh process and prints one JSON
/// line. CPU times are this process's CPU seconds over each step;
/// `ready_cpu_s` is what the process used before its first campaign.
///
/// Flags: `--seed N`, `--warmups W` (0 or more warm-up campaigns, the
/// set-up), `--seconds T` (measure until T seconds passed, at least one
/// campaign; 0 = exactly one), `--mode plain|traced|alternate`,
/// `--spans PATH` (write the first traced run's spans there),
/// `--setup-only` (stop before the first campaign: a cold process's
/// set-up alone).
pub fn child(args: &[String]) -> i32 {
    let seed: u64 = flag_num(args, "--seed", 2016);
    let warmups: u32 = flag_num(args, "--warmups", 0);
    let seconds: f64 = flag_num(args, "--seconds", 0.0);
    let mode = flag(args, "--mode").unwrap_or("plain").to_string();
    let spans_path = flag(args, "--spans").map(str::to_string);
    let cfg = paper_config(seed);
    let ready_cpu_s = util::cpu_s();
    if args.iter().any(|a| a == "--setup-only") {
        println!("{{\"ready_cpu_s\":{ready_cpu_s}}}");
        return 0;
    }

    let mut reference = util::reference_passes(REFERENCE_PASSES);
    let mut setup = Vec::new();
    let mut warmup_digest = String::new();
    for _ in 0..warmups {
        let c = util::cpu_s();
        let study = run_study(&cfg);
        setup.push(util::cpu_s() - c);
        warmup_digest = study_digest(&study);
    }

    let mut plain = Vec::new();
    let mut plain_cpu = Vec::new();
    let mut traced = Vec::new();
    let mut digests = BTreeSet::new();
    let mut traced_digests = BTreeSet::new();
    let mut layers = Vec::new();
    let mut shares = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut headline = Vec::new();
    let start = Instant::now();
    let mut k = 0u32;
    let need = if mode == "alternate" { 2 } else { 1 };
    while k < need || (seconds > 0.0 && secs_since(start) < seconds) {
        let trace_this = mode == "traced" || (mode == "alternate" && k.is_multiple_of(2));
        let study = if trace_this {
            let run = traced_campaign(&cfg);
            traced.push(run.wall_s);
            traced_digests.insert(study_digest(&run.study));
            if let (Some(path), true) = (&spans_path, layers.is_empty()) {
                if let Err(e) = std::fs::write(path, trace::spans_jsonl(&run.spans)) {
                    eprintln!("cannot write spans to {path}: {e}");
                }
            }
            layers.push(util::map_json(&run.layers));
            shares.push(util::map_json(&run.shares));
            run.study
        } else {
            let t = Instant::now();
            let c = util::cpu_s();
            let study = run_study(&cfg);
            plain_cpu.push(util::cpu_s() - c);
            plain.push(secs_since(t));
            digests.insert(study_digest(&study));
            study
        };
        reference.extend(util::reference_passes(REFERENCE_PASSES));
        attempted += study.health.cells_attempted;
        failed += study.health.cells_failed;
        if headline.is_empty() {
            let h = appvsweb_analysis::headline_stats(&study);
            headline = vec![h.app_pct, h.web_pct, h.android_web_pct, h.ios_web_pct];
        }
        k += 1;
    }

    let out = Json::Obj(vec![
        ("seed".to_string(), Json::Uint(seed)),
        ("ready_cpu_s".to_string(), Json::Float(ready_cpu_s)),
        ("setup_cpu_s".to_string(), util::float_arr(&setup)),
        ("plain_s".to_string(), util::float_arr(&plain)),
        ("plain_cpu_s".to_string(), util::float_arr(&plain_cpu)),
        ("reference_s".to_string(), util::float_arr(&reference)),
        ("traced_s".to_string(), util::float_arr(&traced)),
        (
            "digests".to_string(),
            util::str_arr(&digests.into_iter().collect::<Vec<_>>()),
        ),
        (
            "traced_digests".to_string(),
            util::str_arr(&traced_digests.into_iter().collect::<Vec<_>>()),
        ),
        ("warmup_digest".to_string(), Json::Str(warmup_digest)),
        ("cells_attempted".to_string(), Json::Uint(attempted)),
        ("cells_failed".to_string(), Json::Uint(failed)),
        ("headline".to_string(), util::float_arr(&headline)),
        ("vmhwm_kb".to_string(), Json::Uint(util::self_kb("VmHWM"))),
        ("layers".to_string(), Json::Arr(layers)),
        ("shares".to_string(), Json::Arr(shares)),
    ]);
    println!("{}", out.to_compact());
    0
}

/// `child-identities`: a fresh process runs a 1-worker campaign for
/// `--seed N` (one simulated minute: the identities do not depend on
/// the duration). With one worker no two cells race to compile the same
/// dictionary, so its builds must equal [`identities`].
pub fn child_identities(args: &[String]) -> i32 {
    let cfg = StudyConfig {
        duration: SimDuration::from_mins(1),
        workers: 1,
        ..paper_config(flag_num(args, "--seed", 2016))
    };
    let before = appvsweb_pii::cache::stats();
    let study = run_study(&cfg);
    let builds = appvsweb_pii::cache::stats().builds - before.builds;
    let out = Json::Obj(vec![
        ("builds".to_string(), Json::Uint(builds)),
        (
            "identities".to_string(),
            Json::Uint(identities(&cfg, &Catalog::paper())),
        ),
        (
            "cells_failed".to_string(),
            Json::Uint(study.health.cells_failed),
        ),
    ]);
    println!("{}", out.to_compact());
    0
}

/// Cold processes spawned to the point where a campaign would start, and
/// no further, before each cold campaign process: more `setup_s`
/// samples, taken under the same conditions as the campaign processes'
/// own.
const SETUP_ONLY_SPAWNS: usize = 8;

/// Campaign seeds a run measures. Run time depends on the seed by a
/// few percent, so every run spreads its campaigns over several seeds
/// derived from the benchmark seed; the first is the benchmark seed
/// itself (seed 2016 is the paper's).
fn campaign_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        seed
    } else {
        util::derive_seed(seed, &format!("campaign-{j}"))
    }
}

/// Campaign seeds per run.
const SEEDS: usize = 4;

/// Reference passes a campaign process takes before its first campaign
/// and after each one.
const REFERENCE_PASSES: usize = 5;

/// Warm processes per campaign_warm run. A process's campaigns share a
/// memory layout and a stretch of the host's time, and the medians of
/// whole processes differ by more than their campaigns within one, so
/// the run takes several processes with a few campaigns each.
const WARM_PROCESSES: usize = 6;

/// Orchestrate one campaign workload run.
pub fn run(warm: bool, seed: u64, seconds: f64, traced: bool, spans_path: &str) -> Outcome {
    let mut out = Outcome::default();
    let mut results: Vec<Json> = Vec::new();
    let mut errors = Vec::new();
    let mut setup = Vec::new();
    let mut identity_check = None;
    let s = |v: &str| v.to_string();

    if warm {
        // Fresh processes cycling over the campaign seeds, each set up by
        // one warm-up campaign and then measuring its share of the run.
        for i in 0..WARM_PROCESSES {
            let j = i % SEEDS;
            let mode = if traced { "alternate" } else { "plain" };
            let mut args = vec![
                s("child-campaign"),
                s("--seed"),
                campaign_seed(seed, j).to_string(),
                s("--warmups"),
                s("1"),
                s("--seconds"),
                (seconds / WARM_PROCESSES as f64).to_string(),
                s("--mode"),
                s(mode),
            ];
            if traced && i == 0 {
                args.extend([s("--spans"), s(spans_path)]);
            }
            match util::run_self(&args) {
                Ok(r) => {
                    setup.extend(util::nums(r.get("setup_cpu_s")));
                    results.push(r);
                }
                Err(e) => errors.push(e),
            }
        }
    } else {
        // One campaign per fresh process, cycling over the seeds; traced
        // runs pair a traced and a plain child on each seed so both are
        // cold, and stop only after a pair's plain half. Set-up is the CPU
        // time each process used before `run_study`, sampled also from
        // set-up-only processes.
        let start = Instant::now();
        let mut k = 0usize;
        let need = if traced { 2 } else { SEEDS };
        while k < need || (traced && k % 2 == 1) || secs_since(start) < seconds {
            let trace_this = traced && k.is_multiple_of(2);
            let j = if traced { k / 2 } else { k } % SEEDS;
            let mut args = vec![
                s("child-campaign"),
                s("--seed"),
                campaign_seed(seed, j).to_string(),
                s("--mode"),
                s(if trace_this { "traced" } else { "plain" }),
            ];
            for _ in 0..SETUP_ONLY_SPAWNS {
                let mut only = args.clone();
                only.push(s("--setup-only"));
                match util::run_self(&only) {
                    Ok(r) => setup.push(util::num(r.get("ready_cpu_s"))),
                    Err(e) => errors.push(e),
                }
            }
            if trace_this && k == 0 {
                args.extend([s("--spans"), s(spans_path)]);
            }
            match util::run_self(&args) {
                Ok(r) => {
                    setup.push(util::num(r.get("ready_cpu_s")));
                    results.push(r);
                }
                Err(e) => errors.push(e),
            }
            k += 1;
        }
        if traced {
            let args = [s("child-identities"), s("--seed"), seed.to_string()];
            match util::run_self(&args) {
                Ok(r) => identity_check = Some(r),
                Err(e) => errors.push(e),
            }
        }
    }

    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    out.failed += errors.len() as u64;
    out.attempted += errors.len() as u64;

    let mut plain = Vec::new();
    let mut plain_cpu = Vec::new();
    let mut reference = Vec::new();
    let mut traced_walls = Vec::new();
    // Per campaign seed: digests of plain, traced and warm-up datasets.
    let mut digests: BTreeMap<u64, [BTreeSet<String>; 3]> = BTreeMap::new();
    let mut rss = Vec::new();
    let mut layer_maps = Vec::new();
    let mut headline = Vec::new();
    let mut share_maps = Vec::new();
    for r in &results {
        let child_seed = util::num(r.get("seed")) as u64;
        let p = util::nums(r.get("plain_s"));
        if !p.is_empty() {
            rss.push(util::num(r.get("vmhwm_kb")) / 1024.0);
        }
        plain.extend(p);
        plain_cpu.extend(util::nums(r.get("plain_cpu_s")));
        reference.extend(util::nums(r.get("reference_s")));
        traced_walls.extend(util::nums(r.get("traced_s")));
        let d = digests.entry(child_seed).or_default();
        d[0].extend(util::strs(r.get("digests")));
        d[1].extend(util::strs(r.get("traced_digests")));
        if let Some(Json::Str(w)) = r.get("warmup_digest") {
            if !w.is_empty() {
                d[2].insert(w.clone());
            }
        }
        if let Some(Json::Arr(maps)) = r.get("layers") {
            layer_maps.extend(maps.iter().map(|m| util::json_map(Some(m))));
        }
        if let Some(Json::Arr(maps)) = r.get("shares") {
            share_maps.extend(maps.iter().map(|m| util::json_map(Some(m))));
        }
        if child_seed == seed && headline.is_empty() {
            headline = util::nums(r.get("headline"));
        }
        out.attempted += util::num(r.get("cells_attempted")) as u64;
        out.failed += util::num(r.get("cells_failed")) as u64;
    }

    let runs = plain.len() + traced_walls.len();
    out.check(
        format!("every child process succeeded ({} ok)", results.len()),
        errors.is_empty() && !results.is_empty(),
    );
    out.check(
        format!("196/196 cells complete in all {runs} campaigns"),
        out.failed == 0 && out.attempted == 196 * runs as u64,
    );
    out.check(
        format!(
            "dataset bytes identical across repeated campaigns of each of {} seeds",
            digests.len()
        ),
        digests.values().all(|d| d[0].len() == 1),
    );
    if warm {
        out.check(
            "cold warm-up and warm campaigns produce identical bytes",
            digests.values().all(|d| d[2].len() == 1 && d[2] == d[0]),
        );
    }
    if traced {
        out.check(
            "traced calls reproduce run_study's dataset bytes",
            digests.values().all(|d| d[1].is_empty() || d[1] == d[0])
                && digests.values().any(|d| !d[1].is_empty()),
        );
    }
    if let Some(r) = &identity_check {
        let builds = util::num(r.get("builds"));
        let counted = util::num(r.get("identities"));
        out.check(
            format!(
                "identities counted by the harness ({counted}) equal a 1-worker cold run's \
                 dictionary builds ({builds})"
            ),
            builds == counted && util::num(r.get("cells_failed")) == 0.0,
        );
    }
    if seed == 2016 {
        out.check(
            format!("seed 2016 Table 1 headline is 92.0/74.0/53.1/75.5 (got {headline:?})"),
            headline == [92.0, 74.0, 53.1, 75.5],
        );
    }

    let campaign_s = util::median(&plain);
    let campaign_cpu_s = util::median(&plain_cpu);
    out.set_times(util::median(&setup), campaign_cpu_s, &reference);
    out.metrics.insert("peak_rss_mb".into(), util::median(&rss));
    out.metrics.insert("wall.campaign_s".into(), campaign_s);
    out.notes.push(format!(
        "campaigns over {} seeds: {} plain (median {campaign_s:.4} s wall, {campaign_cpu_s:.4} s CPU), \
         {} traced; {} set-up samples",
        digests.len(),
        plain.len(),
        traced_walls.len(),
        setup.len()
    ));
    if traced {
        let layers = util::median_maps(&layer_maps);
        let reconciled = layers.get("obs.reconciled_pct").copied().unwrap_or(0.0);
        out.check(
            format!("layer span self-times + worker idle reconcile workers x wall within 5% ({reconciled:.2}%)"),
            (reconciled - 100.0).abs() <= 5.0,
        );
        out.metrics.extend(layers);
        let traced_med = util::median(&traced_walls);
        out.metrics.insert(
            "obs.trace_overhead_pct".into(),
            (traced_med / campaign_s - 1.0) * 100.0,
        );
        out.shares = util::median_maps(&share_maps).into_iter().collect();
        out.shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    }
    out
}
