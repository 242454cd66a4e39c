//! The `population` workload: `run_campaign_on` over a measured quick
//! study at 2 workers. It never touches the simulator after set-up, so
//! population ingest and the sketches dominate it.

use crate::report::Outcome;
use crate::trace::{self, Recorder};
use crate::util::{self, flag, flag_num, secs_since, WORKERS};
use appvsweb_analysis::population::render_population_report;
use appvsweb_analysis::Study;
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_json::Json;
use appvsweb_netsim::{Os, SimDuration};
use appvsweb_population::{run_campaign_on, CampaignConfig, Universe, UserModel};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

/// Users per population campaign: about a second of work at 2 workers,
/// so each child measures several campaigns.
const USERS: u64 = 150_000;

/// Reference passes a process takes after its set-up and after each
/// campaign.
const REFERENCE_PASSES: usize = 5;

/// Users in the single-thread `UserModel::generate` replay.
const GENERATE_USERS: u64 = 20_000;

fn campaign_config(seed: u64, workers: usize) -> CampaignConfig {
    CampaignConfig {
        users: USERS,
        shards: 64,
        workers,
        seed: util::derive_seed(seed, "population"),
    }
}

/// The adoption universes `run_campaign_on` derives from the study:
/// per OS, service ids in rank order.
fn universe(study: &Study) -> Universe {
    let mut ranked: BTreeMap<Os, BTreeSet<(u32, &str)>> = BTreeMap::new();
    for cell in &study.cells {
        ranked
            .entry(cell.os)
            .or_default()
            .insert((cell.rank, cell.service_id.as_str()));
    }
    let ordered = |os: Os| -> Vec<String> {
        ranked
            .get(&os)
            .map(|set| set.iter().map(|(_, id)| id.to_string()).collect())
            .unwrap_or_default()
    };
    Universe {
        android: ordered(Os::Android),
        ios: ordered(Os::Ios),
    }
}

/// `child-population`: runs in a fresh process; prints one JSON line.
///
/// Flags: `--seed N`, `--seconds T`, `--mode plain|alternate`,
/// `--check-workers` (also run once at 1 worker for the identity check).
pub fn child(args: &[String]) -> i32 {
    let seed: u64 = flag_num(args, "--seed", 2016);
    let seconds: f64 = flag_num(args, "--seconds", 0.0);
    let alternate = flag(args, "--mode") == Some("alternate");
    let check_workers = args.iter().any(|a| a == "--check-workers");

    let c = util::cpu_s();
    let study = run_study(&StudyConfig {
        seed,
        duration: SimDuration::from_mins(1),
        workers: WORKERS,
        use_recon: false,
        ..StudyConfig::default()
    });
    let setup_cpu_s = util::cpu_s() - c;
    let cfg = campaign_config(seed, WORKERS);
    let mut reference = util::reference_passes(REFERENCE_PASSES);

    let mut plain = Vec::new();
    let mut plain_cpu = Vec::new();
    let mut traced = Vec::new();
    let mut digests = BTreeSet::new();
    let mut layers = Vec::new();
    let mut spans_total = 0usize;
    let mut users_ok = true;
    let start = Instant::now();
    let mut k = 0u32;
    let need = if alternate { 2 } else { 1 };
    while k < need || secs_since(start) < seconds {
        if alternate && k.is_multiple_of(2) {
            let rec = Recorder::new();
            let t0 = rec.now();
            let report = rec.span("population.campaign", None, None, || {
                run_campaign_on(&study, &cfg)
            });
            let t_campaign = rec.now();
            let rendered = rec.span("population.render", None, None, || {
                render_population_report(&report)
            });
            let t1 = rec.now();
            traced.push((t_campaign - t0) as f64 / 1e9);
            digests.insert(util::digest(rendered.as_bytes()));
            users_ok &= report.aggregate.users == USERS;
            let spans = rec.spans();
            spans_total += spans.len();
            let total = trace::total_by_name(&spans);
            let busy: u64 = total.values().sum();
            let campaign_ns = total.get("population.campaign").copied().unwrap_or(0) as f64;
            let mut m = BTreeMap::new();
            m.insert(
                "population.users_per_s".to_string(),
                USERS as f64 / (campaign_ns / 1e9),
            );
            m.insert(
                "population.campaign_ns_per_user".to_string(),
                campaign_ns * WORKERS as f64 / USERS as f64,
            );
            m.insert(
                "population.render_ms".to_string(),
                total.get("population.render").copied().unwrap_or(0) as f64 / 1e6,
            );
            m.insert(
                "population.peak_state_bytes".to_string(),
                report.peak_state_bytes as f64,
            );
            m.insert(
                "obs.reconciled_pct".to_string(),
                busy as f64 / (t1 - t0) as f64 * 100.0,
            );
            layers.push(m);
        } else {
            let t = Instant::now();
            let c = util::cpu_s();
            let report = run_campaign_on(&study, &cfg);
            plain_cpu.push(util::cpu_s() - c);
            plain.push(secs_since(t));
            users_ok &= report.aggregate.users == USERS;
            digests.insert(util::digest(render_population_report(&report).as_bytes()));
        }
        reference.extend(util::reference_passes(REFERENCE_PASSES));
        k += 1;
    }

    let mut one_worker_digest = String::new();
    if check_workers {
        let report = run_campaign_on(&study, &campaign_config(seed, 1));
        one_worker_digest = util::digest(render_population_report(&report).as_bytes());
    }

    // Single-thread generate replay: the per-user model cost alone.
    let generate_ns = if alternate {
        let universe = universe(&study);
        let t = Instant::now();
        for user in 0..GENERATE_USERS {
            black_box(UserModel::generate(cfg.seed, user, black_box(&universe)));
        }
        t.elapsed().as_nanos() as f64 / GENERATE_USERS as f64
    } else {
        0.0
    };

    let mut layer = util::median_maps(&layers);
    if alternate {
        layer.insert("population.generate_ns_per_user".to_string(), generate_ns);
        layer.insert("obs.spans".to_string(), spans_total as f64);
    }
    let out = Json::Obj(vec![
        ("setup_cpu_s".to_string(), Json::Float(setup_cpu_s)),
        ("plain_s".to_string(), util::float_arr(&plain)),
        ("plain_cpu_s".to_string(), util::float_arr(&plain_cpu)),
        ("reference_s".to_string(), util::float_arr(&reference)),
        ("traced_s".to_string(), util::float_arr(&traced)),
        (
            "digests".to_string(),
            util::str_arr(&digests.into_iter().collect::<Vec<_>>()),
        ),
        (
            "one_worker_digest".to_string(),
            Json::Str(one_worker_digest),
        ),
        ("users_ok".to_string(), Json::Bool(users_ok)),
        ("campaigns".to_string(), Json::Uint(u64::from(k))),
        ("vmhwm_kb".to_string(), Json::Uint(util::self_kb("VmHWM"))),
        ("layers".to_string(), util::map_json(&layer)),
    ]);
    println!("{}", out.to_compact());
    0
}

/// Fresh processes per run. Campaign cost depends on the seed by a few
/// percent, and whole processes differ by more than the campaigns within
/// one, so a run takes several processes, each with its own seed derived
/// from the benchmark seed (the first is the benchmark seed itself).
const SEEDS: usize = 6;

/// Orchestrate one population workload run: one fresh process per seed,
/// each set up by its base study and then measuring its share of the
/// run.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut results = Vec::new();
    let mut errors = Vec::new();
    for i in 0..SEEDS {
        let child_seed = if i == 0 {
            seed
        } else {
            util::derive_seed(seed, &format!("population-{i}"))
        };
        let mut args = vec![
            "child-population".to_string(),
            "--seed".to_string(),
            child_seed.to_string(),
            "--seconds".to_string(),
            (seconds / SEEDS as f64).to_string(),
            "--mode".to_string(),
            if traced { "alternate" } else { "plain" }.to_string(),
        ];
        if i == 0 {
            args.push("--check-workers".to_string());
        }
        match util::run_self(&args) {
            Ok(r) => results.push(r),
            Err(e) => errors.push(e),
        }
    }
    for e in &errors {
        eprintln!("perfbench: {e}");
    }

    let mut setup = Vec::new();
    let mut plain = Vec::new();
    let mut plain_cpu = Vec::new();
    let mut reference = Vec::new();
    let mut traced_walls = Vec::new();
    let mut digests_ok = true;
    let mut one_worker_ok = false;
    let mut rss = Vec::new();
    let mut layer_maps = Vec::new();
    let mut users_ok = true;
    for r in &results {
        setup.push(util::num(r.get("setup_cpu_s")));
        plain.extend(util::nums(r.get("plain_s")));
        plain_cpu.extend(util::nums(r.get("plain_cpu_s")));
        reference.extend(util::nums(r.get("reference_s")));
        traced_walls.extend(util::nums(r.get("traced_s")));
        let digests = util::strs(r.get("digests"));
        digests_ok &= digests.len() == 1;
        if let Some(Json::Str(d)) = r.get("one_worker_digest") {
            if !d.is_empty() {
                one_worker_ok = digests == [d.clone()];
            }
        }
        rss.push(util::num(r.get("vmhwm_kb")) / 1024.0);
        users_ok &= matches!(r.get("users_ok"), Some(Json::Bool(true)));
        out.attempted += util::num(r.get("campaigns")) as u64;
        layer_maps.push(util::json_map(r.get("layers")));
    }
    out.attempted += errors.len() as u64;
    out.failed += errors.len() as u64;

    out.check(
        format!("every child process succeeded ({} ok)", results.len()),
        errors.is_empty(),
    );
    out.check(
        format!("every report folds all {USERS} users"),
        users_ok && !results.is_empty(),
    );
    out.check(
        format!(
            "rendered report identical across the {} campaigns of each seed",
            plain.len() + traced_walls.len()
        ),
        digests_ok && !results.is_empty(),
    );
    out.check(
        "rendered report identical at 1 and 2 workers",
        one_worker_ok,
    );

    let campaign_s = util::median(&plain);
    let campaign_cpu_s = util::median(&plain_cpu);
    out.set_times(util::median(&setup), campaign_cpu_s, &reference);
    out.metrics.insert("peak_rss_mb".into(), util::median(&rss));
    out.metrics.insert("wall.campaign_s".into(), campaign_s);
    out.notes.push(format!(
        "population campaigns of {USERS} users over {SEEDS} seeds: {} plain (median \
         {campaign_s:.4} s wall, {campaign_cpu_s:.4} s CPU, {:.0} users/s), {} traced; \
         set-up CPU samples {setup:?}",
        plain.len(),
        USERS as f64 / campaign_s,
        traced_walls.len()
    ));
    if traced {
        let layers = util::median_maps(&layer_maps);
        let reconciled = layers.get("obs.reconciled_pct").copied().unwrap_or(0.0);
        out.check(
            format!("population spans reconcile the traced wall within 5% ({reconciled:.2}%)"),
            (reconciled - 100.0).abs() <= 5.0,
        );
        let traced_med = util::median(&traced_walls);
        out.metrics.extend(layers);
        out.metrics.insert(
            "obs.trace_overhead_pct".into(),
            (traced_med / campaign_s - 1.0) * 100.0,
        );
        let per_user = out
            .metrics
            .get("population.campaign_ns_per_user")
            .copied()
            .unwrap_or(0.0);
        let generate = out
            .metrics
            .get("population.generate_ns_per_user")
            .copied()
            .unwrap_or(0.0);
        let render_s = out
            .metrics
            .get("population.render_ms")
            .copied()
            .unwrap_or(0.0)
            / 1e3;
        let wall = traced_med + render_s;
        let campaign_share = traced_med / wall;
        let generate_share = if per_user > 0.0 {
            campaign_share * (generate / per_user).min(1.0)
        } else {
            0.0
        };
        out.shares = vec![
            (
                "population.ingest+sketch".to_string(),
                campaign_share - generate_share,
            ),
            ("population.generate".to_string(), generate_share),
            ("population.render".to_string(), render_s / wall),
        ];
    }
    out
}
