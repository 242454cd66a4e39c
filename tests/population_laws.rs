//! Property tests for the population merge algebra.
//!
//! Everything a shard aggregates must be a commutative-monoid
//! homomorphism of stream concatenation — that is the entire basis of
//! the campaign's "any worker count, byte-identical report" contract.
//! These properties pin the laws the reduction tree relies on:
//!
//! * merge is **commutative** and (in the exact regime) **associative**,
//!   up to byte-identical serialization,
//! * the empty state is a two-sided **identity**,
//! * `merge(a, b)` equals sequential ingestion of both streams,
//! * and the laws survive the *real* ingest path: campaigns over
//!   studies measured under arbitrary panic-free fault plans still
//!   produce byte-identical reports at 1/2/8 workers and under any
//!   shard partitioning.
//!
//! The campaign's compiled cell table is checked against an oracle: a
//! naive string-keyed ingest kept in this file (per-user `BTreeSet`s of
//! domains, types and organizations, one `TopKSketch::add` per
//! organization visit) must produce the same report bytes on generated
//! studies, including ones past 64 and 256 distinct domains, with
//! missing cells, zero-count types and an empty OS universe.

use appvsweb::analysis::leaks::TypeAggregate;
use appvsweb::analysis::population::{cohort_key, figure_key};
use appvsweb::analysis::{
    stats, CellAnalysis, PopulationAggregate, PopulationReport, QuantileSketch, Study, TopKSketch,
};
use appvsweb::core::study::run_cell;
use appvsweb::netsim::{rng_labels, FaultCounts, FaultPlan, Os, SimRng};
use appvsweb::pii::PiiType;
use appvsweb::population::{run_campaign_on, CampaignConfig, Universe, UserModel};
use appvsweb::services::{Catalog, Medium, ServiceCategory};
use appvsweb_testkit::fixtures::{fault_plans, quick_study_config_with};
use appvsweb_testkit::{check, check_with, gen, PropConfig};
use std::collections::{BTreeMap, BTreeSet};

fn encode<T: appvsweb::json::ToJson>(value: &T) -> String {
    appvsweb::json::encode(value)
}

// ---------------------------------------------------------------------
// Quantile sketch laws
// ---------------------------------------------------------------------

/// Generator of sample streams with the full input zoo: positive,
/// negative, zero, subnormal-small, and non-finite values.
fn sample_streams() -> impl gen::Gen<Value = Vec<f64>> {
    gen::from_fn(|rng: &mut SimRng| {
        let len = rng.below(60) as usize;
        (0..len)
            .map(|_| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f64::NAN,
                3 => f64::INFINITY,
                4 => -(rng.below(1_000_000) as f64) / 3.0,
                5 => 1e-12 * rng.unit(),
                _ => rng.unit() * 2e6 - 1e5,
            })
            .collect()
    })
}

fn sketch_of(stream: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in stream {
        s.add(v);
    }
    s
}

#[test]
fn quantile_merge_is_a_stream_homomorphism() {
    let streams = (sample_streams(), sample_streams());
    check("quantile merge laws", &streams, |(xs, ys)| {
        let a = sketch_of(xs);
        let b = sketch_of(ys);

        // merge == sequential ingestion of the concatenated stream.
        let mut merged = a.clone();
        merged.merge(&b);
        let both: Vec<f64> = xs.iter().chain(ys).copied().collect();
        assert_eq!(encode(&merged), encode(&sketch_of(&both)));

        // Commutative, byte for byte.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(encode(&merged), encode(&flipped));

        // Empty identity, both sides.
        let mut left = QuantileSketch::new();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&QuantileSketch::new());
        assert_eq!(encode(&left), encode(&a));
        assert_eq!(encode(&right), encode(&a));
    });
}

#[test]
fn quantile_merge_is_associative() {
    let streams = (sample_streams(), sample_streams(), sample_streams());
    check("quantile merge associativity", &streams, |(xs, ys, zs)| {
        let (a, b, c) = (sketch_of(xs), sketch_of(ys), sketch_of(zs));
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(encode(&ab_c), encode(&a_bc));
    });
}

// ---------------------------------------------------------------------
// Top-k sketch laws
// ---------------------------------------------------------------------

/// Generator of `(key, count)` streams over a small key universe, so
/// collisions (the interesting case) are common.
fn key_streams() -> impl gen::Gen<Value = Vec<(String, u64)>> {
    gen::from_fn(|rng: &mut SimRng| {
        let len = rng.below(40) as usize;
        (0..len)
            .map(|_| (format!("org{}", rng.below(10)), 1 + rng.below(50)))
            .collect()
    })
}

fn topk_of(stream: &[(String, u64)], capacity: u32) -> TopKSketch {
    let mut t = TopKSketch::with_capacity(capacity);
    for (k, n) in stream {
        t.add(k, *n);
    }
    t
}

#[test]
fn topk_merge_laws_hold_exactly_in_the_unbounded_regime() {
    let streams = (key_streams(), key_streams(), key_streams());
    check("topk exact merge laws", &streams, |(xs, ys, zs)| {
        let (a, b, c) = (topk_of(xs, 0), topk_of(ys, 0), topk_of(zs, 0));

        // merge == sequential ingestion.
        let mut merged = a.clone();
        merged.merge(&b);
        let both: Vec<(String, u64)> = xs.iter().chain(ys).cloned().collect();
        assert_eq!(encode(&merged), encode(&topk_of(&both, 0)));
        assert!(merged.is_exact());

        // Commutative.
        let mut flipped = b.clone();
        flipped.merge(&a);
        assert_eq!(encode(&merged), encode(&flipped));

        // Associative.
        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(encode(&ab_c), encode(&a_bc));

        // Empty identity, both sides (Default has capacity 0).
        let mut left = TopKSketch::default();
        left.merge(&a);
        let mut right = a.clone();
        right.merge(&TopKSketch::default());
        assert_eq!(encode(&left), encode(&a));
        assert_eq!(encode(&right), encode(&a));
    });
}

#[test]
fn topk_bounded_merges_stay_commutative_and_conserve_mass() {
    // Above capacity the sketch deliberately trades associativity for
    // bounded memory — but commutativity, the capacity bound, and the
    // dropped-mass ledger must survive arbitrary eviction pressure.
    let inputs = (key_streams(), key_streams(), gen::u64s(1..=5));
    check("topk bounded merge laws", &inputs, |(xs, ys, cap)| {
        let capacity = *cap as u32;
        let a = topk_of(xs, capacity);
        let b = topk_of(ys, capacity);
        let ingested: u64 = xs.iter().chain(ys).map(|(_, n)| n).sum();

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(encode(&ab), encode(&ba), "bounded merge must commute");
        assert!(ab.entries.len() <= capacity as usize);
        assert_eq!(
            ab.total() + ab.dropped,
            ingested,
            "every ingested count is either retained or accounted as dropped"
        );
    });
}

// ---------------------------------------------------------------------
// Aggregate laws through the real ingest path, under chaos
// ---------------------------------------------------------------------

/// Measure a small real study (two services, both media, one OS) under
/// a fault plan. `fault_plans()` holds `cell_panic` at zero, so every
/// cell completes — the panic-free chaos regime of the issue spec.
fn chaos_study(faults: FaultPlan) -> Study {
    let catalog = Catalog::paper();
    let cfg = quick_study_config_with(faults);
    let mut cells = Vec::new();
    for id in ["weather-channel", "bbc-news"] {
        let spec = catalog.get(id).expect("catalog service");
        for medium in Medium::BOTH {
            cells.push(run_cell(spec, Os::Android, medium, &cfg, None));
        }
    }
    Study {
        cells,
        health: Default::default(),
    }
}

#[test]
fn campaign_laws_survive_arbitrary_panic_free_fault_plans() {
    // A handful of generated plans: each study measurement is a real
    // four-cell simulator run, so the case count stays small while the
    // shrinker still has structure to work with on failure.
    let cfg = PropConfig {
        cases: 3,
        ..PropConfig::default()
    };
    check_with(&cfg, "campaign laws under chaos", &fault_plans(), |plan| {
        let study = chaos_study(plan.clone());
        let base = CampaignConfig {
            users: 200,
            shards: 8,
            workers: 1,
            seed: 2016,
        };
        let one = run_campaign_on(&study, &base);

        // Worker invariance through the whole scheduler + reduction tree.
        for workers in [2, 8] {
            let other = run_campaign_on(
                &study,
                &CampaignConfig {
                    workers,
                    ..base.clone()
                },
            );
            assert_eq!(
                encode(&one),
                encode(&other),
                "campaign must be byte-identical at {workers} workers"
            );
        }

        // Shard partitioning is invisible: the end-to-end merge law.
        let single_shard = run_campaign_on(
            &study,
            &CampaignConfig {
                shards: 1,
                ..base.clone()
            },
        );
        assert_eq!(encode(&one.aggregate), encode(&single_shard.aggregate));

        // The aggregate stayed in the sketches' exact regime.
        assert!(one.aggregate.is_exact());
        assert_eq!(one.aggregate.users, base.users);
    });
}

#[test]
fn aggregate_merge_laws_hold_on_real_campaign_states() {
    // Aggregates built by the real ingest path (distinct populations
    // via distinct seeds) form the same commutative monoid the sketch
    // fields do.
    let study = chaos_study(FaultPlan::none());
    let agg_for = |seed: u64| {
        run_campaign_on(
            &study,
            &CampaignConfig {
                users: 150,
                shards: 4,
                workers: 2,
                seed,
            },
        )
        .aggregate
    };
    let (a, b, c) = (agg_for(1), agg_for(2), agg_for(3));

    // Commutative.
    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(encode(&ab), encode(&ba));

    // Associative.
    let mut ab_c = ab.clone();
    ab_c.merge(&c);
    let mut bc = b.clone();
    bc.merge(&c);
    let mut a_bc = a.clone();
    a_bc.merge(&bc);
    assert_eq!(encode(&ab_c), encode(&a_bc));

    // Identity, both sides.
    let mut left = PopulationAggregate::new();
    left.merge(&a);
    let mut right = a.clone();
    right.merge(&PopulationAggregate::new());
    assert_eq!(encode(&left), encode(&a));
    assert_eq!(encode(&right), encode(&a));

    // The merge really combined both populations.
    assert_eq!(ab.users, a.users + b.users);
    assert_eq!(ab.sessions, a.sessions + b.sessions);
}

#[test]
fn shard_state_memory_is_constant_in_user_count() {
    // The constant-memory acceptance criterion, as a test: 16x the
    // users must not grow the peak shard state (sketches only ever add
    // buckets/keys from the fixed cell universe).
    let study = chaos_study(FaultPlan::none());
    let peak = |users: u64| {
        run_campaign_on(
            &study,
            &CampaignConfig {
                users,
                shards: 4,
                workers: 2,
                seed: 7,
            },
        )
        .peak_state_bytes
    };
    let small = peak(500);
    let large = peak(8_000);
    assert!(small > 0);
    assert!(
        large <= small * 2,
        "16x users must not grow shard state: {small} -> {large} bytes"
    );
}

// ---------------------------------------------------------------------
// The oracle: a naive string-set ingest against the compiled table
// ---------------------------------------------------------------------

/// The adoption universes, derived from the study as the campaign does:
/// per OS, distinct `(rank, service id)` pairs in order.
fn naive_universe(study: &Study) -> Universe {
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

/// Per-user, per-medium figure inputs as plain sets.
#[derive(Default)]
struct NaiveMedium<'a> {
    aa_domains: BTreeSet<&'a str>,
    aa_flows: u64,
    aa_bytes: u64,
    leak_domains: BTreeSet<&'a str>,
    types: BTreeSet<PiiType>,
}

/// One user into `agg`, the string-keyed way: cell lookups by
/// `(service id, OS, medium)`, organizations split out of domain names
/// per visit, one top-k `add` per organization visit.
fn naive_ingest<'a>(
    agg: &mut PopulationAggregate,
    user: &UserModel,
    universe: &Universe,
    cells: &BTreeMap<(&'a str, Os, Medium), &'a CellAnalysis>,
) {
    agg.users += 1;
    let mut app = NaiveMedium::default();
    let mut web = NaiveMedium::default();
    let mut orgs: BTreeSet<&str> = BTreeSet::new();
    let mut cohorts: BTreeSet<String> = BTreeSet::new();
    let mut leaked = false;
    for service in &user.services {
        let service_id = universe.on(user.os)[service.service].as_str();
        for (medium, sessions) in [
            (Medium::App, service.app_sessions),
            (Medium::Web, service.web_sessions),
        ] {
            if sessions == 0 {
                continue;
            }
            let Some(cell) = cells.get(&(service_id, user.os, medium)) else {
                continue;
            };
            let s = sessions as u64;
            let scratch = match medium {
                Medium::App => &mut app,
                Medium::Web => &mut web,
            };
            agg.sessions = agg.sessions.saturating_add(s);
            agg.flows = agg.flows.saturating_add(cell.total_flows.saturating_mul(s));
            agg.aa_flows = agg.aa_flows.saturating_add(cell.aa_flows.saturating_mul(s));
            agg.aa_bytes = agg.aa_bytes.saturating_add(cell.aa_bytes.saturating_mul(s));
            let mut cell_leaks = 0u64;
            for (ty, type_agg) in &cell.per_type {
                let churn = if *ty == PiiType::UniqueId {
                    user.device_generations as u64
                } else {
                    1
                };
                let instances = type_agg.count.saturating_mul(s).saturating_mul(churn);
                cell_leaks = cell_leaks.saturating_add(instances);
                let stats = agg.pii.entry(*ty).or_default();
                stats.instances = stats.instances.saturating_add(instances);
                match medium {
                    Medium::App => {
                        stats.app_instances = stats.app_instances.saturating_add(instances)
                    }
                    Medium::Web => {
                        stats.web_instances = stats.web_instances.saturating_add(instances)
                    }
                }
                scratch.types.insert(*ty);
            }
            agg.leak_instances = agg.leak_instances.saturating_add(cell_leaks);
            leaked |= cell_leaks > 0;
            for (domain, leaks) in &cell.per_domain_leaks {
                let org = domain.split('.').next().unwrap_or(domain);
                agg.leak_orgs.add(org, leaks.saturating_mul(s));
                orgs.insert(org);
            }
            scratch
                .aa_domains
                .extend(cell.aa_domains.iter().map(String::as_str));
            scratch
                .leak_domains
                .extend(cell.leak_domains.iter().map(String::as_str));
            scratch.aa_flows = scratch
                .aa_flows
                .saturating_add(cell.aa_flows.saturating_mul(s));
            scratch.aa_bytes = scratch
                .aa_bytes
                .saturating_add(cell.aa_bytes.saturating_mul(s));
            let cohort = cohort_key(user.os, medium);
            let c = agg.cohorts.entry(cohort.clone()).or_default();
            c.sessions = c.sessions.saturating_add(s);
            c.aa_flows = c.aa_flows.saturating_add(cell.aa_flows.saturating_mul(s));
            c.aa_bytes = c.aa_bytes.saturating_add(cell.aa_bytes.saturating_mul(s));
            c.leak_instances = c.leak_instances.saturating_add(cell_leaks);
            cohorts.insert(cohort);
        }
    }
    if leaked {
        agg.users_leaking += 1;
    }
    for cohort in cohorts {
        if let Some(c) = agg.cohorts.get_mut(&cohort) {
            c.users += 1;
        }
    }
    for ty in app.types.union(&web.types) {
        if let Some(stats) = agg.pii.get_mut(ty) {
            stats.users += 1;
        }
    }
    for org in orgs {
        agg.org_reach.add(org, 1);
    }
    let diff = |a: u64, b: u64| a as f64 - b as f64;
    let samples = [
        (
            "fig2",
            diff(app.aa_domains.len() as u64, web.aa_domains.len() as u64),
        ),
        ("fig3", diff(app.aa_flows, web.aa_flows)),
        ("fig4", diff(app.aa_bytes, web.aa_bytes) / 1.0e6),
        (
            "fig5",
            diff(app.leak_domains.len() as u64, web.leak_domains.len() as u64),
        ),
        ("fig6", diff(app.types.len() as u64, web.types.len() as u64)),
        ("fig7", stats::jaccard(&app.types, &web.types)),
    ];
    for (figure, value) in samples {
        agg.figures
            .entry(figure_key(figure, user.os))
            .or_default()
            .add(value);
    }
}

/// The whole campaign the naive way: same shards, same pairwise tree,
/// sequentially. `capacity` sizes the top-k sketches (0 = unbounded).
fn naive_campaign(study: &Study, cfg: &CampaignConfig, capacity: u32) -> PopulationReport {
    let universe = naive_universe(study);
    let mut cells = BTreeMap::new();
    for cell in &study.cells {
        cells.insert((cell.service_id.as_str(), cell.os, cell.medium), cell);
    }
    let shards = cfg.shards.max(1) as u64;
    let mut states: Vec<PopulationAggregate> = (0..shards)
        .map(|i| {
            let mut agg = PopulationAggregate::new();
            agg.leak_orgs = TopKSketch::with_capacity(capacity);
            agg.org_reach = TopKSketch::with_capacity(capacity);
            for user in i * cfg.users / shards..(i + 1) * cfg.users / shards {
                let model = UserModel::generate(cfg.seed, user, &universe);
                naive_ingest(&mut agg, &model, &universe, &cells);
            }
            agg
        })
        .collect();
    let peak_state_bytes = states.iter().map(|s| s.approx_bytes()).max().unwrap_or(0);
    while states.len() > 1 {
        let mut next = Vec::new();
        let mut it = states.into_iter();
        while let Some(mut left) = it.next() {
            if let Some(right) = it.next() {
                left.merge(&right);
            }
            next.push(left);
        }
        states = next;
    }
    PopulationReport {
        users: cfg.users,
        shards: shards as u32,
        seed: cfg.seed,
        peak_state_bytes,
        aggregate: states.pop().unwrap_or_default(),
    }
}

/// A synthetic study: `services` services drawing A&A and leak domains
/// from a pool of `domains` names (organizations are the first label,
/// so each domain is its own organization). Cells go missing, types
/// carry zero counts, ranks collide, and iOS may have no cells at all.
fn synthetic_study(rng: &mut SimRng, services: u64, domains: u64, ios_cells: bool) -> Study {
    let mut cells = Vec::new();
    for svc in 0..services {
        for os in [Os::Android, Os::Ios] {
            if os == Os::Ios && !ios_cells {
                continue;
            }
            for medium in Medium::BOTH {
                if rng.below(5) == 0 {
                    continue; // a missing cell
                }
                let pick = |rng: &mut SimRng, n: u64| -> BTreeSet<String> {
                    (0..n)
                        .map(|_| format!("org{}.com", rng.below(domains)))
                        .collect()
                };
                let n = 1 + rng.below(24);
                let aa_domains = pick(rng, n);
                let n = rng.below(8);
                let leak_domains = pick(rng, n);
                let mut per_type = BTreeMap::new();
                for ty in PiiType::ALL {
                    if rng.below(3) == 0 {
                        // Zero counts are kept: the type still "leaked".
                        let count = rng.below(4);
                        per_type.insert(
                            ty,
                            TypeAggregate {
                                count,
                                domains: BTreeSet::new(),
                            },
                        );
                    }
                }
                let per_domain_leaks = leak_domains
                    .iter()
                    .map(|d| (d.clone(), rng.below(5)))
                    .collect();
                cells.push(CellAnalysis {
                    service_id: format!("svc{svc}"),
                    service_name: format!("Service {svc}"),
                    category: ServiceCategory::News,
                    rank: rng.below(services) as u32,
                    os,
                    medium,
                    aa_domains,
                    aa_flows: rng.below(60),
                    aa_bytes: rng.below(1 << 24),
                    total_flows: rng.below(120),
                    leaks: Vec::new(),
                    leak_domains,
                    leaked_types: per_type.keys().copied().collect(),
                    per_type,
                    per_domain_leaks,
                    per_domain_types: BTreeMap::new(),
                    fault_counts: FaultCounts::default(),
                    retries: 0,
                });
            }
        }
    }
    Study {
        cells,
        health: Default::default(),
    }
}

fn distinct_domains(study: &Study) -> usize {
    study
        .cells
        .iter()
        .flat_map(|c| c.aa_domains.iter().chain(&c.leak_domains))
        .collect::<BTreeSet<_>>()
        .len()
}

#[test]
fn compiled_table_ingest_equals_the_naive_string_ingest() {
    // Domain pools straddle one and several bitset words; every third
    // study has no iOS cells at all.
    let studies = gen::from_fn(|rng: &mut SimRng| {
        let domains = [40, 150, 600][rng.below(3) as usize];
        let services = 2 + rng.below(40);
        let ios_cells = rng.below(3) != 0;
        synthetic_study(rng, services, domains, ios_cells)
    });
    let inputs = (
        studies,
        gen::u64s(0..=400),
        gen::u64s(1..=9),
        gen::u64s(0..=u64::MAX - 1),
    );
    let cfg = PropConfig {
        cases: 24,
        ..PropConfig::default()
    };
    let seen = std::sync::Mutex::new((0usize, 0usize, 0usize));
    check_with(
        &cfg,
        "table ingest equals naive ingest",
        &inputs,
        |(study, users, shards, seed)| {
            let cfg = CampaignConfig {
                users: *users,
                shards: *shards as u32,
                workers: 2,
                seed: *seed,
            };
            let naive = naive_campaign(
                study,
                &cfg,
                appvsweb::analysis::population::DEFAULT_TOPK_CAPACITY,
            );
            assert_eq!(encode(&run_campaign_on(study, &cfg)), encode(&naive));
            if let Ok(mut seen) = seen.lock() {
                let d = distinct_domains(study);
                seen.0 += usize::from(d > 64);
                seen.1 += usize::from(d > 256);
                seen.2 += usize::from(naive_universe(study).ios.is_empty());
            }
        },
    );
    let (past_64, past_256, no_ios) = *seen.lock().expect("counter");
    assert!(
        past_64 > 0 && past_256 > 0 && no_ios > 0,
        "generator coverage: {past_64} {past_256} {no_ios}"
    );
}

#[test]
fn the_oracle_agrees_on_a_measured_study() {
    let study = chaos_study(FaultPlan::none());
    let cfg = CampaignConfig {
        users: 300,
        shards: 5,
        workers: 1,
        seed: 99,
    };
    let naive = naive_campaign(
        &study,
        &cfg,
        appvsweb::analysis::population::DEFAULT_TOPK_CAPACITY,
    );
    assert_eq!(encode(&run_campaign_on(&study, &cfg)), encode(&naive));
}

#[test]
fn bounded_top_k_regime_is_deterministic_and_accounts_dropped_mass() {
    // 2,000 organizations overflow the 1,024-entry sketches: evictions
    // happen when each shard converts its counters and in the merges,
    // deterministically in shard order.
    let study = synthetic_study(&mut SimRng::new(7), 400, 2_000, true);
    let orgs: BTreeSet<&str> = study
        .cells
        .iter()
        .flat_map(|c| c.per_domain_leaks.keys())
        .map(|d| d.split('.').next().unwrap_or(d))
        .collect();
    assert!(orgs.len() > 1_024, "only {} organizations", orgs.len());
    let base = CampaignConfig {
        users: 3_000,
        shards: 16,
        workers: 1,
        seed: 2016,
    };
    let one = run_campaign_on(&study, &base);
    for workers in [2, 8] {
        let other = run_campaign_on(
            &study,
            &CampaignConfig {
                workers,
                ..base.clone()
            },
        );
        assert_eq!(encode(&one), encode(&other), "{workers} workers");
    }
    let agg = &one.aggregate;
    assert!(!agg.is_exact());
    assert!(agg.leak_orgs.entries.len() <= 1_024 && agg.org_reach.entries.len() <= 1_024);
    assert!(agg.leak_orgs.dropped > 0 && agg.org_reach.dropped > 0);
    // Every count is retained or recorded as dropped: the unbounded
    // oracle holds the whole mass.
    let exact = naive_campaign(&study, &base, 0).aggregate;
    assert!(exact.is_exact());
    assert_eq!(
        agg.leak_orgs.total() + agg.leak_orgs.dropped,
        exact.leak_orgs.total()
    );
    assert_eq!(
        agg.org_reach.total() + agg.org_reach.dropped,
        exact.org_reach.total()
    );
    // Everything but the organization sketches is unaffected.
    assert_eq!(
        encode(&PopulationAggregate {
            leak_orgs: TopKSketch::default(),
            org_reach: TopKSketch::default(),
            ..agg.clone()
        }),
        encode(&PopulationAggregate {
            leak_orgs: TopKSketch::default(),
            org_reach: TopKSketch::default(),
            ..exact
        }),
    );
}

#[test]
fn prefix_forks_equal_whole_label_forks() {
    let inputs = (
        gen::u64s(0..=u64::MAX - 1),
        gen::printable_strings(0..=24),
        gen::u64s(0..=u64::MAX - 1),
    );
    check(
        "population prefix fork law",
        &inputs,
        |(user, cell, seed)| {
            let root = SimRng::new(*seed);
            let mut whole = root.fork(&rng_labels::population_user(*user, cell));
            let mut split = root
                .fork_prefix(rng_labels::population_user_prefix(*user))
                .fork_suffix(cell);
            for _ in 0..4 {
                assert_eq!(whole.next_u64(), split.next_u64());
            }
        },
    );
}
