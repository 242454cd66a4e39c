//! The population campaign: a compiled cell table, sharded ingestion
//! into dense counters, and the fixed pairwise reduction tree.
//!
//! The pipeline is four stages, all deterministic in
//! `(study, users, shards, seed)`:
//!
//! 1. **Compile** — the study is interned once into a [`CellTable`]:
//!    one row per (OS, universe rank index, medium) holding the cell's
//!    counters, its `(PII type, count)` pairs and type bitmask, its
//!    leaking organizations as interned ids, and its A&A and leak
//!    domains as bitsets. No string is touched after this stage.
//! 2. **Shard** — users `0..N` are split into a *fixed* number of
//!    contiguous shards (independent of worker count), and the
//!    work-stealing executor ([`appvsweb_core::exec`]) races workers
//!    over shards. Each shard streams its users into dense
//!    accumulators (4 cohorts, 10 PII types, one slot per organization,
//!    2 × 6 figure sketches): per user only integer adds, bitset ORs
//!    and popcounts. At the end of the shard the accumulators convert
//!    once into the canonical [`PopulationAggregate`], so peak memory
//!    is `shards × |aggregate|`, independent of `N`.
//! 3. **Reduce** — shard states move pairwise into a fixed binary tree
//!    over shard order: level after level, state `2k` absorbs state
//!    `2k+1`. The pairing is data-independent, and every aggregate's
//!    `merge` is the stream-concatenation homomorphism the law suite
//!    property-tests — so 1, 2, or 8 workers produce byte-identical
//!    reports.
//! 4. **Report** — the reduced state plus config echo and the peak
//!    shard-state footprint (the constant-memory witness).
//!
//! The top-k organization sketches see each shard's per-organization
//! totals once, at the shard's conversion. While the organizations fit
//! the sketch capacity (every study the simulator produces) that is
//! exactly per-user ingestion; beyond it, evictions happen at that
//! conversion and in the merges, never per user.

use crate::model::{Universe, UserModel};
use appvsweb_analysis::population::{
    cohort_key, figure_key, CohortStats, PiiStats, PopulationAggregate, FIGURES,
};
use appvsweb_analysis::sketch::{QuantileSketch, TopKSketch};
use appvsweb_analysis::{CellAnalysis, PopulationReport, Study};
use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::Os;
use appvsweb_pii::PiiType;
use appvsweb_services::Medium;
use std::collections::{BTreeMap, BTreeSet};

/// Population campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Simulated users.
    pub users: u64,
    /// Fixed shard count. Memory scales with shards, *not* users; the
    /// default keeps shard states comfortably under a megabyte total
    /// while giving the scheduler enough grain to steal.
    pub shards: u32,
    /// Worker threads racing over shards (1 = sequential). Output is
    /// byte-identical for every value.
    pub workers: usize,
    /// Population seed, keying every user stream. Independent of the
    /// base study's seed.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            users: 10_000,
            shards: 64,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(16),
            seed: 2016,
        }
    }
}

/// Table slot of an OS: `[Android, Ios]`.
fn os_slot(os: Os) -> usize {
    match os {
        Os::Android => 0,
        Os::Ios => 1,
    }
}

/// The OSes in slot order.
const OSES: [Os; 2] = [Os::Android, Os::Ios];

/// One measured cell, interned: everything a user's session of the
/// cell adds, with no strings left.
struct Row {
    total_flows: u64,
    aa_flows: u64,
    aa_bytes: u64,
    /// `(PiiType::ALL index, count, scales with device churn)` per
    /// entry of the cell's `per_type`, zero counts included.
    types: Vec<(usize, u64, bool)>,
    /// Bit `i` is set when `PiiType::ALL[i]` is in `per_type`.
    type_mask: u16,
    /// `(organization id, leaks)` per entry of `per_domain_leaks`, in
    /// its order.
    orgs: Vec<(usize, u64)>,
    /// The cell's A&A domains as a bitset over the study's domain ids.
    aa_domains: Vec<u64>,
    /// The domains receiving leaks, same bitset layout.
    leak_domains: Vec<u64>,
}

/// The study compiled for population ingest: the rank-ordered adoption
/// universes plus one [`Row`] per (OS, universe index, medium).
struct CellTable {
    universe: Universe,
    /// `rows[os slot][universe index][medium slot]`; `None` where the
    /// study has no such cell.
    rows: [Vec<[Option<Row>; 2]>; 2],
    /// Interned organization names; ids are indices, in name order.
    orgs: Vec<String>,
    /// Words per domain bitset: the study's distinct domains over 64,
    /// rounded up.
    words: usize,
}

impl CellTable {
    fn compile(study: &Study) -> Self {
        /// Organization view of a registrable domain (paper Table 2
        /// style: the registrable label sans public suffix).
        fn organization(domain: &str) -> &str {
            domain.split('.').next().unwrap_or(domain)
        }

        let mut cells: BTreeMap<(&str, Os, Medium), &CellAnalysis> = BTreeMap::new();
        let mut ranked: BTreeMap<Os, BTreeSet<(u32, &str)>> = BTreeMap::new();
        let mut domains: BTreeMap<&str, usize> = BTreeMap::new();
        let mut orgs: BTreeMap<&str, usize> = BTreeMap::new();
        for cell in &study.cells {
            cells.insert((cell.service_id.as_str(), cell.os, cell.medium), cell);
            ranked
                .entry(cell.os)
                .or_default()
                .insert((cell.rank, cell.service_id.as_str()));
            for domain in cell.aa_domains.iter().chain(&cell.leak_domains) {
                domains.insert(domain.as_str(), 0);
            }
            for domain in cell.per_domain_leaks.keys() {
                orgs.insert(organization(domain), 0);
            }
        }
        // Ids in key order: interned order is name order.
        for (id, slot) in domains.values_mut().enumerate() {
            *slot = id;
        }
        for (id, slot) in orgs.values_mut().enumerate() {
            *slot = id;
        }
        let words = domains.len().div_ceil(64);
        let bitset = |set: &BTreeSet<String>| {
            let mut bits = vec![0u64; words];
            for domain in set {
                let id = domains.get(domain.as_str()).copied().unwrap_or(0);
                if let Some(word) = bits.get_mut(id / 64) {
                    *word |= 1 << (id % 64);
                }
            }
            bits
        };
        let row = |cell: &CellAnalysis| {
            let mut types = Vec::with_capacity(cell.per_type.len());
            let mut type_mask = 0u16;
            for (ty, agg) in &cell.per_type {
                if let Some(slot) = PiiType::ALL.iter().position(|t| t == ty) {
                    types.push((slot, agg.count, *ty == PiiType::UniqueId));
                    type_mask |= 1 << slot;
                }
            }
            Row {
                total_flows: cell.total_flows,
                aa_flows: cell.aa_flows,
                aa_bytes: cell.aa_bytes,
                types,
                type_mask,
                orgs: cell
                    .per_domain_leaks
                    .iter()
                    .map(|(domain, leaks)| {
                        let id = orgs.get(organization(domain)).copied().unwrap_or(0);
                        (id, *leaks)
                    })
                    .collect(),
                aa_domains: bitset(&cell.aa_domains),
                leak_domains: bitset(&cell.leak_domains),
            }
        };

        let ordered = |os: Os| -> Vec<String> {
            ranked
                .get(&os)
                .map(|set| set.iter().map(|(_, id)| id.to_string()).collect())
                .unwrap_or_default()
        };
        let universe = Universe {
            android: ordered(Os::Android),
            ios: ordered(Os::Ios),
        };
        let rows = OSES.map(|os| {
            universe
                .on(os)
                .iter()
                .map(|id| Medium::BOTH.map(|m| cells.get(&(id.as_str(), os, m)).map(|c| row(c))))
                .collect()
        });
        CellTable {
            universe,
            rows,
            orgs: orgs.keys().map(|org| org.to_string()).collect(),
            words,
        }
    }
}

/// Per-organization shard counters.
#[derive(Clone, Default)]
struct OrgCounts {
    /// Leak instances received.
    leaks: u64,
    /// Users whose traffic reached the organization.
    reach: u64,
    /// Shard-local number of the last user counted in `reach`.
    last_user: u64,
}

/// One user's traffic through one medium: the figure inputs, reset per
/// user and reused.
struct MediumUse {
    aa_domains: Vec<u64>,
    leak_domains: Vec<u64>,
    types: u16,
    aa_flows: u64,
    aa_bytes: u64,
}

impl MediumUse {
    fn new(words: usize) -> Self {
        MediumUse {
            aa_domains: vec![0; words],
            leak_domains: vec![0; words],
            types: 0,
            aa_flows: 0,
            aa_bytes: 0,
        }
    }

    fn reset(&mut self) {
        self.aa_domains.fill(0);
        self.leak_domains.fill(0);
        self.types = 0;
        self.aa_flows = 0;
        self.aa_bytes = 0;
    }
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn popcount(bits: &[u64]) -> u64 {
    bits.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// One shard's dense accumulators. [`Shard::finish`] converts them into
/// the canonical [`PopulationAggregate`].
struct Shard<'t> {
    table: &'t CellTable,
    /// The scalar totals accumulate here directly; [`Shard::finish`]
    /// fills in the keyed fields.
    agg: PopulationAggregate,
    /// Slot `2 × os slot + medium slot`.
    cohorts: [CohortStats; 4],
    /// Slot = `PiiType::ALL` index.
    pii: [PiiStats; 10],
    orgs: Vec<OrgCounts>,
    users_by_os: [u64; 2],
    /// `figures[os slot][k]` is the sketch of `FIGURES[k]`.
    figures: [[QuantileSketch; 6]; 2],
    /// Per-user scratch: `[app, web]`.
    media: [MediumUse; 2],
}

impl<'t> Shard<'t> {
    fn new(table: &'t CellTable) -> Self {
        Shard {
            table,
            agg: PopulationAggregate::new(),
            cohorts: Default::default(),
            pii: Default::default(),
            orgs: vec![OrgCounts::default(); table.orgs.len()],
            users_by_os: [0; 2],
            figures: Default::default(),
            media: [MediumUse::new(table.words), MediumUse::new(table.words)],
        }
    }

    /// Stream one user in.
    ///
    /// Scaling model: a user's session of a cell observes the cell's
    /// measured per-session traffic, so counts scale linearly with the
    /// user's session count; device churn re-exposes hardware
    /// identifiers, so UniqueId instances additionally scale with
    /// device generations.
    fn ingest(&mut self, user: &UserModel) {
        let agg = &mut self.agg;
        agg.users = agg.users.saturating_add(1);
        let stamp = agg.users;
        let os = os_slot(user.os);
        let rows = self.table.rows.get(os).map(Vec::as_slice).unwrap_or(&[]);
        for medium in &mut self.media {
            medium.reset();
        }
        let mut leaked = false;
        let mut cohorts_used = [false; 2];

        for service in &user.services {
            let Some(cells) = rows.get(service.service) else {
                continue;
            };
            for (m, sessions) in [service.app_sessions, service.web_sessions]
                .into_iter()
                .enumerate()
            {
                if sessions == 0 {
                    continue;
                }
                let (Some(Some(row)), Some(medium)) = (cells.get(m), self.media.get_mut(m)) else {
                    continue;
                };
                let s = sessions as u64;
                let aa_flows = row.aa_flows.saturating_mul(s);
                let aa_bytes = row.aa_bytes.saturating_mul(s);
                agg.sessions = agg.sessions.saturating_add(s);
                agg.flows = agg.flows.saturating_add(row.total_flows.saturating_mul(s));
                agg.aa_flows = agg.aa_flows.saturating_add(aa_flows);
                agg.aa_bytes = agg.aa_bytes.saturating_add(aa_bytes);

                let mut cell_leaks = 0u64;
                for &(slot, count, churns) in &row.types {
                    let churn = if churns {
                        user.device_generations as u64
                    } else {
                        1
                    };
                    let instances = count.saturating_mul(s).saturating_mul(churn);
                    cell_leaks = cell_leaks.saturating_add(instances);
                    if let Some(stats) = self.pii.get_mut(slot) {
                        stats.instances = stats.instances.saturating_add(instances);
                        let by_medium = if m == 0 {
                            &mut stats.app_instances
                        } else {
                            &mut stats.web_instances
                        };
                        *by_medium = by_medium.saturating_add(instances);
                    }
                }
                agg.leak_instances = agg.leak_instances.saturating_add(cell_leaks);
                leaked |= cell_leaks > 0;

                for &(org, leaks) in &row.orgs {
                    if let Some(counts) = self.orgs.get_mut(org) {
                        counts.leaks = counts.leaks.saturating_add(leaks.saturating_mul(s));
                        if counts.last_user != stamp {
                            counts.last_user = stamp;
                            counts.reach = counts.reach.saturating_add(1);
                        }
                    }
                }

                or_into(&mut medium.aa_domains, &row.aa_domains);
                or_into(&mut medium.leak_domains, &row.leak_domains);
                medium.types |= row.type_mask;
                medium.aa_flows = medium.aa_flows.saturating_add(aa_flows);
                medium.aa_bytes = medium.aa_bytes.saturating_add(aa_bytes);

                if let Some(cohort) = self.cohorts.get_mut(2 * os + m) {
                    cohort.sessions = cohort.sessions.saturating_add(s);
                    cohort.aa_flows = cohort.aa_flows.saturating_add(aa_flows);
                    cohort.aa_bytes = cohort.aa_bytes.saturating_add(aa_bytes);
                    cohort.leak_instances = cohort.leak_instances.saturating_add(cell_leaks);
                }
                if let Some(used) = cohorts_used.get_mut(m) {
                    *used = true;
                }
            }
        }

        if leaked {
            agg.users_leaking = agg.users_leaking.saturating_add(1);
        }
        for (m, used) in cohorts_used.into_iter().enumerate() {
            if let (true, Some(cohort)) = (used, self.cohorts.get_mut(2 * os + m)) {
                cohort.users = cohort.users.saturating_add(1);
            }
        }
        let [app, web] = &self.media;
        let user_types = app.types | web.types;
        for (slot, stats) in self.pii.iter_mut().enumerate() {
            if user_types & (1 << slot) != 0 {
                stats.users = stats.users.saturating_add(1);
            }
        }

        // The per-user app-vs-web difference samples (Figures 2–7), in
        // `FIGURES` order.
        let diff = |a: u64, b: u64| a as f64 - b as f64;
        let union = user_types.count_ones();
        let jaccard = if union == 0 {
            0.0
        } else {
            (app.types & web.types).count_ones() as f64 / union as f64
        };
        let samples = [
            diff(popcount(&app.aa_domains), popcount(&web.aa_domains)),
            diff(app.aa_flows, web.aa_flows),
            diff(app.aa_bytes, web.aa_bytes) / 1.0e6,
            diff(popcount(&app.leak_domains), popcount(&web.leak_domains)),
            diff(
                u64::from(app.types.count_ones()),
                u64::from(web.types.count_ones()),
            ),
            jaccard,
        ];
        if let (Some(sketches), Some(n)) = (self.figures.get_mut(os), self.users_by_os.get_mut(os))
        {
            *n = n.saturating_add(1);
            for (sketch, value) in sketches.iter_mut().zip(samples) {
                sketch.add(value);
            }
        }
    }

    /// Convert the dense counters into the canonical aggregate: keys
    /// appear exactly where per-user ingestion would have created them.
    fn finish(self) -> PopulationAggregate {
        let mut agg = self.agg;
        let cohort_keys = OSES.map(|os| Medium::BOTH.map(|m| (os, m)));
        for ((os, medium), stats) in cohort_keys.into_iter().flatten().zip(self.cohorts) {
            if stats.users > 0 {
                agg.cohorts.insert(cohort_key(os, medium), stats);
            }
        }
        for (ty, stats) in PiiType::ALL.into_iter().zip(self.pii) {
            if stats.users > 0 {
                agg.pii.insert(ty, stats);
            }
        }
        let names = || self.table.orgs.iter().map(String::as_str);
        agg.leak_orgs = TopKSketch::from_counts(
            agg.leak_orgs.capacity,
            names().zip(self.orgs.iter().map(|o| o.leaks)),
        );
        agg.org_reach = TopKSketch::from_counts(
            agg.org_reach.capacity,
            names().zip(self.orgs.iter().map(|o| o.reach)),
        );
        for ((os, users), sketches) in OSES.into_iter().zip(self.users_by_os).zip(self.figures) {
            if users == 0 {
                continue;
            }
            for ((figure, _), sketch) in FIGURES.iter().zip(sketches) {
                agg.figures.insert(figure_key(figure, os), sketch);
            }
        }
        agg
    }
}

/// Build one shard's aggregate by streaming users `lo..hi`.
fn build_shard(seed: u64, range: (u64, u64), table: &CellTable) -> PopulationAggregate {
    let mut shard = Shard::new(table);
    for user_id in range.0..range.1 {
        shard.ingest(&UserModel::generate(seed, user_id, &table.universe));
    }
    shard.finish()
}

/// Fold shard states pairwise in a fixed binary tree over shard order.
/// The pairing never depends on timing, so any worker count yields the
/// same sequence of merges — and since `merge` is associative on these
/// states, the same bytes. Each state moves into its merge; none is
/// copied. The merges run on the calling thread: shard states are
/// bounded, so the whole tree costs a few milliseconds at any user
/// count, less than spawning workers for each level, whose allocator
/// arenas also kept freed merge memory resident.
fn reduce_tree(mut states: Vec<PopulationAggregate>) -> PopulationAggregate {
    while states.len() > 1 {
        let mut next = Vec::with_capacity(states.len().div_ceil(2));
        let mut pairs = states.into_iter();
        while let Some(mut left) = pairs.next() {
            if let Some(right) = pairs.next() {
                left.merge(&right);
            }
            next.push(left);
        }
        states = next;
    }
    states.into_iter().next().unwrap_or_default()
}

/// Run a population campaign over an already-measured base study.
///
/// Pure in `(study, cfg)`: re-running with any worker count returns a
/// byte-identical [`PopulationReport`].
pub fn run_campaign_on(study: &Study, cfg: &CampaignConfig) -> PopulationReport {
    let table = CellTable::compile(study);
    let shards = cfg.shards.max(1);
    let ranges: Vec<(u64, u64)> = (0..shards as u64)
        .map(|i| {
            (
                i * cfg.users / shards as u64,
                (i + 1) * cfg.users / shards as u64,
            )
        })
        .collect();
    let states = appvsweb_core::exec::run_indexed(&ranges, cfg.workers.max(1), 1, |_, &range| {
        build_shard(cfg.seed, range, &table)
    });
    let peak_state_bytes = states.iter().map(|s| s.approx_bytes()).max().unwrap_or(0);
    let aggregate = reduce_tree(states);
    PopulationReport {
        users: cfg.users,
        shards,
        seed: cfg.seed,
        peak_state_bytes,
        aggregate,
    }
}

/// Measure the base study, then run the campaign on it.
pub fn run_campaign(study_cfg: &StudyConfig, cfg: &CampaignConfig) -> PopulationReport {
    run_campaign_on(&run_study(study_cfg), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use appvsweb_analysis::leaks::TypeAggregate;
    use appvsweb_netsim::FaultCounts;
    use appvsweb_services::{Catalog, ServiceCategory};

    /// A tiny synthetic two-service study — unit tests must not pay for
    /// the real simulator (integration suites do).
    pub(crate) fn tiny_study() -> Study {
        let mut cells = Vec::new();
        for (idx, service_id) in ["alpha", "beta"].iter().enumerate() {
            for os in [Os::Android, Os::Ios] {
                for medium in Medium::BOTH {
                    let heavier = u64::from(medium == Medium::Web);
                    let mut per_type = BTreeMap::new();
                    let mut leak_domains = BTreeSet::new();
                    let mut per_domain_leaks = BTreeMap::new();
                    if idx == 0 {
                        per_type.insert(
                            PiiType::Email,
                            TypeAggregate {
                                count: 1 + heavier,
                                domains: BTreeSet::from(["tracker.com".to_string()]),
                            },
                        );
                        if medium == Medium::App {
                            per_type.insert(
                                PiiType::UniqueId,
                                TypeAggregate {
                                    count: 2,
                                    domains: BTreeSet::from(["tracker.com".to_string()]),
                                },
                            );
                        }
                        leak_domains.insert("tracker.com".to_string());
                        per_domain_leaks.insert("tracker.com".to_string(), 2 + heavier);
                    }
                    cells.push(CellAnalysis {
                        service_id: service_id.to_string(),
                        service_name: service_id.to_uppercase(),
                        category: ServiceCategory::News,
                        rank: 1 + idx as u32,
                        os,
                        medium,
                        aa_domains: BTreeSet::from([
                            "ads.example".to_string(),
                            format!("cdn{heavier}.example"),
                        ]),
                        aa_flows: 3 + heavier,
                        aa_bytes: 10_000 * (1 + heavier),
                        total_flows: 9,
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

    #[test]
    fn campaign_is_byte_identical_across_worker_counts() {
        let study = tiny_study();
        let base = CampaignConfig {
            users: 500,
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
            assert_eq!(
                appvsweb_json::encode(&one),
                appvsweb_json::encode(&other),
                "{workers} workers must match 1 worker byte for byte"
            );
        }
    }

    #[test]
    fn merging_shards_equals_one_big_shard() {
        let study = tiny_study();
        let cfg = CampaignConfig {
            users: 300,
            shards: 1,
            workers: 1,
            seed: 5,
        };
        let single = run_campaign_on(&study, &cfg);
        let sharded = run_campaign_on(&study, &CampaignConfig { shards: 32, ..cfg });
        // Same aggregate regardless of shard partitioning (the merge
        // law, end to end); peak-state differs by design.
        assert_eq!(
            appvsweb_json::encode(&single.aggregate),
            appvsweb_json::encode(&sharded.aggregate)
        );
        assert!(single.aggregate.is_exact());
    }

    #[test]
    fn aggregate_is_plausible() {
        let study = tiny_study();
        let report = run_campaign_on(
            &study,
            &CampaignConfig {
                users: 400,
                shards: 8,
                workers: 4,
                seed: 2016,
            },
        );
        let agg = &report.aggregate;
        assert_eq!(agg.users, 400);
        assert!(agg.sessions > 400, "multiple sessions per user");
        assert!(agg.users_leaking > 0);
        assert!(agg.users_leaking <= agg.users);
        assert!(agg.leak_instances > 0);
        assert!(agg.pii.contains_key(&PiiType::UniqueId));
        let uid = &agg.pii[&PiiType::UniqueId];
        assert_eq!(uid.web_instances, 0, "hardware ids leak only via apps");
        assert!(uid.app_instances > 0);
        assert!(agg.leak_orgs.count("tracker") > 0);
        assert!(agg.org_reach.count("tracker") <= agg.users);
        assert!(!agg.figures.is_empty());
        assert!(report.peak_state_bytes > 0);
    }

    #[test]
    fn memory_is_constant_in_user_count() {
        let study = tiny_study();
        let at = |users: u64| {
            run_campaign_on(
                &study,
                &CampaignConfig {
                    users,
                    shards: 8,
                    workers: 4,
                    seed: 3,
                },
            )
            .peak_state_bytes
        };
        let small = at(1_000);
        let large = at(8_000);
        assert!(
            large <= small.saturating_mul(2),
            "8x the users must not grow shard state: {small} -> {large} bytes"
        );
    }

    #[test]
    fn real_catalog_universe_is_rank_ordered() {
        // Spot-check CellTable against the real catalog shape without
        // running the simulator: build a study of empty cells.
        let catalog = Catalog::paper();
        let mut cells = Vec::new();
        for os in [Os::Android, Os::Ios] {
            for spec in catalog.testable_on(os) {
                cells.push(CellAnalysis {
                    service_id: spec.id.to_string(),
                    service_name: spec.name.to_string(),
                    category: spec.category,
                    rank: spec.rank,
                    os,
                    medium: Medium::App,
                    aa_domains: BTreeSet::new(),
                    aa_flows: 0,
                    aa_bytes: 0,
                    total_flows: 0,
                    leaks: Vec::new(),
                    leak_domains: BTreeSet::new(),
                    leaked_types: BTreeSet::new(),
                    per_type: BTreeMap::new(),
                    per_domain_leaks: BTreeMap::new(),
                    per_domain_types: BTreeMap::new(),
                    fault_counts: FaultCounts::default(),
                    retries: 0,
                });
            }
        }
        let study = Study {
            cells,
            health: Default::default(),
        };
        let table = CellTable::compile(&study);
        assert_eq!(table.universe.android.len(), 49);
        assert_eq!(table.universe.ios.len(), 49);
    }
}
