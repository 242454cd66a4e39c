//! The full study: 50 services × 2 OSes × 2 media.
//!
//! Reproduces the paper's campaign (§3.3: "We manually tested online
//! services over app and Web versions … between March 23 and May 11,
//! 2016"), compressed to simulated time. The runner:
//!
//! 1. trains the ReCon classifier on a training subset of cells (using
//!    ground-truth labels from the matcher, exactly how the ReCon
//!    corpus was labelled),
//! 2. runs every (service, OS, medium) cell through its own
//!    deterministic testbed, in parallel across worker threads,
//! 3. analyzes each trace with the combined detector and the EasyList
//!    categorizer, producing the [`Study`] dataset every table and
//!    figure builder consumes.

use crate::testbed::Testbed;
use appvsweb_adblock::Categorizer;
use appvsweb_analysis::{analyze_trace, CellAnalysis, CellFailure, Study, StudyHealth};
use appvsweb_httpsim::Host;
use appvsweb_json::JsonKey;
use appvsweb_netsim::{rng_labels, FaultKind, FaultPlan, Os, SimDuration, SimRng};
use appvsweb_pii::recon::{ReconClassifier, ReconTrainer, TrainingFlow, TreeConfig};
use appvsweb_pii::CombinedDetector;
use appvsweb_services::{Catalog, Medium, ServiceSpec, SessionConfig};
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One (service, OS, medium) coordinate of the campaign grid.
///
/// The canonical text form is the `service/Os/Medium` label the health
/// ledger, the obs journal, and the `repro trace --cell` flag already
/// use (e.g. `yelp/Android/App`).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CellId {
    /// Service slug from the catalog.
    pub service: String,
    /// Test phone OS.
    pub os: Os,
    /// App or Web.
    pub medium: Medium,
}

impl CellId {
    /// Build a cell id from its parts.
    pub fn new(service: &str, os: Os, medium: Medium) -> Self {
        CellId {
            service: service.to_string(),
            os,
            medium,
        }
    }

    /// Parse the canonical `service/Os/Medium` label.
    pub fn parse(label: &str) -> Result<CellId, StudyConfigError> {
        let mut parts = label.splitn(3, '/');
        let (Some(service), Some(os), Some(medium)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(StudyConfigError::BadCellLabel(label.to_string()));
        };
        if service.is_empty() {
            return Err(StudyConfigError::BadCellLabel(label.to_string()));
        }
        let os = Os::from_key(os).map_err(|_| StudyConfigError::BadCellLabel(label.to_string()))?;
        let medium = Medium::from_key(medium)
            .map_err(|_| StudyConfigError::BadCellLabel(label.to_string()))?;
        Ok(CellId {
            service: service.to_string(),
            os,
            medium,
        })
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{:?}/{:?}", self.service, self.os, self.medium)
    }
}

appvsweb_json::impl_json!(struct CellId { service, os, medium });

/// Which cells of the catalog a campaign covers.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum CellSelection {
    /// Every testable (service, OS, medium) cell — the paper's grid.
    #[default]
    All,
    /// An explicit cell list (validated: known services, available on
    /// the requested OS, and duplicate-free).
    Explicit(Vec<CellId>),
    /// Every n-th cell of the full grid, in grid order. This is the
    /// load-shedding degradation: an overloaded queue runs a thinner,
    /// still OS/medium-balanced sample instead of refusing the job.
    Strided(u32),
}

/// Why a [`StudyConfig`] was rejected before any cell ran. Silent
/// degeneracies (duplicate cells double-counting a service, zero-length
/// sessions producing empty-but-plausible reports) are structured
/// errors instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StudyConfigError {
    /// The session duration is zero; every trace would be empty.
    ZeroDuration,
    /// A strided selection with stride 0 selects nothing meaningfully.
    ZeroStride,
    /// The same (service, OS, medium) cell appears twice.
    DuplicateCell(String),
    /// No such service slug in the catalog.
    UnknownService(String),
    /// The service exists but is not testable on the requested OS.
    UnavailableCell(String),
    /// A cell label did not parse as `service/Os/Medium`.
    BadCellLabel(String),
    /// A named fault-plan preset does not exist.
    BadFaultPreset(String),
}

impl fmt::Display for StudyConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyConfigError::ZeroDuration => {
                write!(f, "zero-duration campaign: sessions would capture nothing")
            }
            StudyConfigError::ZeroStride => write!(f, "cell stride must be at least 1"),
            StudyConfigError::DuplicateCell(cell) => {
                write!(f, "duplicate cell in campaign spec: {cell}")
            }
            StudyConfigError::UnknownService(id) => {
                write!(f, "unknown service in campaign spec: {id}")
            }
            StudyConfigError::UnavailableCell(cell) => {
                write!(f, "cell not testable on that OS: {cell}")
            }
            StudyConfigError::BadCellLabel(label) => {
                write!(f, "cell label must be service/Os/Medium: {label:?}")
            }
            StudyConfigError::BadFaultPreset(name) => {
                write!(f, "no such fault-plan preset: {name:?}")
            }
        }
    }
}

impl std::error::Error for StudyConfigError {}

/// Study parameters.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Experiment seed; the whole campaign is a pure function of it.
    pub seed: u64,
    /// Session duration (4 minutes in the paper).
    pub duration: SimDuration,
    /// Worker threads (1 = fully sequential).
    pub workers: usize,
    /// Train and use the ReCon classifier (disable for the
    /// matcher-only ablation).
    pub use_recon: bool,
    /// Fault plan applied to every measurement cell. The default
    /// ([`FaultPlan::none`]) reproduces the golden dataset byte for
    /// byte; classifier training always runs fault-free.
    pub faults: FaultPlan,
    /// Attempts per cell before recording it failed (1 = no retry).
    pub cell_attempts: u32,
    /// Which cells of the grid to run (default: all of them).
    pub cells: CellSelection,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: 2016,
            duration: SimDuration::from_mins(4),
            workers: crate::exec::available_workers(),
            use_recon: true,
            faults: FaultPlan::none(),
            cell_attempts: 2,
            cells: CellSelection::All,
        }
    }
}

impl StudyConfig {
    /// Reject configurations that would silently produce degenerate
    /// reports: zero-duration campaigns and duplicate or unknown cells.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), StudyConfigError> {
        if self.duration == SimDuration::ZERO {
            return Err(StudyConfigError::ZeroDuration);
        }
        campaign_cells(catalog, &self.cells).map(|_| ())
    }
}

/// Resolve a [`CellSelection`] against the catalog into the concrete
/// work list, in grid order (OS-major, catalog order, then medium for
/// `All`/`Strided`; spec order for `Explicit`).
pub fn campaign_cells<'a>(
    catalog: &'a Catalog,
    selection: &CellSelection,
) -> Result<Vec<(&'a ServiceSpec, Os, Medium)>, StudyConfigError> {
    let grid = |stride: usize| -> Vec<(&ServiceSpec, Os, Medium)> {
        let mut work = Vec::new();
        for os in [Os::Android, Os::Ios] {
            for spec in catalog.testable_on(os) {
                for medium in Medium::BOTH {
                    work.push((spec, os, medium));
                }
            }
        }
        work.into_iter().step_by(stride).collect()
    };
    match selection {
        CellSelection::All => Ok(grid(1)),
        CellSelection::Strided(0) => Err(StudyConfigError::ZeroStride),
        CellSelection::Strided(n) => Ok(grid(*n as usize)),
        CellSelection::Explicit(cells) => {
            let mut seen = BTreeSet::new();
            let mut work = Vec::with_capacity(cells.len());
            for cell in cells {
                if !seen.insert(cell.clone()) {
                    return Err(StudyConfigError::DuplicateCell(cell.to_string()));
                }
                let spec = catalog
                    .get(&cell.service)
                    .ok_or_else(|| StudyConfigError::UnknownService(cell.service.clone()))?;
                if !catalog.testable_on(cell.os).any(|s| s.id == spec.id) {
                    return Err(StudyConfigError::UnavailableCell(cell.to_string()));
                }
                work.push((spec, cell.os, cell.medium));
            }
            Ok(work)
        }
    }
}

/// Services used to train ReCon (their traces are still measured; the
/// original ReCon was likewise trained on labelled traffic from the
/// same ecosystem it later classified).
const TRAINING_SERVICES: &[&str] = &["weather-channel", "shopmart", "study-pal", "chatterbox"];

/// Train the ReCon ensemble from matcher-labelled training flows.
pub fn train_recon(catalog: &Catalog, cfg: &StudyConfig) -> ReconClassifier {
    let mut trainer = ReconTrainer::new();
    // Training always runs fault-free: the classifier must learn from
    // clean labelled flows regardless of the measurement plan.
    let session_cfg = SessionConfig {
        duration: cfg.duration,
        seed: cfg.seed ^ 0x7261_696e, // distinct stream from measurement
        ..SessionConfig::default()
    };
    for id in TRAINING_SERVICES {
        let Some(spec) = catalog.get(id) else {
            continue;
        };
        for os in [Os::Android, Os::Ios] {
            let mut tb = Testbed::for_cell(spec, os, session_cfg.seed);
            let matcher = appvsweb_pii::cache::compiled(&tb.truth);
            for medium in Medium::BOTH {
                // Training sessions journal under a `train/` pseudo-cell
                // id; they run on the main thread before any worker.
                let _scope =
                    appvsweb_obs::cell_scope(&format!("train/{}/{os:?}/{medium:?}", spec.id));
                let trace = tb.run_session(spec, os, medium, &session_cfg);
                for txn in &trace.transactions {
                    let text = appvsweb_analysis::leaks::scan_text_of(&txn.request);
                    let labels: BTreeSet<_> = matcher.types_in(&text).into_iter().collect();
                    trainer.add(TrainingFlow {
                        domain: Host::new(&txn.host).registrable_domain(),
                        text,
                        labels,
                    });
                }
            }
        }
    }
    trainer.train(&TreeConfig::default())
}

/// Run one cell: session + analysis.
pub fn run_cell(
    spec: &ServiceSpec,
    os: Os,
    medium: Medium,
    cfg: &StudyConfig,
    recon: Option<&ReconClassifier>,
) -> CellAnalysis {
    run_cell_attempt(spec, os, medium, cfg, recon, 0)
}

/// One attempt at a cell. The attempt number salts the injected-panic
/// roll, so a cell that crashed once can succeed on retry (unless the
/// plan pins `cell_panic` at 1.0).
fn run_cell_attempt(
    spec: &ServiceSpec,
    os: Os,
    medium: Medium,
    cfg: &StudyConfig,
    recon: Option<&ReconClassifier>,
    attempt: u32,
) -> CellAnalysis {
    if cfg.faults.cell_panic > 0.0 {
        let mut rng =
            SimRng::new(cfg.seed).fork(&rng_labels::cell_panic(spec.id, os, medium, attempt));
        if rng.chance(cfg.faults.cell_panic) {
            // lint:allow(R1) deliberate fault injection; run_study_resilient catches it
            panic!(
                "injected {:?}: cell {}/{:?}/{:?} attempt {attempt}",
                FaultKind::CellPanic,
                spec.id,
                os,
                medium
            );
        }
    }
    let session_cfg = SessionConfig {
        duration: cfg.duration,
        seed: cfg.seed,
        faults: cfg.faults.clone(),
        ..SessionConfig::default()
    };
    let mut tb = Testbed::for_cell(spec, os, cfg.seed);
    let trace = tb.run_session(spec, os, medium, &session_cfg);
    let detector = CombinedDetector::new(&tb.truth, recon.cloned());
    let categorizer = Categorizer::bundled(spec.first_party);
    analyze_trace(&trace, spec, os, medium, &detector, &categorizer)
}

/// Outcome of one cell, including the attempts its isolation loop spent.
///
/// Public so external supervisors (the `appvsweb-serve` queue/worker
/// substrate) can run cells attempt-by-attempt with their own retry
/// policy and still fold results through [`fold_outcomes`] into the
/// same ledger the batch runner produces.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// Cell label, `service/Os/Medium`.
    pub label: String,
    /// The analysis, when any attempt survived.
    pub cell: Option<CellAnalysis>,
    /// Attempts spent (completed + panicked).
    pub attempts: u32,
    /// Panicked attempts.
    pub panics: u64,
    /// Payload string of the last panic, when any attempt panicked.
    pub panic_msg: Option<String>,
}

/// Best-effort string form of a `catch_unwind` payload. Panics raised
/// with `panic!("…")` carry `&str` or `String`; anything else gets a
/// placeholder rather than being dropped on the floor.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One isolated attempt at a cell: the panic boundary without the retry
/// loop. `Err` carries the panic payload. This is the worker primitive
/// the supervised queue executor schedules; [`run_cell_guarded`] is the
/// batch runner's bounded-retry loop over it.
pub fn run_cell_caught(
    spec: &ServiceSpec,
    os: Os,
    medium: Medium,
    cfg: &StudyConfig,
    recon: Option<&ReconClassifier>,
    attempt: u32,
) -> Result<CellAnalysis, String> {
    catch_unwind(AssertUnwindSafe(|| {
        run_cell_attempt(spec, os, medium, cfg, recon, attempt)
    }))
    .map_err(|payload| panic_message(payload.as_ref()))
}

/// Run a cell inside a panic boundary with bounded retry. A cell that
/// keeps crashing is recorded as failed instead of taking the whole
/// campaign down.
fn run_cell_guarded(
    spec: &ServiceSpec,
    os: Os,
    medium: Medium,
    cfg: &StudyConfig,
    recon: Option<&ReconClassifier>,
) -> CellOutcome {
    let label = format!("{}/{:?}/{:?}", spec.id, os, medium);
    // The cell scope and per-attempt span live *outside* the panic
    // boundary, so an unwinding attempt still closes them exactly once;
    // spans opened inside the attempt close during the unwind itself.
    let _scope = appvsweb_obs::cell_scope(&label);
    appvsweb_obs::counter!("study.cells_scheduled");
    let allowed = cfg.cell_attempts.max(1);
    let mut panics = 0u64;
    let mut panic_msg = None;
    for attempt in 0..allowed {
        let _attempt = appvsweb_obs::span!("study.cell_attempt", "attempt={attempt}");
        if attempt > 0 {
            appvsweb_obs::counter!("study.cell_retries");
        }
        match run_cell_caught(spec, os, medium, cfg, recon, attempt) {
            Ok(cell) => {
                return CellOutcome {
                    label,
                    cell: Some(cell),
                    attempts: attempt + 1,
                    panics,
                    panic_msg,
                }
            }
            Err(msg) => {
                panics += 1;
                appvsweb_obs::counter!("study.cell_panics");
                appvsweb_obs::event!("study.cell_panic", "attempt={attempt} {msg}");
                panic_msg = Some(msg);
            }
        }
    }
    CellOutcome {
        label,
        cell: None,
        attempts: allowed,
        panics,
        panic_msg,
    }
}

/// Run one cell under its own journal capture, returning the analysis
/// (when the cell survives its attempts) together with everything it
/// recorded — including `train/`-free single-cell traces for
/// `repro trace --cell` and the golden-trace tests.
///
/// Takes over the process-wide capture; callers must not already be
/// inside [`appvsweb_obs::capture_begin`].
pub fn run_cell_journal(
    spec: &ServiceSpec,
    os: Os,
    medium: Medium,
    cfg: &StudyConfig,
    recon: Option<&ReconClassifier>,
) -> (Option<CellAnalysis>, appvsweb_obs::StudyJournal) {
    appvsweb_obs::capture_begin();
    let outcome = run_cell_guarded(spec, os, medium, cfg, recon);
    (outcome.cell, appvsweb_obs::capture_end())
}

/// Fold per-cell outcomes into the dataset + ledger. Every aggregate
/// here is order-independent (sums and sorted lists), so the result is
/// identical no matter how workers interleaved. Shared by the batch
/// runner and the supervised `appvsweb-serve` executor.
pub fn fold_outcomes(outcomes: Vec<CellOutcome>) -> Study {
    let mut health = StudyHealth {
        cells_attempted: outcomes.len() as u64,
        ..StudyHealth::default()
    };
    let mut cells: Vec<CellAnalysis> = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        health.faults.cell_panics += outcome.panics;
        match outcome.cell {
            Some(cell) => {
                health.cells_completed += 1;
                if outcome.attempts > 1 {
                    health.cells_retried += 1;
                }
                health.faults.merge(&cell.fault_counts);
                health.session_retries += cell.retries;
                cells.push(cell);
            }
            None => {
                health.cells_failed += 1;
                health.failed_cells.push(outcome.label.clone());
                health.failures.push(CellFailure {
                    cell: outcome.label,
                    error: outcome
                        .panic_msg
                        .unwrap_or_else(|| "panic payload unavailable".to_string()),
                });
            }
        }
    }
    health.failed_cells.sort();
    health.failures.sort_by(|a, b| a.cell.cmp(&b.cell));

    // Deterministic output order regardless of worker scheduling.
    cells.sort_by(|a, b| {
        (a.service_id.clone(), a.os, a.medium).cmp(&(b.service_id.clone(), b.os, b.medium))
    });
    Study { cells, health }
}

/// Run the study with the configuration validated first: duplicate
/// cells, unknown services, and zero-duration campaigns come back as
/// structured errors instead of degenerate reports.
pub fn run_study_checked(cfg: &StudyConfig) -> Result<Study, StudyConfigError> {
    let catalog = Catalog::paper();
    if cfg.duration == SimDuration::ZERO {
        return Err(StudyConfigError::ZeroDuration);
    }
    // Work list: the selected cells of the full grid (48 Android / 50
    // iOS services × 2 media, Table 1), validated against the catalog.
    let work = campaign_cells(&catalog, &cfg.cells)?;
    let recon = if cfg.use_recon {
        Some(train_recon(&catalog, cfg))
    } else {
        None
    };

    // Work-stealing over cells (chunk = 1: cells are ragged — a heavy
    // web cell can cost several light app cells — so fine-grained
    // stealing beats the old static partition). Results come back in
    // work-list order, and the fold below is order-independent anyway.
    let outcomes: Vec<CellOutcome> =
        crate::exec::run_indexed(&work, cfg.workers.max(1), 1, |_, (spec, os, medium)| {
            run_cell_guarded(spec, *os, *medium, cfg, recon.as_ref())
        });
    Ok(fold_outcomes(outcomes))
}

/// Run the full study over the paper catalog.
pub fn run_study(cfg: &StudyConfig) -> Study {
    match run_study_checked(cfg) {
        Ok(study) => study,
        // Reviewed invariant: every in-tree caller passes a validated
        // config; programmatic misuse should fail loudly here.
        // lint:allow(R1) checked delegation to run_study_checked
        Err(err) => panic!("invalid StudyConfig: {err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> StudyConfig {
        // One simulated minute keeps unit tests fast; integration tests
        // and benches run the full four.
        StudyConfig {
            seed: 2016,
            duration: SimDuration::from_mins(1),
            workers: crate::exec::available_workers(),
            use_recon: false,
            ..StudyConfig::default()
        }
    }

    #[test]
    fn study_covers_all_cells() {
        let study = run_study(&quick_cfg());
        // 49 services on Android (one iOS-only) + 49 on iOS, × 2 media.
        let android = study.cells.iter().filter(|c| c.os == Os::Android).count();
        let ios = study.cells.iter().filter(|c| c.os == Os::Ios).count();
        assert_eq!(android + ios, 196);
        // Golden path: a clean ledger with zero faults.
        assert!(study.health.is_complete());
        assert!(study.health.all_accounted());
        assert_eq!(study.health.cells_attempted, 196);
        assert_eq!(study.health.faults.total(), 0);
        assert_eq!(study.health.session_retries, 0);
        let apps = study
            .cells
            .iter()
            .filter(|c| c.medium == Medium::App)
            .count();
        assert_eq!(apps * 2, android + ios);
    }

    #[test]
    fn study_is_deterministic_across_worker_counts() {
        let seq = run_study(&StudyConfig {
            workers: 1,
            ..quick_cfg()
        });
        let par = run_study(&StudyConfig {
            workers: 4,
            ..quick_cfg()
        });
        assert_eq!(seq.cells.len(), par.cells.len());
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            assert_eq!(a.service_id, b.service_id);
            assert_eq!(a.aa_flows, b.aa_flows);
            assert_eq!(a.leaked_types, b.leaked_types);
            assert_eq!(a.leak_count(), b.leak_count());
        }
    }

    #[test]
    fn chaotic_study_accounts_for_every_cell() {
        let study = run_study(&StudyConfig {
            faults: FaultPlan::moderate(),
            ..quick_cfg()
        });
        let h = &study.health;
        assert!(h.all_accounted(), "completed + failed must equal attempted");
        assert_eq!(h.cells_attempted, 196);
        assert_eq!(study.cells.len() as u64, h.cells_completed);
        assert!(h.faults.total() > 0, "a 5% plan must inject faults");
        assert!(h.session_retries > 0, "clients must have retried");
    }

    #[test]
    fn recon_training_produces_models() {
        let catalog = Catalog::paper();
        let clf = train_recon(&catalog, &quick_cfg());
        assert!(clf.domain_model_count() > 0, "per-domain models expected");
    }

    #[test]
    fn duplicate_cells_are_rejected_with_a_structured_error() {
        let cell = CellId::new("yelp", Os::Android, Medium::App);
        let cfg = StudyConfig {
            cells: CellSelection::Explicit(vec![cell.clone(), cell.clone()]),
            ..quick_cfg()
        };
        let err = run_study_checked(&cfg).expect_err("duplicate cell must be rejected");
        assert_eq!(err, StudyConfigError::DuplicateCell(cell.to_string()));
        assert_eq!(
            cfg.validate(&Catalog::paper()),
            Err(StudyConfigError::DuplicateCell("yelp/Android/App".into()))
        );
    }

    #[test]
    fn zero_duration_campaigns_are_rejected() {
        let cfg = StudyConfig {
            duration: SimDuration::ZERO,
            ..quick_cfg()
        };
        assert_eq!(
            run_study_checked(&cfg).expect_err("zero duration must be rejected"),
            StudyConfigError::ZeroDuration
        );
        assert_eq!(
            cfg.validate(&Catalog::paper()),
            Err(StudyConfigError::ZeroDuration)
        );
    }

    #[test]
    fn unknown_and_unavailable_cells_are_rejected() {
        let unknown = StudyConfig {
            cells: CellSelection::Explicit(vec![CellId::new("no-such", Os::Ios, Medium::Web)]),
            ..quick_cfg()
        };
        assert_eq!(
            run_study_checked(&unknown).expect_err("unknown service"),
            StudyConfigError::UnknownService("no-such".into())
        );
        // big-medical is the paper's iOS-only service (Table 1: 48
        // Android / 50 iOS).
        let catalog = Catalog::paper();
        let ios_only = catalog
            .all()
            .iter()
            .find(|s| !catalog.testable_on(Os::Android).any(|a| a.id == s.id))
            .expect("one iOS-only service exists");
        let unavailable = StudyConfig {
            cells: CellSelection::Explicit(vec![CellId::new(
                ios_only.id,
                Os::Android,
                Medium::App,
            )]),
            ..quick_cfg()
        };
        assert!(matches!(
            run_study_checked(&unavailable),
            Err(StudyConfigError::UnavailableCell(_))
        ));
    }

    #[test]
    fn explicit_selection_runs_exactly_those_cells_in_spec_order() {
        let cells = vec![
            CellId::new("yelp", Os::Ios, Medium::Web),
            CellId::new("yelp", Os::Ios, Medium::App),
            CellId::new("grubhub", Os::Android, Medium::App),
        ];
        let study = run_study_checked(&StudyConfig {
            cells: CellSelection::Explicit(cells.clone()),
            ..quick_cfg()
        })
        .expect("explicit selection runs");
        assert_eq!(study.cells.len(), 3);
        assert_eq!(study.health.cells_attempted, 3);
        // Output order is the deterministic sorted order, not spec order.
        let got: Vec<String> = study
            .cells
            .iter()
            .map(|c| format!("{}/{:?}/{:?}", c.service_id, c.os, c.medium))
            .collect();
        let mut expect: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        expect.sort();
        assert_eq!(got, expect);
    }

    #[test]
    fn strided_selection_thins_the_grid_deterministically() {
        let catalog = Catalog::paper();
        let full = campaign_cells(&catalog, &CellSelection::All).unwrap();
        let thin = campaign_cells(&catalog, &CellSelection::Strided(4)).unwrap();
        assert_eq!(thin.len(), full.len().div_ceil(4));
        for (i, cell) in thin.iter().enumerate() {
            assert_eq!(cell.0.id, full[i * 4].0.id);
        }
        assert_eq!(
            campaign_cells(&catalog, &CellSelection::Strided(0)).unwrap_err(),
            StudyConfigError::ZeroStride
        );
    }

    #[test]
    fn cell_id_labels_roundtrip() {
        for label in ["yelp/Android/App", "bbc-news/Ios/Web"] {
            let cell = CellId::parse(label).expect("label parses");
            assert_eq!(cell.to_string(), label);
        }
        for bad in ["", "yelp", "yelp/Android", "yelp/Linux/App", "/Android/App"] {
            assert!(matches!(
                CellId::parse(bad),
                Err(StudyConfigError::BadCellLabel(_))
            ));
        }
    }

    #[test]
    fn run_cell_caught_surfaces_panic_payloads() {
        let catalog = Catalog::paper();
        let spec = catalog.get("yelp").unwrap();
        let cfg = StudyConfig {
            faults: FaultPlan {
                cell_panic: 1.0,
                ..FaultPlan::none()
            },
            ..quick_cfg()
        };
        // Silence the backtrace of the deliberate panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = run_cell_caught(spec, Os::Android, Medium::App, &cfg, None, 0);
        std::panic::set_hook(prev);
        let err = result.expect_err("pinned cell_panic must fire");
        assert!(err.contains("injected"), "payload preserved: {err}");
    }

    #[test]
    fn single_cell_run_smoke() {
        let catalog = Catalog::paper();
        let spec = catalog.get("grubhub").unwrap();
        let cell = run_cell(spec, Os::Android, Medium::App, &quick_cfg(), None);
        assert!(
            cell.leaked(),
            "Grubhub app leaks (password to taplytics at minimum)"
        );
        assert!(cell.leak_domains.contains("taplytics.com"));
    }
}
