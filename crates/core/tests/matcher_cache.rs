//! Pins the compiled-dictionary cache guarantee: one Aho–Corasick build
//! per distinct ground-truth identity per study, at any worker count,
//! and zero rebuilds on a repeat run. This is the fix for the old per-cell
//! `GroundTruthMatcher::new` rebuild (each ~ms of automaton
//! construction, 196 times per campaign).
//!
//! Lives in its own test binary: the build/hit counters are
//! process-wide, so the assertions must not race unrelated tests that
//! compile dictionaries of their own.

use appvsweb_core::study::{run_study, StudyConfig};
use appvsweb_netsim::SimDuration;
use appvsweb_pii::cache;

#[test]
fn study_compiles_each_identity_once() {
    // A seed no other fixture uses, so every identity in this study is
    // cold in the process-wide cache when the test starts.
    let cfg = StudyConfig {
        seed: 0x00D1_C7CA,
        duration: SimDuration::from_mins(1),
        use_recon: false,
        workers: 1,
        ..StudyConfig::default()
    };

    let before = cache::stats();
    let first = run_study(&cfg);
    let mid = cache::stats();
    let cells = first.cells.len() as u64;
    // One build per (service, OS) identity — the two mediums of each
    // identity share a single compilation.
    assert_eq!(
        mid.builds - before.builds,
        cells / 2,
        "expected exactly one dictionary build per distinct identity"
    );
    assert!(
        mid.hits - before.hits >= cells / 2,
        "remaining cells must hit the cache"
    );

    // An identical second study performs zero automaton builds.
    let second = run_study(&cfg);
    let after = cache::stats();
    assert_eq!(
        after.builds, mid.builds,
        "repeat study must not recompile any dictionary"
    );
    assert!(after.hits - mid.hits >= cells);

    // And sharing the compiled dictionary does not perturb results.
    assert_eq!(
        appvsweb_json::encode(&first),
        appvsweb_json::encode(&second)
    );

    // Two workers racing over a fresh seed's identities still compile
    // each exactly once: a worker that finds an identity mid-build
    // waits for it instead of building its own copy.
    let raced = StudyConfig {
        seed: 0x00D1_C7CB,
        workers: 2,
        ..cfg
    };
    let before = cache::stats();
    let study = run_study(&raced);
    let after = cache::stats();
    assert_eq!(
        after.builds - before.builds,
        study.cells.len() as u64 / 2,
        "racing workers must not compile an identity twice"
    );
}
