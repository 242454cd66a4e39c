//! Pins the per-identity memory bound of the compiled PII dictionary:
//! every `(service, OS)` identity of the paper catalog compiles to a
//! [`GroundTruthMatcher`] — both Aho–Corasick automata, the candidate
//! table and its strings — in under 256 KB of heap. A dense
//! `[u32; 256]` row per automaton state took about 6 MB per identity;
//! this bound keeps such rows from quietly coming back.

use appvsweb_core::testbed::Testbed;
use appvsweb_netsim::Os;
use appvsweb_pii::GroundTruthMatcher;
use appvsweb_services::Catalog;

const BOUND: usize = 256 * 1024;

#[test]
fn every_paper_identity_compiles_under_256_kb() {
    let catalog = Catalog::paper();
    let mut identities = 0;
    for os in [Os::Android, Os::Ios] {
        for spec in catalog.testable_on(os) {
            let truth = Testbed::for_cell(spec, os, 2016).truth;
            let bytes = GroundTruthMatcher::new(&truth).heap_bytes();
            assert!(
                bytes < BOUND,
                "{}/{os:?} compiles to {bytes} bytes, over the {BOUND}-byte bound",
                spec.id
            );
            identities += 1;
        }
    }
    assert_eq!(identities, 98, "the paper grid has 98 identities");
}
