//! Process-wide compiled-dictionary cache.
//!
//! Compiling a [`GroundTruthMatcher`] encodes every ground-truth value
//! under every search chain and builds two Aho–Corasick automata (about
//! 1 ms and under 256 KB per identity), and a study touches each of its
//! 98 distinct `(service, OS)` ground truths twice per worker shuffle.
//! The cache keys the compiled dictionary on the *content* of the
//! [`GroundTruth`] (its canonical JSON form), so every cell that shares
//! an identity shares one compilation. Correctness is unaffected:
//! compilation is a pure function of the truth, and the canonical-JSON
//! key means two equal truths can never disagree.
//!
//! Each key owns a slot that is inserted under the lock and filled
//! outside it: workers racing on one identity wait for its single
//! build, while lookups of other identities never block on a build.
//!
//! The cache is bounded: past [`CACHE_CAPACITY`] entries it is cleared
//! wholesale (the resident `repro serve` path churns through arbitrary
//! revisions and must not grow without bound). Build/hit counters are
//! exposed through [`stats`] so tests can pin "one build per identity".

use crate::matcher::GroundTruthMatcher;
use crate::profile::GroundTruth;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Entries retained before the cache is cleared wholesale.
pub const CACHE_CAPACITY: usize = 512;

/// Build/hit counters for the process-wide cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dictionaries compiled from scratch.
    pub builds: u64,
    /// Lookups that found their identity's slot already present
    /// (compiled, or being compiled by another worker).
    pub hits: u64,
}

static BUILDS: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);

/// One identity's matcher: filled exactly once, by whichever caller
/// gets there first.
type Slot = Arc<OnceLock<Arc<GroundTruthMatcher>>>;

fn cache() -> &'static Mutex<HashMap<String, Slot>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Slot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Fetch (or compile and memoize) the matcher for `truth`.
// lint:allow(T1) cache keying: the canonical JSON of the truth stays in-process as a map key; nothing leaves
pub fn compiled(truth: &GroundTruth) -> Arc<GroundTruthMatcher> {
    let key = appvsweb_json::encode(truth);
    let slot = {
        // A poisoned lock only means another thread panicked mid-insert;
        // the map itself is still coherent (inserts are single calls).
        let mut map = cache().lock().unwrap_or_else(|p| p.into_inner());
        match map.get(&key) {
            Some(slot) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                Arc::clone(slot)
            }
            None => {
                if map.len() >= CACHE_CAPACITY {
                    appvsweb_cover::cover!();
                    map.clear();
                }
                Arc::clone(map.entry(key).or_default())
            }
        }
    };
    // Compile outside the lock. A build that panics leaves the slot
    // empty, so the next caller retries it.
    let matcher = slot.get_or_init(|| {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        Arc::new(GroundTruthMatcher::new(truth))
    });
    Arc::clone(matcher)
}

/// Current build/hit counters.
pub fn stats() -> CacheStats {
    CacheStats {
        builds: BUILDS.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_truth_shares_one_dictionary() {
        // The build counter itself is pinned in `tests/cache_counters.rs`,
        // a test binary of its own: other unit tests here compile
        // dictionaries concurrently and would bump it.
        let truth = GroundTruth::synthetic(0xCAC4E).with_device(
            "Nexus 5",
            &[("imei", "354436069633711")],
            Some((42.361145, -71.057083)),
        );
        let a = compiled(&truth);
        let b = compiled(&truth.clone());
        assert!(
            Arc::ptr_eq(&a, &b),
            "equal truths must share one dictionary"
        );
    }

    #[test]
    fn distinct_truths_get_distinct_dictionaries() {
        let a = compiled(&GroundTruth::synthetic(1));
        let b = compiled(&GroundTruth::synthetic(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.candidate_count(), 0, "compiled matcher must be populated");
        assert_ne!(b.candidate_count(), 0);
    }

    #[test]
    fn cached_dictionary_equals_fresh_build() {
        let truth = GroundTruth::synthetic(77).with_device(
            "iPhone 5",
            &[("idfa", "AAAABBBB-CCCC-DDDD-EEEE-FFFF00001111")],
            Some((42.35, -71.06)),
        );
        let cached = compiled(&truth);
        let fresh = GroundTruthMatcher::new(&truth);
        assert_eq!(cached.candidate_count(), fresh.candidate_count());
        // Same scan behaviour on a representative flow.
        let flow = format!("GET /t?email={}&ll=42.35,-71.06 HTTP/1.1", truth.email);
        assert_eq!(cached.scan(&flow), fresh.scan(&flow));
    }
}
