//! In-process edge coverage for the fuzzing engine.
//!
//! Parser crates mark interesting control-flow points with [`cover!`];
//! each call site hashes its `file!()`/`line!()`/`column!()` into a slot
//! of a fixed global counter map at *compile time*, so the runtime cost
//! of a hit is one relaxed load (the enable check) plus, while a fuzzer
//! is driving, one swap and one add. AFL-style edge mixing — the slot
//! actually bumped is `hash(previous site) ^ hash(current site)` — makes
//! the map sensitive to *paths*, not just to which lines ran.
//!
//! Coverage is **off by default**: outside a fuzz run the macro costs a
//! single relaxed atomic load and no writes, so instrumented parsers in
//! the golden-path study never contend on the map. The fuzz engine in
//! `appvsweb-testkit` flips it on around each deterministic exec,
//! snapshots the hit counts, and diffs them against its seen-set.
//!
//! Everything here is deterministic under a single driving thread: the
//! same input through the same instrumented code touches the same slots
//! the same number of times. (The engine serializes fuzz runs behind a
//! lock for exactly that reason.) Hits count only on the thread that
//! called [`enable`], so instrumented code running concurrently on other
//! threads — other tests in the same test binary — cannot perturb a
//! fuzz run's map.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

/// Number of slots in the global edge map. Collisions merely merge
/// edges (coverage becomes slightly coarser), so a few thousand slots
/// comfortably hold the workspace's few hundred instrumented sites.
pub const MAP_SIZE: usize = 1 << 12;

/// Mask applied to site hashes; `MAP_SIZE` is a power of two.
const MASK: usize = MAP_SIZE - 1;

static ENABLED: AtomicBool = AtomicBool::new(false);
static PREV: AtomicUsize = AtomicUsize::new(0);
static HITS: [AtomicU32; MAP_SIZE] = [const { AtomicU32::new(0) }; MAP_SIZE];

thread_local! {
    /// Whether this thread is the one that enabled the map.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Turn the map on for the calling thread. Call [`reset`] first for a
/// clean slate.
pub fn enable() {
    ACTIVE.with(|a| a.set(true));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the map off; [`cover!`] reverts to a single load per hit.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    ACTIVE.with(|a| a.set(false));
}

/// Whether the map is on (hits count on the thread that enabled it).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every counter and the edge-mixing state.
pub fn reset() {
    PREV.store(0, Ordering::Relaxed);
    for slot in &HITS {
        slot.store(0, Ordering::Relaxed);
    }
}

/// Record a hit at the compile-time site hash `site`. Prefer the
/// [`cover!`] macro, which computes the hash as a constant.
#[inline]
pub fn hit(site: usize) {
    if !ENABLED.load(Ordering::Relaxed) || !ACTIVE.with(Cell::get) {
        return;
    }
    // AFL edge mixing: bump hash(prev → current), then shift the current
    // site right so A→B and B→A land in different slots.
    let prev = PREV.swap(site >> 1, Ordering::Relaxed);
    let slot = (site ^ prev) & MASK;
    if let Some(counter) = HITS.get(slot) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Append every `(slot, count)` with a nonzero counter to `out`.
pub fn nonzero_into(out: &mut Vec<(u16, u32)>) {
    for (slot, counter) in HITS.iter().enumerate() {
        let count = counter.load(Ordering::Relaxed);
        if count > 0 {
            out.push((slot as u16, count));
        }
    }
}

/// Number of slots with a nonzero counter right now.
pub fn edges_hit() -> usize {
    HITS.iter()
        .filter(|slot| slot.load(Ordering::Relaxed) > 0)
        .count()
}

/// FNV-1a over the call site's file, line, and column. `const`, so
/// [`cover!`] folds the whole computation into an integer literal.
pub const fn site(file: &str, line: u32, column: u32) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = file.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u64).wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    h = (h ^ line as u64).wrapping_mul(0x0000_0100_0000_01b3);
    h = (h ^ column as u64).wrapping_mul(0x0000_0100_0000_01b3);
    h as usize
}

/// Mark a control-flow point for edge coverage.
///
/// Expands to a constant site hash and a call to [`hit`]; with coverage
/// disabled the cost is one relaxed atomic load. Place one at each arm
/// of a parser's interesting decisions (token classes, error paths,
/// block types) — not inside per-byte loops.
#[macro_export]
macro_rules! cover {
    () => {{
        const SITE: usize = $crate::site(file!(), line!(), column!());
        $crate::hit(SITE);
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The map is global; tests that enable it must not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_map_records_nothing() {
        let _guard = LOCK.lock().unwrap();
        disable();
        reset();
        cover!();
        assert_eq!(edges_hit(), 0);
    }

    #[test]
    fn enabled_map_counts_hits_deterministically() {
        // The sites must be the same macro invocations both times —
        // cover!() hashes file/line/column, so a copy-pasted loop would
        // record different (equally valid) slots.
        fn run_once() {
            reset();
            enable();
            for _ in 0..3 {
                cover!();
                cover!();
            }
            disable();
        }
        let _guard = LOCK.lock().unwrap();
        run_once();
        let mut first = Vec::new();
        nonzero_into(&mut first);
        assert!(!first.is_empty());
        assert_eq!(first.iter().map(|&(_, c)| c).sum::<u32>(), 6);

        // Same run again → identical snapshot.
        run_once();
        let mut second = Vec::new();
        nonzero_into(&mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn other_threads_do_not_record() {
        let _guard = LOCK.lock().unwrap();
        reset();
        enable();
        std::thread::scope(|s| {
            s.spawn(|| cover!());
        });
        disable();
        assert_eq!(edges_hit(), 0);
    }

    #[test]
    fn distinct_sites_hash_distinctly() {
        let a = site("a.rs", 1, 1);
        let b = site("a.rs", 1, 2);
        let c = site("b.rs", 1, 1);
        assert_ne!(a & MASK, b & MASK);
        assert_ne!(a & MASK, c & MASK);
    }

    #[test]
    fn edge_mixing_distinguishes_order() {
        let _guard = LOCK.lock().unwrap();
        reset();
        enable();
        hit(10);
        hit(20);
        disable();
        let mut ab = Vec::new();
        nonzero_into(&mut ab);

        reset();
        enable();
        hit(20);
        hit(10);
        disable();
        let mut ba = Vec::new();
        nonzero_into(&mut ba);
        assert_ne!(ab, ba, "A→B and B→A must land in different slots");
    }
}
