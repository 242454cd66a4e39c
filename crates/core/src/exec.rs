//! A work-stealing batch executor shared by the study runner and the
//! population campaign.
//!
//! Workers claim chunks of the item list from a shared atomic cursor —
//! a chunked work queue, so a worker that finishes early steals the
//! next chunk instead of idling behind a static partition. Results
//! carry their item index back over a channel and are re-slotted into
//! input order, so the output is a pure function of `(items, f)`:
//! worker count and scheduling interleavings cannot reorder it. That is
//! the first half of the workspace's byte-determinism guarantee; the
//! second half is that every consumer folds the ordered results with
//! order-independent (or explicitly ordered) reductions.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// The default worker count: the host's available parallelism (4 when
/// it cannot be queried), capped at 16.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// Map `f` over `items` on `workers` threads, returning results in
/// item order regardless of scheduling.
///
/// `chunk` is the steal granularity: how many consecutive items a
/// worker claims per trip to the shared cursor (clamped to ≥ 1). Small
/// chunks balance ragged workloads; larger chunks amortize contention.
/// `workers <= 1` runs inline on the caller's thread — the parallel
/// path must produce byte-identical downstream results, which
/// `tests/population_golden.rs` and the study worker-invariance tests
/// pin.
pub fn run_indexed<T, R, F>(items: &[T], workers: usize, chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let chunk = chunk.max(1);
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= items.len() {
                    break;
                }
                let end = start.saturating_add(chunk).min(items.len());
                for (i, item) in items.iter().enumerate().skip(start).take(end - start) {
                    // Receiver outlives every sender in this scope.
                    let _ = tx.send((i, f(i, item)));
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for (i, result) in rx {
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(result);
            }
        }
        // Every index is sent exactly once, so this drops nothing.
        slots.into_iter().flatten().collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_item_order_for_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|v| v * 3).collect();
        for workers in [1, 2, 3, 8, 64] {
            for chunk in [1, 4, 1000] {
                let got = run_indexed(&items, workers, chunk, |_, &v| v * 3);
                assert_eq!(got, expect, "workers={workers} chunk={chunk}");
            }
        }
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let calls = AtomicU64::new(0);
        let items: Vec<usize> = (0..100).collect();
        let got = run_indexed(&items, 8, 3, |i, &v| {
            calls.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, v);
            i
        });
        assert_eq!(got.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn handles_empty_and_single_item_lists() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed(&empty, 8, 4, |_, &v| v).is_empty());
        assert_eq!(run_indexed(&[7u8], 8, 4, |_, &v| v + 1), vec![8]);
    }

    #[test]
    fn zero_chunk_and_zero_workers_are_clamped() {
        let items: Vec<u64> = (0..10).collect();
        assert_eq!(run_indexed(&items, 0, 0, |_, &v| v), items);
    }
}
