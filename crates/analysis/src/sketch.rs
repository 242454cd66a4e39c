//! Mergeable streaming sketches for population-scale aggregation.
//!
//! A 1M-user campaign cannot keep per-user samples: the shard states it
//! folds must be *sketches* — bounded-size summaries whose `merge` is a
//! homomorphism of stream concatenation. Both sketches here are built
//! around that law (and `tests/population_laws.rs` property-tests it):
//!
//! * [`QuantileSketch`] — a DDSketch-style log-bucketed quantile sketch
//!   with relative value error ≤ [`QUANTILE_ALPHA`]. Bucket counts form
//!   a commutative monoid under addition, so `merge(a, b)` is *exactly*
//!   the sketch of both streams, byte for byte, at any merge fan-in.
//! * [`TopKSketch`] — a space-saving-style heavy-hitter summary with
//!   total-order tie-breaking. Below its capacity it is an exact
//!   multiset of counts and obeys the same merge laws exactly; above
//!   capacity it evicts deterministically (smallest count first, ties
//!   by key) and records how much mass it dropped, so a campaign can
//!   *assert* it stayed in the exact regime.
//!
//! Both serialize via `impl_json!` into canonical sorted forms, which
//! is what makes "byte-identical across worker counts" a meaningful
//! test: equal states encode to equal bytes.

use std::collections::BTreeMap;

/// Relative value-error bound of [`QuantileSketch`]: a reported
/// `q`-quantile `v̂` satisfies `|v̂ - v| ≤ QUANTILE_ALPHA · |v|` for the
/// exact quantile `v` (nonzero, finite values).
pub const QUANTILE_ALPHA: f64 = 0.01;

/// Bucket growth factor `γ = (1 + α) / (1 - α)`.
const GAMMA: f64 = (1.0 + QUANTILE_ALPHA) / (1.0 - QUANTILE_ALPHA);

/// Magnitudes below this collapse into the exact zero bucket (log
/// buckets cannot represent 0, and sub-nano magnitudes are noise for
/// every population metric we track).
const MIN_MAGNITUDE: f64 = 1e-9;

fn ln_gamma() -> f64 {
    GAMMA.ln()
}

/// Log-bucket index of a positive magnitude: the unique `i` with
/// `γ^(i-1) < v ≤ γ^i`, clamped into `i32`.
fn bucket_index(magnitude: f64) -> i32 {
    let raw = (magnitude.ln() / ln_gamma()).ceil();
    if raw <= i32::MIN as f64 {
        i32::MIN
    } else if raw >= i32::MAX as f64 {
        i32::MAX
    } else {
        raw as i32
    }
}

/// Representative value of bucket `i`: `2γ^i / (γ + 1)`, the midpoint
/// guaranteeing the α relative-error bound for the whole bucket.
fn bucket_value(index: i32) -> f64 {
    2.0 * GAMMA.powi(index) / (GAMMA + 1.0)
}

/// Add `n` to bucket `index` of a sorted `(index, count)` vector.
fn bump(buckets: &mut Vec<(i32, u64)>, index: i32, n: u64) {
    match buckets.binary_search_by_key(&index, |&(i, _)| i) {
        Ok(pos) => {
            if let Some(slot) = buckets.get_mut(pos) {
                slot.1 = slot.1.saturating_add(n);
            }
        }
        Err(pos) => buckets.insert(pos, (index, n)),
    }
}

/// Merge two bucket vectors into canonical sorted-unique form.
///
/// A stable sort of the concatenation, then one pass summing equal
/// indices. Canonical inputs are two sorted runs, which the sort merges
/// in linear time; hostile states (unsorted or duplicated indices, as a
/// fuzzer-decoded sketch may carry) still merge totally and
/// symmetrically, because saturating addition of non-negative counts is
/// order-independent.
fn merge_buckets(a: &[(i32, u64)], b: &[(i32, u64)]) -> Vec<(i32, u64)> {
    let mut all = Vec::with_capacity(a.len() + b.len());
    all.extend_from_slice(a);
    all.extend_from_slice(b);
    all.sort_by_key(|&(i, _)| i);
    let mut merged: Vec<(i32, u64)> = Vec::with_capacity(all.len());
    for (i, n) in all {
        match merged.last_mut() {
            Some(last) if last.0 == i => last.1 = last.1.saturating_add(n),
            _ => merged.push((i, n)),
        }
    }
    merged
}

fn bucket_sum(buckets: &[(i32, u64)]) -> u64 {
    buckets
        .iter()
        .fold(0u64, |acc, &(_, n)| acc.saturating_add(n))
}

/// A mergeable quantile sketch with bounded relative value error.
///
/// State is a pair of log-bucket histograms (positive and mirrored
/// negative magnitudes) plus exact counters for zeros and non-finite
/// inputs — every field a commutative monoid, so [`merge`] equals
/// re-ingestion of both streams exactly.
///
/// [`merge`]: QuantileSketch::merge
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Positive-value buckets, sorted by index, counts > 0 on the
    /// canonical ingestion path.
    pub pos: Vec<(i32, u64)>,
    /// Negative-value buckets over `|v|`, sorted by index.
    pub neg: Vec<(i32, u64)>,
    /// Exact count of (near-)zero samples.
    pub zeros: u64,
    /// NaN / infinite samples, counted for totality but excluded from
    /// quantiles.
    pub non_finite: u64,
}

impl QuantileSketch {
    /// The empty sketch (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one sample.
    pub fn add(&mut self, value: f64) {
        self.add_n(value, 1);
    }

    /// Ingest `n` copies of a sample.
    pub fn add_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        if !value.is_finite() {
            self.non_finite = self.non_finite.saturating_add(n);
        } else if value.abs() < MIN_MAGNITUDE {
            self.zeros = self.zeros.saturating_add(n);
        } else if value > 0.0 {
            bump(&mut self.pos, bucket_index(value), n);
        } else {
            bump(&mut self.neg, bucket_index(-value), n);
        }
    }

    /// Fold another sketch in. Exactly equivalent to having ingested
    /// the other sketch's stream into `self`.
    pub fn merge(&mut self, other: &Self) {
        self.pos = merge_buckets(&self.pos, &other.pos);
        self.neg = merge_buckets(&self.neg, &other.neg);
        self.zeros = self.zeros.saturating_add(other.zeros);
        self.non_finite = self.non_finite.saturating_add(other.non_finite);
    }

    /// Number of finite samples ingested.
    pub fn len(&self) -> u64 {
        bucket_sum(&self.pos)
            .saturating_add(bucket_sum(&self.neg))
            .saturating_add(self.zeros)
    }

    /// Whether no finite sample was ingested.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `q`-quantile (`q` clamped into `[0, 1]`) over finite
    /// samples; `0.0` for an empty sketch. Nonzero results carry the
    /// [`QUANTILE_ALPHA`] relative error bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.len();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        // Ascending value order: most-negative first (negative buckets
        // in descending index order), then zeros, then positives.
        for &(i, n) in self.neg.iter().rev() {
            seen = seen.saturating_add(n);
            if seen > rank {
                return -bucket_value(i);
            }
        }
        seen = seen.saturating_add(self.zeros);
        if seen > rank {
            return 0.0;
        }
        for &(i, n) in &self.pos {
            seen = seen.saturating_add(n);
            if seen > rank {
                return bucket_value(i);
            }
        }
        // Unreachable on well-formed states; a deterministic fallback
        // keeps hostile decoded states total.
        self.pos
            .last()
            .map(|&(i, _)| bucket_value(i))
            .unwrap_or(0.0)
    }

    /// Fraction of finite samples that are strictly negative — the
    /// population analogue of the paper's "X% of services contact more
    /// A&A domains via Web" headline.
    pub fn fraction_negative(&self) -> f64 {
        let total = self.len();
        if total == 0 {
            return 0.0;
        }
        bucket_sum(&self.neg) as f64 / total as f64
    }

    /// Approximate heap footprint, for the constant-memory accounting
    /// in `BENCH_population.json`.
    pub fn approx_bytes(&self) -> u64 {
        48 + 16 * (self.pos.len() as u64 + self.neg.len() as u64)
    }
}

/// One heavy-hitter entry of a [`TopKSketch`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopKEntry {
    /// The tracked key (domain, organization, PII label, …).
    pub key: String,
    /// Estimated count (exact while `err == 0`).
    pub count: u64,
    /// Maximum overestimation inherited from evictions (space-saving
    /// style); `0` while the sketch has never evicted.
    pub err: u64,
}

/// A deterministic space-saving-style top-k summary.
///
/// Entries live in canonical key-sorted order (so equal states encode
/// to equal bytes); [`top`] derives the ranked view on demand with a
/// total order — count descending, then key ascending — so merges and
/// renders are order-insensitive.
///
/// `capacity == 0` means unbounded (exact counting). With a bound, the
/// sketch stays exact until it holds more than `capacity` distinct
/// keys, then evicts the smallest-count entry (ties broken by key,
/// ascending) and records the dropped mass; campaigns size `capacity`
/// above their key universe and assert `evictions == 0`, keeping every
/// merge law exact.
///
/// [`top`]: TopKSketch::top
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopKSketch {
    /// Maximum distinct keys retained (0 = unbounded).
    pub capacity: u32,
    /// Entries in key-sorted canonical order.
    pub entries: Vec<TopKEntry>,
    /// Total count mass lost to evictions.
    pub dropped: u64,
    /// Number of evictions performed.
    pub evictions: u64,
}

impl TopKSketch {
    /// An empty sketch retaining at most `capacity` distinct keys
    /// (0 = unbounded).
    pub fn with_capacity(capacity: u32) -> Self {
        TopKSketch {
            capacity,
            ..Self::default()
        }
    }

    /// A sketch of per-key totals counted elsewhere: zero totals are
    /// skipped, entries take canonical key order (a repeated key sums),
    /// and one eviction pass brings the sketch within `capacity`.
    /// While the keys fit, this equals [`add`](Self::add)ing every
    /// total; past the bound it evicts once, over the totals, where
    /// `add` would evict along the way.
    pub fn from_counts<'a>(
        capacity: u32,
        counts: impl IntoIterator<Item = (&'a str, u64)>,
    ) -> Self {
        let mut merged: BTreeMap<&str, u64> = BTreeMap::new();
        for (key, n) in counts {
            if n > 0 {
                let slot = merged.entry(key).or_insert(0);
                *slot = slot.saturating_add(n);
            }
        }
        let mut sketch = TopKSketch {
            capacity,
            entries: merged
                .into_iter()
                .map(|(key, count)| TopKEntry {
                    key: key.to_string(),
                    count,
                    err: 0,
                })
                .collect(),
            dropped: 0,
            evictions: 0,
        };
        sketch.shrink_to_capacity();
        sketch
    }

    /// Ingest `n` occurrences of `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        if n == 0 {
            return;
        }
        match self.entries.binary_search_by(|e| e.key.as_str().cmp(key)) {
            Ok(pos) => {
                if let Some(entry) = self.entries.get_mut(pos) {
                    entry.count = entry.count.saturating_add(n);
                }
            }
            Err(pos) => {
                self.entries.insert(
                    pos,
                    TopKEntry {
                        key: key.to_string(),
                        count: n,
                        err: 0,
                    },
                );
                self.shrink_to_capacity();
            }
        }
    }

    /// Evict smallest-count entries (ties by key, ascending) until the
    /// capacity bound holds again.
    fn shrink_to_capacity(&mut self) {
        if self.capacity == 0 {
            return;
        }
        while self.entries.len() > self.capacity as usize {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| (a.count, &a.key).cmp(&(b.count, &b.key)))
                .map(|(i, _)| i);
            let Some(victim) = victim else {
                return;
            };
            let gone = self.entries.remove(victim);
            self.dropped = self.dropped.saturating_add(gone.count);
            self.evictions = self.evictions.saturating_add(1);
        }
    }

    /// Fold another sketch in: key-wise count/err addition, then the
    /// deterministic eviction pass. While both operands are in the
    /// exact regime and the union fits, this equals re-ingestion of the
    /// other stream exactly.
    pub fn merge(&mut self, other: &Self) {
        // Through a BTreeMap so hostile states (unsorted or duplicate
        // keys from a fuzzer-decoded sketch) still merge totally and
        // symmetrically.
        let mut merged: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for entry in self.entries.iter().chain(&other.entries) {
            let slot = merged.entry(entry.key.as_str()).or_insert((0, 0));
            slot.0 = slot.0.saturating_add(entry.count);
            slot.1 = slot.1.saturating_add(entry.err);
        }
        let entries = merged
            .into_iter()
            .map(|(key, (count, err))| TopKEntry {
                key: key.to_string(),
                count,
                err,
            })
            .collect();
        let capacity = if self.capacity == 0 || other.capacity == 0 {
            self.capacity.max(other.capacity)
        } else {
            self.capacity.min(other.capacity)
        };
        *self = TopKSketch {
            capacity,
            entries,
            dropped: self.dropped.saturating_add(other.dropped),
            evictions: self.evictions.saturating_add(other.evictions),
        };
        self.shrink_to_capacity();
    }

    /// The `n` heaviest entries: count descending, ties by key
    /// ascending — a total order, so the ranking is unique.
    pub fn top(&self, n: usize) -> Vec<&TopKEntry> {
        let mut ranked: Vec<&TopKEntry> = self.entries.iter().collect();
        ranked.sort_by(|a, b| (b.count, &a.key).cmp(&(a.count, &b.key)));
        ranked.truncate(n);
        ranked
    }

    /// Exact count of a key while the sketch has never evicted.
    pub fn count(&self, key: &str) -> u64 {
        self.entries
            .binary_search_by(|e| e.key.as_str().cmp(key))
            .ok()
            .and_then(|pos| self.entries.get(pos))
            .map(|e| e.count)
            .unwrap_or(0)
    }

    /// Total count mass currently retained.
    pub fn total(&self) -> u64 {
        self.entries
            .iter()
            .fold(0u64, |acc, e| acc.saturating_add(e.count))
    }

    /// Whether the sketch has been exact for its whole history.
    pub fn is_exact(&self) -> bool {
        self.evictions == 0
    }

    /// Approximate heap footprint, for constant-memory accounting.
    pub fn approx_bytes(&self) -> u64 {
        40 + self
            .entries
            .iter()
            .fold(0u64, |acc, e| acc.saturating_add(40 + e.key.len() as u64))
    }
}

appvsweb_json::impl_json!(struct QuantileSketch { pos, neg, zeros, non_finite });
appvsweb_json::impl_json!(struct TopKEntry { key, count, err });
appvsweb_json::impl_json!(struct TopKSketch { capacity, entries, dropped, evictions });

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let idx = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Deterministic synthetic distributions for accuracy tests.
    fn distributions() -> Vec<(&'static str, Vec<f64>)> {
        let uniform: Vec<f64> = (1..=4000).map(|i| i as f64).collect();
        let exponentialish: Vec<f64> = (0..2000).map(|i| 1.001f64.powi(i) * 3.0).collect();
        let bimodal: Vec<f64> = (0..3000)
            .map(|i| {
                if i % 3 == 0 {
                    5.0 + (i % 7) as f64
                } else {
                    5_000.0 + (i % 11) as f64
                }
            })
            .collect();
        let signed: Vec<f64> = (-1500..1500).map(|i| i as f64 * 0.25).collect();
        vec![
            ("uniform", uniform),
            ("exponentialish", exponentialish),
            ("bimodal", bimodal),
            ("signed", signed),
        ]
    }

    fn assert_within_alpha(name: &str, sketch: &QuantileSketch, sorted: &[f64]) {
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let exact = exact_quantile(sorted, q);
            let approx = sketch.quantile(q);
            if exact.abs() < MIN_MAGNITUDE {
                assert!(
                    approx.abs() <= MIN_MAGNITUDE,
                    "{name} q={q}: exact 0 reported as {approx}"
                );
            } else {
                let rel = (approx - exact).abs() / exact.abs();
                assert!(
                    rel <= QUANTILE_ALPHA + 1e-12,
                    "{name} q={q}: exact {exact}, sketch {approx}, rel err {rel}"
                );
            }
        }
    }

    #[test]
    fn quantiles_stay_within_documented_epsilon() {
        for (name, samples) in distributions() {
            let mut sketch = QuantileSketch::new();
            for &v in &samples {
                sketch.add(v);
            }
            let mut sorted = samples.clone();
            crate::stats::sort_floats(&mut sorted);
            assert_eq!(sketch.len(), samples.len() as u64);
            assert_within_alpha(name, &sketch, &sorted);
        }
    }

    #[test]
    fn quantiles_survive_a_64_way_merge() {
        for (name, samples) in distributions() {
            // Round-robin the stream over 64 shard sketches, then fold
            // them pairwise like the campaign reduction tree does.
            let mut shards = vec![QuantileSketch::new(); 64];
            for (i, &v) in samples.iter().enumerate() {
                shards[i % 64].add(v);
            }
            while shards.len() > 1 {
                let mut next = Vec::with_capacity(shards.len() / 2 + 1);
                for pair in shards.chunks(2) {
                    let mut left = pair[0].clone();
                    if let Some(right) = pair.get(1) {
                        left.merge(right);
                    }
                    next.push(left);
                }
                shards = next;
            }
            let merged = &shards[0];
            // Byte-identical to single-stream ingestion, not merely close.
            let mut single = QuantileSketch::new();
            for &v in &samples {
                single.add(v);
            }
            assert_eq!(
                appvsweb_json::encode(merged),
                appvsweb_json::encode(&single),
                "{name}: 64-way merge must equal sequential ingestion"
            );
            let mut sorted = samples.clone();
            crate::stats::sort_floats(&mut sorted);
            assert_within_alpha(name, merged, &sorted);
        }
    }

    #[test]
    fn sketch_handles_zeros_negatives_and_non_finite() {
        let mut s = QuantileSketch::new();
        s.add(0.0);
        s.add(-0.0);
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        s.add(-3.0);
        s.add(7.0);
        assert_eq!(s.zeros, 2);
        assert_eq!(s.non_finite, 2);
        assert_eq!(s.len(), 4);
        assert!(s.quantile(0.0) < 0.0);
        assert!(s.quantile(1.0) > 0.0);
        assert_eq!(s.quantile(0.4), 0.0, "zeros sit between signs");
        assert!((s.fraction_negative() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hostile_bucket_vectors_merge_into_canonical_form() {
        // Unsorted, duplicated and saturating buckets, as a decoded
        // state may carry: the merge sums equal indices in index order.
        let a = QuantileSketch {
            pos: vec![(5, 1), (-2, 3), (5, u64::MAX)],
            ..QuantileSketch::default()
        };
        let b = QuantileSketch {
            pos: vec![(0, 2), (-2, 1)],
            ..QuantileSketch::default()
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.pos, vec![(-2, 4), (0, 2), (5, u64::MAX)]);
        assert_eq!(ab, ba);
    }

    #[test]
    fn empty_sketch_is_total() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.fraction_negative(), 0.0);
    }

    #[test]
    fn topk_is_exact_below_capacity() {
        let mut t = TopKSketch::with_capacity(8);
        for (key, n) in [("a", 5), ("b", 3), ("c", 3), ("d", 1)] {
            t.add(key, n);
        }
        assert!(t.is_exact());
        assert_eq!(t.count("b"), 3);
        assert_eq!(t.total(), 12);
        let ranked: Vec<(&str, u64)> = t.top(3).iter().map(|e| (e.key.as_str(), e.count)).collect();
        // Ties (b, c) break by key ascending.
        assert_eq!(ranked, vec![("a", 5), ("b", 3), ("c", 3)]);
    }

    #[test]
    fn topk_eviction_is_deterministic_and_accounted() {
        let mut t = TopKSketch::with_capacity(2);
        t.add("a", 5);
        t.add("b", 2);
        t.add("c", 9); // evicts b (smallest count)
        assert_eq!(t.evictions, 1);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.count("b"), 0);
        assert_eq!(t.count("a"), 5);
        // Tie on count: the key-ascending victim goes first.
        let mut u = TopKSketch::with_capacity(2);
        u.add("x", 1);
        u.add("y", 1);
        u.add("z", 4);
        assert_eq!(
            u.count("x"),
            0,
            "tie evicts the lexicographically first key"
        );
        assert_eq!(u.count("y"), 1);
    }

    #[test]
    fn topk_merge_matches_sequential_ingestion_in_exact_regime() {
        let streams = [
            vec![("alpha", 2u64), ("beta", 1), ("alpha", 3)],
            vec![("gamma", 7), ("beta", 4)],
        ];
        let mut merged = TopKSketch::with_capacity(16);
        let mut sequential = TopKSketch::with_capacity(16);
        for stream in &streams {
            let mut shard = TopKSketch::with_capacity(16);
            for &(k, n) in stream {
                shard.add(k, n);
                sequential.add(k, n);
            }
            merged.merge(&shard);
        }
        assert_eq!(
            appvsweb_json::encode(&merged),
            appvsweb_json::encode(&sequential)
        );
        assert!(merged.is_exact());
    }

    #[test]
    fn from_counts_matches_adds_below_capacity_and_evicts_once_above() {
        let counts = [("b", 3u64), ("a", 5), ("z", 0), ("b", 1), ("c", 2)];
        let mut added = TopKSketch::with_capacity(8);
        for (key, n) in counts {
            added.add(key, n);
        }
        assert_eq!(TopKSketch::from_counts(8, counts), added);
        let bounded = TopKSketch::from_counts(2, counts);
        let kept: Vec<(&str, u64)> = bounded
            .entries
            .iter()
            .map(|e| (e.key.as_str(), e.count))
            .collect();
        assert_eq!(kept, vec![("a", 5), ("b", 4)]);
        assert_eq!((bounded.evictions, bounded.dropped), (1, 2));
    }

    #[test]
    fn codec_round_trip() {
        let mut s = QuantileSketch::new();
        s.add(3.5);
        s.add(-42.0);
        s.add(0.0);
        let back: QuantileSketch =
            appvsweb_json::decode(&appvsweb_json::encode(&s)).expect("sketch decodes");
        assert_eq!(back, s);
        let mut t = TopKSketch::with_capacity(4);
        t.add("doubleclick", 3);
        let back: TopKSketch =
            appvsweb_json::decode(&appvsweb_json::encode(&t)).expect("topk decodes");
        assert_eq!(back, t);
    }
}
