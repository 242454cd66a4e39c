//! Aho–Corasick multi-pattern string search.
//!
//! The ground-truth matcher searches every flow for several hundred
//! candidate strings (every encoding of every PII value). Scanning each
//! candidate independently is O(patterns × text); this automaton finds
//! all matches in a single pass over the text — the same reason
//! production interception pipelines (and ReCon's flow scanner) compile
//! their dictionaries into automata.
//!
//! The construction is the classic goto/fail one over bytes, with
//! breadth-first failure links and output merging, stored compactly:
//!
//! * **Byte classes.** Each byte that occurs in some pattern gets a
//!   class of its own; every other byte shares class 0, which leads
//!   every state back to the root.
//! * **Dense rows near the root.** States at depth ≤ 2 (`DENSE_DEPTH`;
//!   a few hundred for a PII dictionary, against thousands of states in
//!   all) hold a full class-indexed DFA row, so a step from them is one
//!   table load.
//! * **Sparse states below.** Deeper states — mostly single-child
//!   chains through hex, base64 and hash variants — store only their
//!   trie edges and a failure link. On a miss the walk follows failure
//!   links until an edge matches or it reaches a dense state; depth
//!   drops with every hop and rises by at most one per byte, so the
//!   hops are amortized O(1) per byte.
//!
//! Construction sorts the patterns, then is linear in their total
//! length (the only per-state rows are the few dense ones). Each dense
//! transition word and each sparse edge carries an "output here" flag,
//! so the scan loop touches no output storage on the (overwhelmingly
//! common) non-matching byte.

use appvsweb_cover::cover;

/// High bit of a transition word: the target state has ≥1 output.
const OUT_FLAG: u32 = 1 << 31;
/// Mask recovering the state id from a transition word.
const STATE_MASK: u32 = OUT_FLAG - 1;
/// Bit of an `AhoCorasick::edges` entry above its byte: the state the
/// edge enters has ≥1 output (the sparse twin of [`OUT_FLAG`]).
const EDGE_OUT: u16 = 1 << 8;
/// States at this trie depth or shallower get dense transition rows.
const DENSE_DEPTH: usize = 2;

/// A compiled multi-pattern automaton.
///
/// States are numbered breadth-first with siblings in byte order, so
/// the dense states are exactly ids `0..dense_states`, the root is 0,
/// and every state's children form one contiguous id range.
#[derive(Clone, Debug)]
pub struct AhoCorasick {
    /// Byte → class (column of a dense row).
    classes: [u8; 256],
    /// Dense rows are `1 << row_shift` words wide: the class count
    /// rounded up to a power of two, so a step indexes with a shift.
    row_shift: u32,
    /// Full DFA rows of the dense states: `dense[(state << row_shift) |
    /// class]` is a transition word (high bit = [`OUT_FLAG`]).
    dense: Vec<u32>,
    /// Number of dense states.
    dense_states: usize,
    /// The children of state `s` are ids `first_child[s]..first_child[s + 1]`.
    first_child: Vec<u32>,
    /// Per state: the byte on the trie edge entering it, plus
    /// [`EDGE_OUT`]. Sparse states search their children's entries.
    edges: Vec<u16>,
    /// Failure link per state (walked only from sparse states).
    fail: Vec<u32>,
    /// The states with outputs, ascending. The outputs (after merging)
    /// of `out_states[k]` are `out_ids[out_start[k]..out_start[k + 1]]`.
    out_states: Vec<u32>,
    out_start: Vec<u32>,
    out_ids: Vec<u32>,
    /// Number of patterns the automaton was built from.
    pattern_count: usize,
}

/// One match: which pattern, ending where.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Match {
    /// Index of the pattern in the input slice.
    pub pattern: u32,
    /// Byte offset one past the end of the match in the haystack.
    pub end: usize,
}

impl AhoCorasick {
    /// Build an automaton over `patterns`. Empty patterns are permitted
    /// but never match. Matching is byte-exact; callers wanting
    /// case-insensitivity normalize both sides beforehand.
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> Self {
        // Byte classes: class 0 for the bytes no pattern uses (if any),
        // then one class per used byte in ascending byte order.
        let mut used = [false; 256];
        for pat in patterns {
            for &b in pat.as_ref() {
                used[b as usize] = true;
            }
        }
        let mut classes = [0u8; 256];
        let mut class_count = usize::from(used.contains(&false));
        for (b, _) in used.iter().enumerate().filter(|(_, u)| **u) {
            classes[b] = class_count as u8;
            class_count += 1;
        }
        let stride = class_count.next_power_of_two();

        // The trie, one depth at a time over the sorted patterns: at
        // each depth the patterns sharing a prefix are adjacent, so a
        // new state starts wherever (parent, byte) changes. That yields
        // the breadth-first numbering directly. `ends` collects
        // (state, pattern) in ascending state order, equal patterns in
        // ascending id order.
        let mut sorted: Vec<(&[u8], u32)> = patterns
            .iter()
            .enumerate()
            .map(|(id, p)| (p.as_ref(), id as u32))
            .filter(|(p, _)| !p.is_empty())
            .collect();
        sorted.sort_unstable();
        let mut parent: Vec<u32> = vec![0];
        let mut edges: Vec<u16> = vec![0];
        let mut ends: Vec<(u32, u32)> = Vec::with_capacity(sorted.len());
        let mut at = vec![0u32; sorted.len()];
        let mut live: Vec<usize> = (0..sorted.len()).collect();
        let mut dense_states = None;
        let mut depth = 0;
        while !live.is_empty() {
            // Every state so far is at depth ≤ `depth`.
            if depth == DENSE_DEPTH {
                dense_states = Some(parent.len());
            }
            let mut last = (u32::MAX, 0);
            live.retain(|&j| {
                let (bytes, id) = sorted[j];
                let key = (at[j], bytes[depth]);
                if key != last {
                    parent.push(key.0);
                    edges.push(u16::from(key.1));
                    last = key;
                }
                at[j] = (parent.len() - 1) as u32;
                let more = bytes.len() > depth + 1;
                if !more {
                    ends.push((at[j], id));
                }
                more
            });
            depth += 1;
        }
        let n = parent.len();
        let dense_states = dense_states.unwrap_or(n);
        // lint:allow(R1) one state per distinct pattern prefix: thousands for a PII dictionary, nowhere near 2^31
        assert!(n < STATE_MASK as usize, "automaton too large");
        // Children come in parent order, so a prefix sum of the child
        // counts (the root's children start at id 1) gives every range.
        let mut first_child = vec![0u32; n + 1];
        for &p in parent.iter().skip(1) {
            first_child[p as usize + 1] += 1;
        }
        let mut next = 1;
        for slot in &mut first_child {
            next += *slot;
            *slot = next;
        }

        // Failure links and dense rows in state order. A child's
        // failure chain starts at its parent's failure target and only
        // visits earlier states: sparse ones are searched edge by edge
        // until one has the byte, and the first dense one answers from
        // its finished row. A dense row is its failure target's
        // (earlier, finished) row overlaid with the state's children.
        let mut fail = vec![0u32; n];
        let mut dense = vec![0u32; dense_states * stride];
        for s in 0..n {
            let p = parent[s] as usize;
            if p != 0 {
                let b = edges[s] as u8;
                let mut f = fail[p] as usize;
                fail[s] = loop {
                    if f < dense_states {
                        break dense[f * stride + classes[b as usize] as usize];
                    }
                    let (lo, hi) = (first_child[f] as usize, first_child[f + 1] as usize);
                    if let Some(k) = edges[lo..hi].iter().position(|&e| e as u8 == b) {
                        break (lo + k) as u32;
                    }
                    cover!();
                    f = fail[f] as usize;
                };
            }
            if s < dense_states {
                cover!();
                if s != 0 {
                    let f = fail[s] as usize;
                    dense.copy_within(f * stride..(f + 1) * stride, s * stride);
                }
                for c in first_child[s]..first_child[s + 1] {
                    let class = classes[edges[c as usize] as u8 as usize] as usize;
                    dense[s * stride + class] = c;
                }
            } else {
                cover!();
            }
        }

        // Outputs, in state order: a state's own patterns (ascending),
        // then everything its failure target reports. Only the states
        // that end up with outputs get an entry; `entry` maps a state
        // to its entry number + 1 (0: none) while building.
        let mut entry = vec![0u32; n];
        let mut out_states: Vec<u32> = Vec::new();
        let mut out_start: Vec<u32> = vec![0];
        let mut out_ids: Vec<u32> = Vec::with_capacity(ends.len());
        let mut own = ends.iter().peekable();
        for (s, &f) in fail.iter().enumerate() {
            let before = out_ids.len();
            while let Some(&(_, id)) = own.next_if(|(state, _)| *state as usize == s) {
                out_ids.push(id);
            }
            // (The root is its own failure target, but has no outputs.)
            if let Some(k) = entry[f as usize].checked_sub(1) {
                cover!();
                let (lo, hi) = (out_start[k as usize], out_start[k as usize + 1]);
                out_ids.extend_from_within(lo as usize..hi as usize);
            }
            if out_ids.len() > before {
                out_states.push(s as u32);
                out_start.push(out_ids.len() as u32);
                entry[s] = out_states.len() as u32;
            }
        }
        for word in &mut dense {
            if entry[*word as usize] != 0 {
                *word |= OUT_FLAG;
            }
        }
        for (edge, &e) in edges.iter_mut().zip(&entry) {
            if e != 0 {
                *edge |= EDGE_OUT;
            }
        }

        AhoCorasick {
            classes,
            row_shift: stride.trailing_zeros(),
            dense,
            dense_states,
            first_child,
            edges,
            fail,
            out_states,
            out_start,
            out_ids,
            pattern_count: patterns.len(),
        }
    }

    /// Start a resumable walk at the root. Several walkers can be
    /// advanced over the same bytes in one pass (the ground-truth
    /// matcher drives its case-insensitive and byte-exact automata
    /// together instead of re-reading the flow).
    pub fn walker(&self) -> Walker<'_> {
        Walker {
            auto: self,
            state: 0,
        }
    }

    /// Number of patterns.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Number of automaton states (diagnostics).
    pub fn state_count(&self) -> usize {
        self.fail.len()
    }

    /// Heap bytes held by the automaton's tables.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.dense.capacity()
            + self.first_child.capacity()
            + self.fail.capacity()
            + self.out_states.capacity()
            + self.out_start.capacity()
            + self.out_ids.capacity())
            * size_of::<u32>()
            + self.edges.capacity() * size_of::<u16>()
    }

    /// The pattern ids reported at state `s` (a binary search: only
    /// taken on a flagged transition, i.e. on an actual match).
    fn outputs(&self, s: u32) -> &[u32] {
        match self.out_states.binary_search(&s) {
            Ok(k) => &self.out_ids[self.out_start[k] as usize..self.out_start[k + 1] as usize],
            Err(_) => &[],
        }
    }

    /// Find all matches in `haystack` (overlapping included).
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut walk = self.walker();
        for (i, &b) in haystack.iter().enumerate() {
            for &pat in walk.step(b) {
                out.push(Match {
                    pattern: pat,
                    end: i + 1,
                });
            }
        }
        out
    }

    /// Which patterns occur in `haystack` (deduplicated, sorted)?
    /// This is the matcher's hot call: it bails on output collection
    /// overhead and just flags pattern presence.
    pub fn present(&self, haystack: &[u8]) -> Vec<u32> {
        let mut seen = vec![false; self.pattern_count];
        let mut walk = self.walker();
        for &b in haystack {
            for &pat in walk.step(b) {
                seen[pat as usize] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// A resumable automaton walk: one [`Walker::step`] per haystack byte.
#[derive(Clone, Copy, Debug)]
pub struct Walker<'a> {
    auto: &'a AhoCorasick,
    state: u32,
}

impl<'a> Walker<'a> {
    /// Advance by one byte; returns the pattern ids of matches ending
    /// at this byte (empty for the common non-matching byte, without
    /// touching output storage). From a dense state this is one table
    /// load; from a sparse one, an edge scan per failure hop.
    #[inline]
    pub fn step(&mut self, b: u8) -> &'a [u32] {
        let auto = self.auto;
        let mut state = self.state as usize;
        let word = loop {
            if state < auto.dense_states {
                break auto.dense[(state << auto.row_shift) | auto.classes[b as usize] as usize];
            }
            let (lo, hi) = (
                auto.first_child[state] as usize,
                auto.first_child[state + 1] as usize,
            );
            if let Some(k) = auto.edges[lo..hi].iter().position(|&e| e as u8 == b) {
                let flag = if auto.edges[lo + k] & EDGE_OUT == 0 {
                    0
                } else {
                    OUT_FLAG
                };
                break (lo + k) as u32 | flag;
            }
            state = auto.fail[state] as usize;
        };
        self.state = word & STATE_MASK;
        if word & OUT_FLAG == 0 {
            &[]
        } else {
            auto.outputs(self.state)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_simple_patterns() {
        let ac = AhoCorasick::new(&["he", "she", "his", "hers"]);
        let matches = ac.find_all(b"ushers");
        let pats: Vec<u32> = matches.iter().map(|m| m.pattern).collect();
        // "she" at 1..4, "he" at 2..4, "hers" at 2..6.
        assert!(pats.contains(&0));
        assert!(pats.contains(&1));
        assert!(pats.contains(&3));
        assert!(!pats.contains(&2));
    }

    #[test]
    fn overlapping_and_nested_matches() {
        let ac = AhoCorasick::new(&["aa", "aaa"]);
        let matches = ac.find_all(b"aaaa");
        let count_aa = matches.iter().filter(|m| m.pattern == 0).count();
        let count_aaa = matches.iter().filter(|m| m.pattern == 1).count();
        assert_eq!(count_aa, 3);
        assert_eq!(count_aaa, 2);
    }

    #[test]
    fn present_dedups() {
        let ac = AhoCorasick::new(&["ab", "bc", "zz"]);
        assert_eq!(ac.present(b"ababab bc"), vec![0, 1]);
        assert!(ac.present(b"xyxyx").is_empty());
    }

    #[test]
    fn empty_patterns_never_match() {
        let ac = AhoCorasick::new(&["", "x"]);
        assert_eq!(ac.present(b"yyy"), Vec::<u32>::new());
        assert_eq!(ac.present(b"x"), vec![1]);
        let none = AhoCorasick::new::<&str>(&[]);
        assert_eq!(none.state_count(), 1);
        assert!(none.find_all(b"anything").is_empty());
    }

    #[test]
    fn binary_patterns() {
        let ac = AhoCorasick::new(&[&[0xFFu8, 0x00][..], &[0x00, 0x00][..]]);
        let hits = ac.present(&[0xAB, 0xFF, 0x00, 0x00, 0xCD]);
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn full_alphabet_leaves_no_spare_class() {
        let all: Vec<u8> = (0..=255).collect();
        let ac = AhoCorasick::new(&[&all[..], &[7, 7, 7][..]]);
        assert_eq!(ac.row_shift, 8);
        let mut text = vec![7u8; 4];
        text.extend_from_slice(&all);
        assert_eq!(ac.present(&text), vec![0, 1]);
    }

    #[test]
    fn agrees_with_naive_contains() {
        let patterns = ["email", "42.36", "9d2a1f6c", "lat", "a", "match-me"];
        let ac = AhoCorasick::new(&patterns);
        let texts = [
            "GET /t?email=a@b.com&lat=42.361 HTTP/1.1",
            "nothing relevant here",
            "match-memail42.36",
            "",
        ];
        for text in texts {
            let expected: Vec<u32> = patterns
                .iter()
                .enumerate()
                .filter(|(_, p)| text.contains(*p))
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(ac.present(text.as_bytes()), expected, "text {text:?}");
        }
    }

    #[test]
    fn suffix_pattern_inherited_through_failure_links() {
        // "bcd" is a suffix of paths reached while matching "abcde".
        let ac = AhoCorasick::new(&["abcde", "bcd"]);
        let hits = ac.present(b"zabcdez");
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn deep_failure_chains_resolve_through_sparse_states() {
        // Both patterns run far below the dense region; a miss deep in
        // one must fall back into the other mid-chain.
        let ac = AhoCorasick::new(&["abcabcabd", "cabcabx", "bcab"]);
        assert!(ac.state_count() > ac.dense_states);
        let hits = ac.find_all(b"abcabcabcabx");
        let pats: Vec<(u32, usize)> = hits.iter().map(|m| (m.pattern, m.end)).collect();
        assert_eq!(pats, vec![(2, 5), (2, 8), (2, 11), (1, 12)]);
    }

    #[test]
    fn scales_to_dictionary_size() {
        let patterns: Vec<String> = (0..500).map(|i| format!("pattern-{i:03}-value")).collect();
        let ac = AhoCorasick::new(&patterns);
        assert_eq!(ac.pattern_count(), 500);
        let text = format!("xx {} yy {} zz", patterns[42], patterns[499]);
        assert_eq!(ac.present(text.as_bytes()), vec![42, 499]);
        assert!(ac.heap_bytes() < 64 * 1024, "{} bytes", ac.heap_bytes());
    }
}
