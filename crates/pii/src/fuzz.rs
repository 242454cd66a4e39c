//! Fuzz entry points for the ReCon-style flow tokenizer and the
//! dictionary automaton.
//!
//! The tokenizer and key/value extractor see raw intercepted flow text —
//! the single most attacker-influenced input in the pipeline — so their
//! contract under fuzzing is strict totality plus the size invariants
//! the feature extractor depends on (token length caps keep base64
//! blobs out of the vocabulary; key/value caps bound feature width).

use crate::aho::{AhoCorasick, Match};
use crate::tokenize::{extract_kv, token_set, tokenize};

/// Run the tokenizer target on raw fuzz bytes.
pub fn run(data: &[u8]) {
    let text = String::from_utf8_lossy(data);

    let tokens = tokenize(&text);
    for t in &tokens {
        assert!(!t.is_empty(), "tokenize emitted an empty token");
        assert!(t.len() <= 40, "token over the 40-byte cap: {t:?}");
        assert!(
            !t.chars().any(|c| c.is_ascii_uppercase()),
            "token not lowercased: {t:?}"
        );
    }

    let set = token_set(&text);
    assert!(
        set.windows(2).all(|w| matches!(w, [a, b] if a < b)),
        "token_set must be sorted and deduplicated"
    );
    assert!(set.len() <= tokens.len(), "token_set grew the bag");

    for (k, v) in extract_kv(&text) {
        assert!(!k.is_empty(), "extract_kv emitted an empty key");
        assert!(k.len() <= 40, "key over the 40-byte cap: {k:?}");
        assert!(v.len() <= 256, "value over the 256-byte cap");
        assert!(
            !k.chars().any(|c| c.is_ascii_uppercase()),
            "key not lowercased: {k:?}"
        );
    }
}

/// Dictionary: the delimiters and key/value shapes the extractor pivots
/// on, plus HTTP request-line anchors.
pub const DICT: &[&[u8]] = &[
    b"=",
    b"&",
    b";",
    b"?",
    b"\"",
    b":",
    b"\"k\":",
    b"\"k\":\"v\"",
    b"email=",
    b"lat=",
    b"uid=",
    b" HTTP/1.1",
    b"Cookie: ",
    b"\r\n\r\n",
    b"%40",
    b"{\"",
    b"\xf0\x9f\x92\xa9",
];

/// Seeds: one of each flow shape the extractor recognizes.
pub const SEEDS: &[&[u8]] = &[
    b"GET /v1/track?Email=a@b.com&lat=42.36 HTTP/1.1",
    b"POST /collect HTTP/1.1\r\nHost: t.example\r\nCookie: sid=99; _ga=GA1.2\r\n\r\nemail=jane%40x.com&pw=s3cret",
    b"{\"email\":\"jane@x.com\",\"age\":27,\"device\":{\"model\":\"Nexus 5\"}}",
];

/// Run the automaton target on raw fuzz bytes. The first byte is a
/// separator; the rest splits on it into patterns and, last, a
/// haystack. `find_all` and `present` must equal a quadratic naive
/// scan, whatever the patterns share.
pub fn run_aho(data: &[u8]) {
    let Some((&sep, rest)) = data.split_first() else {
        return;
    };
    let mut patterns: Vec<&[u8]> = rest.split(|&b| b == sep).collect();
    let haystack = patterns.pop().unwrap_or_default();
    patterns.truncate(32);

    let ac = AhoCorasick::new(&patterns);
    assert_eq!(ac.pattern_count(), patterns.len());
    let mut fast = ac.find_all(haystack);
    let mut slow = Vec::new();
    for end in 1..=haystack.len() {
        for (id, pat) in patterns.iter().enumerate() {
            if !pat.is_empty() && haystack[..end].ends_with(pat) {
                slow.push(Match {
                    pattern: id as u32,
                    end,
                });
            }
        }
    }
    // Same-end matches come out in output-merge order; canonicalize.
    fast.sort_by_key(|m| (m.end, m.pattern));
    slow.sort_by_key(|m| (m.end, m.pattern));
    assert_eq!(fast, slow, "find_all diverged from the naive scan");

    let mut expected: Vec<u32> = slow.iter().map(|m| m.pattern).collect();
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(ac.present(haystack), expected, "present diverged");
}

/// Dictionary for the automaton target: separators, repeated bytes
/// that build long failure chains, and the hex/base64/percent shapes
/// the real dictionaries are made of.
pub const AHO_DICT: &[&[u8]] = &[
    b"\n",
    b"\x00",
    b"\xff",
    b"aaaa",
    b"abab",
    b"abcabc",
    b"0123456789abcdef",
    b"d41d8cd98f00b204",
    b"e9800998ecf8427e",
    b"QUJD",
    b"==",
    b"%40",
    b"%2C",
    b"42.36",
    b"@testmail.example",
];

/// Seeds: overlapping textbook patterns, a deep shared-prefix family
/// with a mid-chain miss, hex digests sharing prefixes, and binary
/// patterns separated by a NUL.
pub const AHO_SEEDS: &[&[u8]] = &[
    b"\nhe\nshe\nhis\nhers\nushers",
    b",abcabcabd,cabcabx,bcab,abcabcabcabx",
    b" 5f4dcc3b5aa765d61d8327deb882cf99 5f4dcc3b5aa7 5f4dcc3b 5f4dcc3b5aa765d6 zz5f4dcc3b5aa765d61d83x5f4dcc3b5aa765d61d8327deb882cf99",
    b"\x00\xff\x01\x00\x01\x01\x00\xab\xff\x01\x01\x01\xcd\xff\x01",
    b"&jane%40testmail.example&amFuZUB0ZXN0bWFpbC5leGFtcGxl&42.36&42.3611&lat=42.3611,-71.0571 amFuZUB0ZXN0bWFpbC5leGFtcGxl",
];
