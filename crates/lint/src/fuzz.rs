//! Fuzz entry points for the lint lexer and the item parser.
//!
//! The lexer underpins every rule the workspace trusts for its
//! determinism gates, so its three documented properties are asserted
//! on arbitrary input: totality (no panic), losslessness (token texts
//! concatenate back to the input), and line accuracy (1-based,
//! non-decreasing, consistent with the newlines actually consumed).
//!
//! The parser target ([`run_parse`]) drives the scope-tracked item
//! parser and the call-graph builder: both must be total on arbitrary
//! (non-)Rust, parsing must be deterministic, and every recorded line
//! must exist in the input.

use crate::lexer::lex;

/// Run the lexer target on raw fuzz bytes.
pub fn run(data: &[u8]) {
    let source = String::from_utf8_lossy(data);
    let tokens = lex(&source);

    // Lossless: concatenation reproduces the input byte-for-byte.
    let rebuilt: String = tokens.iter().map(|t| t.text.as_str()).collect();
    assert_eq!(rebuilt, source, "lexer dropped or normalized bytes");

    // Line-accurate: lines start at 1, never decrease, and each token's
    // recorded line equals 1 + newlines consumed before it.
    let mut expected_line = 1u32;
    for tok in &tokens {
        assert!(
            tok.line == expected_line,
            "token {:?} recorded line {} but starts on line {}",
            tok.text,
            tok.line,
            expected_line
        );
        expected_line += tok.text.matches('\n').count() as u32;
        assert!(!tok.text.is_empty(), "lexer emitted an empty token");
    }
}

/// Dictionary: the trickiest Rust token shapes — raw strings, byte
/// strings, nested comments, lifetimes, and the rule keywords.
pub const DICT: &[&[u8]] = &[
    b"//",
    b"/*",
    b"*/",
    b"\"",
    b"\\\"",
    b"r#\"",
    b"\"#",
    b"br#\"",
    b"b'",
    b"'a",
    b"'\\''",
    b"0x1f",
    b"1_000u64",
    b"1e9",
    b"unwrap",
    b"fork",
    b"lint:allow(R1)",
    b"#[cfg(test)]",
];

/// Seeds: small Rust fragments covering every token class.
pub const SEEDS: &[&[u8]] = &[
    b"fn main() { let x = 1; }",
    b"// comment\n/* block /* nested */ */\nlet s = r#\"raw \"quoted\"\"#;",
    b"let b = b\"bytes\"; let c = b'x'; let l: &'static str = \"s\";",
    b"x.unwrap(); y.expect(\"msg\"); panic!(\"boom\"); v[0];",
];

/// Run the parser + call-graph target on raw fuzz bytes. The input is
/// treated as the contents of one library file; the full per-file
/// pipeline (annotations, test regions, rules, item table) and the
/// workspace phases (call graph, interprocedural passes) must be total
/// and deterministic on it.
pub fn run_parse(data: &[u8]) {
    let source = String::from_utf8_lossy(data).into_owned();
    let file = crate::engine::SourceFile {
        path: "crates/fuzz/src/lib.rs".to_string(),
        text: source,
    };

    // Totality + determinism of the per-file pipeline.
    let a = crate::engine::analyze_one(&file);
    let b = crate::engine::analyze_one(&file);
    assert_eq!(a, b, "per-file analysis must be deterministic");

    // Structural sanity of the item table: every recorded line exists
    // in the input and every qual is rooted in the file's module.
    let lines = file.text.matches('\n').count() as u64 + 1;
    for f in &a.table.fns {
        assert!(f.line >= 1 && f.line <= lines, "fn line out of range");
        assert!(
            f.qual.starts_with("appvsweb_fuzz"),
            "qual {:?} escaped the module",
            f.qual
        );
        for c in &f.calls {
            assert!(c.line >= 1 && c.line <= lines, "call line out of range");
        }
        for p in &f.panics {
            assert!(p.line >= 1 && p.line <= lines, "panic line out of range");
        }
    }

    // The call graph and the workspace passes must be total too.
    let tables = vec![a.table.clone()];
    let graph = crate::callgraph::CallGraph::build(&tables);
    let classes = vec![crate::engine::classify(&file.path)];
    let allows = vec![a.allow_lines.clone()];
    let ctx = crate::taint::PassCtx {
        tables: &tables,
        classes: &classes,
        allows: &allows,
        graph: &graph,
    };
    let mut findings = Vec::new();
    let mut suppressed = std::collections::BTreeMap::new();
    crate::taint::run_workspace_passes(&ctx, &mut findings, &mut suppressed);
}

/// Dictionary for the parser target: item heads, paths, generics, and
/// the body facts the passes key on.
pub const PARSE_DICT: &[&[u8]] = &[
    b"fn ",
    b"pub fn ",
    b"impl ",
    b" for ",
    b"trait ",
    b"mod ",
    b"struct ",
    b"enum ",
    b"use ",
    b"::",
    b"self::",
    b"crate::",
    b"super::",
    b"as ",
    b"{",
    b"}",
    b"->",
    b"<T: Clone>",
    b"macro_rules!",
    b"catch_unwind",
    b".fork(",
    b"rng_labels::",
    b".unwrap()",
    b"unreachable!()",
    b"#[cfg(test)]",
];

/// Seeds for the parser target: fragments that exercise scope tracking,
/// use expansion, and each body-fact extractor.
pub const PARSE_SEEDS: &[&[u8]] = &[
    b"pub fn f(x: u8) -> u8 { g(x) }\nfn g(x: u8) -> u8 { x }\n",
    b"use crate::a::{b, c as d};\nmod a { pub fn b() {} pub fn c() {} }\n",
    b"struct S { rng: SimRng }\nimpl S { fn go(&mut self) { self.rng.fork(\"x\"); } }\n",
    b"fn w() { v.unwrap(); panic!(\"boom\"); std::panic::catch_unwind(|| {}); }\n",
    b"macro_rules! m { ($x:expr) => { $x.unwrap() }; }\n",
    b"impl Iterator for S { type Item = u8; fn next(&mut self) -> Option<u8> { None } }\n",
];
