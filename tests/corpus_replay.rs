//! Replay the committed fuzz regression corpus on every `cargo test`.
//!
//! Each entry under `tests/corpus/<target>/` was either hand-written to
//! pin a previously fixed bug (the `regress-*` files) or discovered by
//! `repro fuzz` as coverage-expanding. Replaying them all, every time,
//! is what turns the corpus into a regression suite: a target harness
//! that starts panicking on a committed input fails here first.

use appvsweb_bench::fuzz_targets;
use appvsweb_testkit::{fuzz, FuzzConfig};

/// Replay-only configuration: no mutation, just the committed inputs.
fn replay_cfg() -> FuzzConfig {
    FuzzConfig {
        iters: 0,
        ..FuzzConfig::default()
    }
}

fn corpus_for(name: &str) -> Vec<Vec<u8>> {
    let dir = fuzz_targets::corpus_dir(name);
    fuzz::load_corpus_dir(&dir)
        .expect("corpus directory readable")
        .into_iter()
        .map(|(_, data)| data)
        .collect()
}

#[test]
fn every_corpus_entry_replays_without_crashing() {
    for target in fuzz_targets::all() {
        let corpus = corpus_for(target.name);
        let outcome = fuzz::fuzz(&target, &corpus, &replay_cfg());
        let messages: Vec<&str> = outcome
            .replay_crashes
            .iter()
            .map(|c| c.message.as_str())
            .collect();
        assert!(
            outcome.replay_crashes.is_empty(),
            "{}: committed corpus entries crashed on replay: {messages:?}",
            target.name
        );
        assert_eq!(
            outcome.execs, outcome.corpus_in as u64,
            "replay-only run must execute exactly the pool"
        );
    }
}

#[test]
fn regression_pins_are_committed() {
    // The regression families from earlier PRs must stay in the
    // corpus: the PR 2 gzip-trailer truncation and DNS negative-cache
    // fixes, the PR 3 lexer property-test edge cases, the journal
    // renderer's close-without-open totality case, the population
    // sketch hostile-state pins (unsorted buckets, absurd capacities,
    // non-finite op streams), the serve pins (bare-LF request
    // heads, oversized content-length, torn WAL tails, sequence
    // regressions, supervisor records with no enclosing Start), the
    // lint item-parser pins (macro bodies skipped wholesale, unclosed
    // generics bounded, torn fork-label argument lists), and the
    // hot-path differential pins (a DEFLATE stream whose back-reference
    // reaches before the stream start — it must never read a pooled
    // buffer's earlier bytes — the chunk-framing boundary family for
    // the arithmetic wire lengths plus a chunk size line whose `size +
    // 2` overflowed the decoder, and the adblock pre-filter's
    // short-token and caret-separator fallbacks).
    for (target, pin) in [
        ("httpsim_gzip", "regress-trailer-truncated.bin"),
        ("httpsim_gzip", "regress-trailer-missing.bin"),
        ("httpsim_gzip", "regress-backref-past-base.bin"),
        ("httpsim_wire", "regress-chunk-boundary-1024.bin"),
        ("httpsim_wire", "regress-chunk-remainder-1025.bin"),
        ("httpsim_wire", "regress-chunk-torn-trailer.bin"),
        ("httpsim_wire", "regress-chunk-size-overflow.bin"),
        ("adblock_filter", "regress-prefilter-short-token.bin"),
        ("adblock_filter", "regress-prefilter-caret-separator.bin"),
        ("netsim_dns", "regress-negative-cache-timeout.bin"),
        ("netsim_dns", "regress-negative-cache-nxdomain.bin"),
        ("lint_lexer", "regress-raw-string-hashes.bin"),
        ("lint_lexer", "regress-nested-comment.bin"),
        ("lint_lexer", "regress-unterminated-raw.bin"),
        ("lint_parse", "regress-macro-body-allow.bin"),
        ("lint_parse", "regress-unclosed-generics.bin"),
        ("lint_parse", "regress-torn-fork-args.bin"),
        ("trace", "regress-depth-underflow.bin"),
        ("population", "regress-report-roundtrip.bin"),
        ("population", "regress-unsorted-buckets.bin"),
        ("population", "regress-topk-absurd-capacity.bin"),
        ("population", "regress-opstream-nonfinite.bin"),
        ("serve", "regress-http-bare-lf.bin"),
        ("serve", "regress-http-length-overflow.bin"),
        ("serve", "regress-wal-torn-tail.bin"),
        ("serve", "regress-wal-seq-regression.bin"),
        ("serve", "regress-wal-orphan-supervisor-records.bin"),
    ] {
        let path = fuzz_targets::corpus_dir(target).join(pin);
        assert!(path.is_file(), "missing regression pin {}", path.display());
    }
}

#[test]
fn short_fuzz_runs_are_deterministic_per_target() {
    // Same seed + same corpus -> byte-identical schedule. A cheap burst
    // per target keeps this check inside the test budget while still
    // exercising the mutation path (replay alone would not).
    let cfg = FuzzConfig {
        iters: 64,
        ..FuzzConfig::default()
    };
    for target in fuzz_targets::all() {
        let corpus = corpus_for(target.name);
        let a = fuzz::fuzz(&target, &corpus, &cfg);
        let b = fuzz::fuzz(&target, &corpus, &cfg);
        assert_eq!(a.execs, b.execs, "{}: execs diverged", target.name);
        assert_eq!(a.edges, b.edges, "{}: coverage diverged", target.name);
        assert_eq!(
            a.discoveries, b.discoveries,
            "{}: discoveries diverged",
            target.name
        );
    }
}

#[test]
fn json_corpus_inputs_hit_the_serialization_fixed_point() {
    // Differential check (beyond the in-harness assertions): for every
    // committed fuzz input that parses as JSON, parse -> serialize ->
    // parse -> serialize must reach a byte-level fixed point in both the
    // compact and pretty forms, and float formatting must be total.
    let mut parsed = 0usize;
    for data in corpus_for("json") {
        let text = String::from_utf8_lossy(&data);
        let Ok(value) = appvsweb_json::parse(&text) else {
            continue;
        };
        parsed += 1;
        let compact = value.to_compact();
        let reparsed = appvsweb_json::parse(&compact).expect("compact form must reparse");
        assert_eq!(reparsed.to_compact(), compact, "compact fixed point");
        let pretty = value.to_pretty();
        let repretty = appvsweb_json::parse(&pretty).expect("pretty form must reparse");
        assert_eq!(repretty, reparsed, "pretty and compact forms agree");
    }
    assert!(
        parsed >= 10,
        "the json corpus should contain plenty of parseable documents, got {parsed}"
    );
}

#[test]
fn trace_corpus_journals_hit_the_codec_fixed_point() {
    // Same differential law, one type layer up: every committed trace
    // input that decodes as a StudyJournal must survive decode ->
    // encode -> decode losslessly, and the span-tree renderer must be
    // total on it — even on journals no real capture would produce
    // (unbalanced spans, absurd depths).
    use appvsweb::obs::journal::{render_tree, StudyJournal};
    let mut decoded = 0usize;
    for data in corpus_for("trace") {
        let text = String::from_utf8_lossy(&data);
        let Ok(journal) = appvsweb::json::decode::<StudyJournal>(&text) else {
            continue;
        };
        decoded += 1;
        let compact = appvsweb::json::encode(&journal);
        let back: StudyJournal =
            appvsweb::json::decode(&compact).expect("re-encoded journal must reparse");
        assert_eq!(back, journal, "journal codec fixed point");
        for cell in &journal.cells {
            let _ = render_tree(cell);
        }
    }
    assert!(
        decoded >= 2,
        "the trace corpus should contain decodable journals, got {decoded}"
    );
}

#[test]
fn serve_corpus_wal_lines_hit_the_codec_fixed_point() {
    // Differential law for the revision journal: every committed fuzz
    // input in WAL mode (odd first byte) that replays must have each
    // record survive encode -> decode -> encode at a byte-level fixed
    // point, and the replayed fold must produce a state whose JSON
    // codec roundtrips.
    use appvsweb::json::{FromJson, ToJson};
    use appvsweb::serve::{ServeState, WalRecord};
    let mut replayed = 0usize;
    for data in corpus_for("serve") {
        let Some((mode, rest)) = data.split_first() else {
            continue;
        };
        if mode % 2 == 0 {
            continue;
        }
        let text = String::from_utf8_lossy(rest);
        let Ok(records) = appvsweb::serve::replay_lines(&text) else {
            continue;
        };
        if records.is_empty() {
            continue;
        }
        replayed += 1;
        let mut state = ServeState::default();
        for rec in &records {
            let line = rec.encode();
            let back = WalRecord::decode(&line).expect("re-encoded record must decode");
            assert_eq!(back.encode(), line, "WAL codec fixed point");
            state.apply(rec);
        }
        state.requeue_inflight();
        let back = ServeState::from_json(&state.to_json()).expect("state JSON reparses");
        assert_eq!(back, state, "state codec fixed point");
    }
    assert!(
        replayed >= 3,
        "the serve corpus should contain replayable journals, got {replayed}"
    );
}

#[test]
fn population_corpus_sketches_hit_the_codec_fixed_point() {
    // Differential law for the population codecs: every committed input
    // that decodes as a report or sketch must survive decode -> encode
    // -> decode losslessly, every consumer must be total on it (the
    // renderer, quantiles, rankings), and an identity merge must leave
    // the re-encoded bytes at a fixed point.
    use appvsweb::analysis::population::render_population_report;
    use appvsweb::analysis::{PopulationReport, QuantileSketch, TopKSketch};
    let mut decoded = 0usize;
    for data in corpus_for("population") {
        let text = String::from_utf8_lossy(&data);
        if let Ok(report) = appvsweb::json::decode::<PopulationReport>(&text) {
            decoded += 1;
            let compact = appvsweb::json::encode(&report);
            let back: PopulationReport =
                appvsweb::json::decode(&compact).expect("re-encoded report must reparse");
            assert_eq!(back, report, "report codec fixed point");
            let _ = render_population_report(&report);
        } else if let Ok(sketch) = appvsweb::json::decode::<QuantileSketch>(&text) {
            decoded += 1;
            let mut merged = sketch.clone();
            merged.merge(&QuantileSketch::new());
            let canonical = appvsweb::json::encode(&merged);
            let mut twice = merged.clone();
            twice.merge(&QuantileSketch::new());
            assert_eq!(
                appvsweb::json::encode(&twice),
                canonical,
                "identity merge must normalize hostile sketches idempotently"
            );
            let _ = sketch.quantile(0.5);
        } else if let Ok(sketch) = appvsweb::json::decode::<TopKSketch>(&text) {
            decoded += 1;
            let _ = sketch.top(10);
            let compact = appvsweb::json::encode(&sketch);
            let back: TopKSketch =
                appvsweb::json::decode(&compact).expect("re-encoded top-k must reparse");
            assert_eq!(back, sketch, "top-k codec fixed point");
        }
    }
    assert!(
        decoded >= 3,
        "the population corpus should contain decodable documents, got {decoded}"
    );
}
