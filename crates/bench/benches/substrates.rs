//! Micro-benches for the substrate layers: codecs, hashes, wire serialization,
//! the EasyList matcher, the decision-tree learner, and the ground-truth
//! scanner. These are the components whose costs dominate a study run.

use appvsweb_adblock::FilterEngine;
use appvsweb_bench::repo_root;
use appvsweb_httpsim::{codec, wire, Body, Request, Url};
use appvsweb_pii::recon::{DecisionTree, TreeConfig};
use appvsweb_pii::{hash, Encoding, GroundTruth, GroundTruthMatcher};
use appvsweb_testkit::BenchRunner;
use std::collections::BTreeSet;

fn bench_codecs(runner: &mut BenchRunner) {
    let text = "jane.conner.4821@testmail.example lat=42.361145 lon=-71.057083";
    runner.bench("percent_encode", || codec::percent_encode(text));
    let data = vec![0xABu8; 1024];
    runner.bench("base64_encode_1k", || codec::base64_encode(&data));
    let encoded = codec::base64_encode(&data);
    runner.bench("base64_decode_1k", || codec::base64_decode(&encoded));
}

fn bench_hashes(runner: &mut BenchRunner) {
    let email = b"jane.conner.4821@testmail.example";
    runner.bench("md5_email", || hash::md5(email));
    runner.bench("sha1_email", || hash::sha1(email));
    runner.bench("sha256_email", || hash::sha256(email));
    let blob = vec![0x5Au8; 64 * 1024];
    runner.bench("sha256_64k", || hash::sha256(&blob));
}

fn bench_wire(runner: &mut BenchRunner) {
    let req = Request::post(
        Url::parse("https://api.example.com/v1/track?uid=abc&lat=42.36").unwrap(),
        Body::form(&[("email", "user@example.com"), ("ev", "init")]),
    )
    .with_user_agent("ExampleApp/4.1 (Android; Nexus 5)");
    runner.bench("wire_serialize_request", || wire::serialize_request(&req));
}

fn bench_adblock(runner: &mut BenchRunner) {
    let engine = FilterEngine::with_bundled_list();
    let urls = [
        "https://www.google-analytics.com/collect?v=1&tid=UA-1",
        "https://ads.g.doubleclick.net/pagead/adview?ai=xyz",
        "https://www.weather.com/today/l/02138",
        "https://cdn.static.example/app.css",
    ];
    runner.bench("adblock_check_4urls", || {
        urls.iter()
            .filter(|u| engine.is_ad_or_tracking(u, "weather.com"))
            .count()
    });
}

fn bench_matcher(runner: &mut BenchRunner) {
    let truth = GroundTruth::synthetic(2016).with_device(
        "Nexus 5",
        &[
            ("imei", "354436069633711"),
            ("ad_id", "9d2a1f6c-0b51-4ef2-a1b0-cc9e34ad8f01"),
        ],
        Some((42.361145, -71.057083)),
    );
    runner.bench("matcher_build", || GroundTruthMatcher::new(&truth));
    let matcher = GroundTruthMatcher::new(&truth);
    let clean = "GET /api/v2/content/7 HTTP/1.1\nHost: api.weather.com\nAccept: */*";
    let dirty = format!(
        "GET /pixel?gaid={}&lat=42.3611&email={} HTTP/1.1\nHost: t.example",
        truth.device_ids[1].1, truth.email
    );
    runner.bench("matcher_scan_clean_flow", || matcher.scan(clean));
    runner.bench("matcher_scan_leaky_flow", || matcher.scan(&dirty));

    // The sparse walk's worst case: long hex and base64 tokens that run
    // deep into the dictionary's digest chains before diverging (each
    // forces a walk back along failure links), then the full digests.
    let mut digest_heavy = String::from("POST /v1/sync HTTP/1.1\nHost: t.example\n\n");
    for value in [&truth.email, &truth.device_ids[0].1, &truth.device_ids[1].1] {
        for encoding in [
            Encoding::Md5,
            Encoding::Sha1,
            Encoding::Sha256,
            Encoding::Base64,
        ] {
            let token = encoding.apply(value);
            for cut in (6..token.len()).step_by(6) {
                digest_heavy.push_str(&token[..cut]);
                digest_heavy.push_str("zz&");
            }
            digest_heavy.push_str(&token);
            digest_heavy.push('&');
        }
    }
    runner.bench("matcher_scan_digest_heavy_flow", || {
        matcher.scan(&digest_heavy)
    });
}

fn bench_decision_tree(runner: &mut BenchRunner) {
    let examples: Vec<(BTreeSet<String>, bool)> = (0..200)
        .map(|i| {
            let mut set: BTreeSet<String> = ["get", "http", "host", "v1"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            set.insert(format!("tok{}", i % 17));
            let positive = i % 3 == 0;
            if positive {
                set.insert("email".into());
            }
            (set, positive)
        })
        .collect();
    runner.bench("decision_tree_train_200", || {
        DecisionTree::train(&examples, &TreeConfig::default())
    });
    let tree = DecisionTree::train(&examples, &TreeConfig::default());
    runner.bench("decision_tree_predict", || tree.predict(&examples[0].0));
}

fn main() {
    let mut runner = BenchRunner::new("substrates");
    bench_codecs(&mut runner);
    bench_hashes(&mut runner);
    bench_wire(&mut runner);
    bench_adblock(&mut runner);
    bench_matcher(&mut runner);
    bench_decision_tree(&mut runner);
    runner
        .write_json(&repo_root())
        .expect("write bench artifact");
}
