#!/bin/sh
# Tier-1 gate, runnable fully offline: every dependency is an in-repo
# crate, so a fresh checkout needs nothing beyond the Rust toolchain.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy --no-default-features (obs compiled out) =="
cargo clippy -p appvsweb -p appvsweb-bench --all-targets --no-default-features -- -D warnings

echo "== appvsweb-lint --check (determinism & robustness vs lint.baseline.json) =="
cargo run -q --release -p appvsweb-lint -- --check

echo "== appvsweb-lint worker gate (1- and 4-worker reports must be byte-identical) =="
cargo run -q --release -p appvsweb-lint -- --json --workers 1 > target/lint-w1.json
cargo run -q --release -p appvsweb-lint -- --json --workers 4 > target/lint-w4.json
cmp target/lint-w1.json target/lint-w4.json
rm -f target/lint-w1.json target/lint-w4.json

echo "== lint bench (emits BENCH_lint.json: scan size, tokens/sec, findings by rule) =="
cargo bench -q -p appvsweb-bench --bench lint

echo "== pipeline bench + perf gate (full-campaign median >25% over committed fails) =="
BENCH_GATE=1 cargo bench -q -p appvsweb-bench --bench study_pipeline

echo "== population bench + perf gate (1M-user campaign median >25% over committed fails) =="
BENCH_GATE=1 cargo bench -q -p appvsweb-bench --bench population

echo "== repro fuzz --smoke (corpus replay + short mutation burst; emits BENCH_testkit.json) =="
cargo run -q --release -p appvsweb-bench --bin repro -- fuzz --smoke

echo "== repro metrics --check (obs conservation laws over the quick campaign) =="
cargo run -q --release -p appvsweb-bench --bin repro -- metrics --check

echo "== repro population --smoke (1k-user campaign determinism gate) =="
cargo run -q --release -p appvsweb-bench --bin repro -- population --smoke

echo "== repro serve --smoke (submit -> crash -> recover -> diff, 1/2/8-worker determinism) =="
cargo run -q --release -p appvsweb-bench --bin repro -- serve --smoke

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test -q (includes tests/chaos.rs fault-injection suite) =="
cargo test -q --workspace
