#!/usr/bin/env bash
# Local CI: everything a reviewer runs before trusting a change.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== observability smoke (example + self-checker) =="
cargo run --release --example observe

echo "== benches compile =="
cargo bench --workspace --no-run

echo "== observability overhead bench =="
cargo bench -p rolljoin-bench --bench obs_overhead

echo "== perfbench (outside the workspace: build, self-tests, rustfmt, clippy) =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo fmt --manifest-path perfbench/Cargo.toml --check
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "== perfbench smoke (2 s per workload: gates pass, no failed operation) =="
for wl in star-skew churn-cancel chain-all; do
    result=$(cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$wl" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    if ! grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' <<<"$result"; then
        echo "perfbench smoke failed on $wl: $result" >&2
        exit 1
    fi
    echo "$wl ok"
done

echo "== docs =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "CI OK"
