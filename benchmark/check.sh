#!/usr/bin/env bash
# Lints, tests and smoke-runs the benchmark package. It sits outside the
# root workspace, so the repository's tier-1 commands do not cover it.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml
cargo fmt --manifest-path "$manifest" --check
cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
cargo test --offline --manifest-path "$manifest"
cargo run --offline --release --quiet --manifest-path "$manifest" -- run --smoke
