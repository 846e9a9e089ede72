#!/usr/bin/env bash
# Build the repository's `repro` binary and the benchmark in release
# mode, then run the benchmark with the given arguments. Run it from the
# repository root. Build output goes to $CARGO_TARGET_DIR (default
# `target`); the benchmark finds `repro` there.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ugpc-experiments --bin repro
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/ugpc-benchmark" "$@"
