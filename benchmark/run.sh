#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it with the arguments given.
#
#   benchmark/run.sh --workload serve-tcp --seed 1 --seconds 12 --trace 0
#   benchmark/run.sh                 # every workload, untraced and traced
#   benchmark/run.sh --repeat 3      # … three sets, with the noise self-check
#   benchmark/run.sh --quick         # smoke sizes, about 20 s in all
#
# Build products go to $CARGO_TARGET_DIR when it is set, and to the root
# `target/` otherwise, which the root workspace's builds already fill with
# the same crates.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
case "${CARGO_TARGET_DIR:-}" in
  "") export CARGO_TARGET_DIR="$root/target" ;;
  /*) ;;
  *) export CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/threesigma-benchmark" "$@"
