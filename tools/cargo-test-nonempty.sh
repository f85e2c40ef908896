#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails if no test ran.
#
# A name filter that matches nothing (`cargo test --lib dist::` after the
# module moved to another crate) exits 0, so a CI step whose tests were
# moved or renamed would keep passing while testing nothing. This wrapper
# passes cargo's output through, fails when cargo fails, and then requires
# at least one passed test summed over every `test result:` line.
#
#   PROPTEST_CASES=512 tools/cargo-test-nonempty.sh --release -p threesigma-histogram --lib dist::
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo test "$@" 2>&1 | tee "$out"
ran=$(awk '/^test result:/ { n += $4 } END { print n + 0 }' "$out")
if [ "$ran" -eq 0 ]; then
  echo "error: \`cargo test $*\` ran no test" >&2
  exit 1
fi
