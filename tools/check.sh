#!/usr/bin/env bash
# The repository's checks, one stage per CI job:
#
#   tools/check.sh tier1              # the gate: cargo build --release && cargo test -q
#   tools/check.sh lint               # threesigma-lint (JSON + human), fmt, clippy
#   tools/check.sh docs               # rustdoc, warnings denied
#   tools/check.sh solver-fixture     # solver oracles in release, 512-case properties
#   tools/check.sh release-tests      # the release-only oracles (~6 min on 2 cores)
#   tools/check.sh simtest [SEED]     # seed corpus, fresh seeds, metrics replay
#   tools/check.sh serve-smoke        # snapshot/restore and restart ≡ the straight run
#   tools/check.sh crash-smoke [SEED] # kill -9 at a seeded line, recovery ≡ the straight run
#   tools/check.sh bench-smoke        # benchmark/run.sh --quick and its unit tests
#
# SEED defaults to the clock and is printed for replay. Outputs (lint
# findings, metrics, summaries, data directories) go to target/check/<stage>/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
stage=${1:?usage: tools/check.sh <stage> [SEED]}
seed=${2:-$(date +%s)}
target=${CARGO_TARGET_DIR:-target}
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
bin="$target/release/threesigma"
fix="$PWD/crates/cli/tests/fixtures"
out="$target/check/$stage"
rm -rf "$out"
mkdir -p "$out"

# `cargo test "$@"` that also fails when no test ran: a name filter that
# matches nothing (`--lib dist::` after the module moved) exits 0.
nonempty() {
  cargo test "$@" 2>&1 | tee "$out/cargo-test.log"
  if ! awk '/^test result:/ { n += $4 } END { exit n == 0 }' "$out/cargo-test.log"; then
    echo "error: \`cargo test $*\` ran no test" >&2
    exit 1
  fi
}

case "$stage" in
tier1)
  cargo build --release && cargo test -q
  ;;
lint)
  # `timeout 30` guards the analyzer's <30 s budget (two call-graph
  # passes), so an accidentally quadratic pass fails loudly.
  cargo build --release -p threesigma-lint
  timeout 30 "$target/release/threesigma-lint" check --format json \
    > "$out/lint-findings.json" || { cat "$out/lint-findings.json"; exit 1; }
  timeout 30 "$target/release/threesigma-lint" check
  cargo fmt --all --check
  cargo clippy --workspace --all-targets -- -D warnings
  ;;
docs)
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
  ;;
solver-fixture)
  # Tier-1 runs these two in debug: the fixture corpus through every
  # solver tier with `golden.tsv` bit for bit, and the LP workspace (reset
  # ≡ new, allocation budget). Here they run in the release build that
  # ships, where the optimiser is free to reorder what debug leaves alone.
  cargo test --release -p threesigma-milp --test solver_oracle -- --nocapture
  cargo test --release -p threesigma-milp --test lp_workspace
  # Tier-1 runs the rest at the default case count: presolve equivalence,
  # row-CSR ≡ row-per-Vec, sparse simplex ≡ dense, libm-free branching
  # score, predictor ≡ reference (with the observe allocation pin, here
  # in release), single-shift insert ≡ insert then merge, column-order
  # survival ≡ row order and the analytic grid bit pins.
  export PROPTEST_CASES=512
  cargo test --release -p threesigma-milp --test presolve_prop
  cargo test --release -p threesigma-milp --test model_csr
  nonempty --release -p threesigma-milp --lib simplex::exactness
  nonempty --release -p threesigma-milp --lib branch::tests::distance_to_nearest_integer
  cargo test --release -p threesigma-predict
  nonempty --release -p threesigma-histogram --lib streaming
  nonempty --release -p threesigma-histogram --lib dist::
  ;;
release-tests)
  # Running-side compile properties and allocation pins at 512 cases.
  PROPTEST_CASES=512 nonempty --release -p threesigma --lib sched::compile
  # Six tests are `#[cfg_attr(debug_assertions, ignore)]` (corpus
  # determinism, 100k-job soak, crash campaign, CLI replay), so tier-1
  # skips them. The rest of both packages re-runs with them against the
  # release binary the smoke stages drive. The timeout guards a hang.
  timeout 1500 cargo test --release -p threesigma-simtest -p threesigma-cli
  ;;
simtest)
  cargo build --release -p threesigma-cli
  cd "$out"
  "$bin" simtest
  "$bin" simtest --seed 5 # node crashes, full report
  "$bin" simtest --seed 6 # overload, full report
  echo "fresh seeds from $seed"
  "$bin" simtest --iters 12 --start-seed "$seed"
  # `metrics` self-checks its Prometheus exposition; the re-run holds the
  # stable JSON dump byte-identical for a fixed seed.
  "$bin" metrics --env google --hours 0.25 --seed 42 --cycle 30 \
    --json metrics.json --trace-out cycles.jsonl > exposition.txt
  "$bin" metrics --env google --hours 0.25 --seed 42 --cycle 30 \
    --json metrics_replay.json > /dev/null
  cmp metrics.json metrics_replay.json
  ;;
serve-smoke)
  cargo build --release -p threesigma-cli
  cd "$out"
  cat "$fix/serve_part1.jsonl" "$fix/serve_part2.jsonl" > serve_full.jsonl
  "$bin" serve --retention 60 --input serve_full.jsonl \
    --metrics-json metrics_full.json --summary-json summary_full.json
  # Part 1, snapshot at quiescence, exit; restore in a fresh process and
  # stream part 2. Metrics and summary (with the outcome digest) match.
  "$bin" serve --retention 60 --input "$fix/serve_part1.jsonl" --snapshot-out serve_snap.json
  "$bin" serve --retention 60 --restore serve_snap.json --input "$fix/serve_part2.jsonl" \
    --metrics-json metrics_resumed.json --summary-json summary_resumed.json
  cmp metrics_full.json metrics_resumed.json
  cmp summary_full.json summary_resumed.json
  # A supervisor's restart: part 1 on a data directory, clean exit at EOF,
  # part 2 in a fresh process on it. The summary matches; the metrics do
  # once the wal_* lines (a data directory adds them) and their commas go.
  "$bin" serve --retention 60 --data-dir clean_data --no-fsync --input "$fix/serve_part1.jsonl"
  "$bin" serve --retention 60 --data-dir clean_data --no-fsync --input "$fix/serve_part2.jsonl" \
    --metrics-json metrics_clean.json --summary-json summary_clean.json
  cmp summary_full.json summary_clean.json
  grep -v '"wal_' metrics_full.json | sed 's/,$//' > m_full.txt
  grep -v '"wal_' metrics_clean.json | sed 's/,$//' > m_clean.txt
  cmp m_full.txt m_clean.txt
  ;;
crash-smoke)
  cargo build --release -p threesigma-cli
  cd "$out"
  cat "$fix/serve_part1.jsonl" "$fix/serve_part2.jsonl" > serve_full.jsonl
  "$bin" serve --retention 60 --data-dir ref_data --snapshot-every-jobs 3 \
    --input serve_full.jsonl --metrics-json metrics_ref.json --summary-json summary_ref.json
  # Feed K lines through a fifo, SIGKILL once they are committed (an ack
  # follows the fsync covering its record), then finish the stream in a
  # fresh process on the same --data-dir. `burst` hands the K lines over in
  # one write (one multi-line commit); `drip` one line per 50 ms (a commit
  # each).
  total=$(wc -l < serve_full.jsonl)
  k=$(( seed % (total - 2) + 1 ))
  echo "killing after $k of $total lines (seed $seed)"
  tail -n +"$((k + 1))" serve_full.jsonl > serve_rest.jsonl
  for leg in burst drip; do
    mkfifo serve_in_$leg
    "$bin" serve --retention 60 --data-dir crash_data_$leg --snapshot-every-jobs 3 \
      --input serve_in_$leg > victim_$leg.log 2>&1 &
    srv=$!
    exec 3>serve_in_$leg
    if [ "$leg" = burst ]; then
      head -n "$k" serve_full.jsonl >&3
    else
      head -n "$k" serve_full.jsonl | while IFS= read -r line; do
        printf '%s\n' "$line" >&3
        sleep 0.05
      done
    fi
    sleep 2
    kill -9 "$srv" || true
    wait "$srv" 2>/dev/null || true
    exec 3>&-
    "$bin" serve --retention 60 --data-dir crash_data_$leg --snapshot-every-jobs 3 \
      --input serve_rest.jsonl \
      --metrics-json metrics_crash_$leg.json --summary-json summary_crash_$leg.json
  done
  # Both legs match the reference: the summary byte for byte, the metrics
  # minus wal_recovered_records (process-local, zero on the straight run).
  grep -v wal_recovered_records metrics_ref.json > m_ref.txt
  for leg in burst drip; do
    cmp summary_ref.json summary_crash_$leg.json
    grep -v wal_recovered_records metrics_crash_$leg.json > m_crash_$leg.txt
    cmp m_ref.txt m_crash_$leg.txt
  done
  "$bin" simtest --crash --kill-points 8 --seed "$seed" # torn-tail variants
  ;;
bench-smoke)
  # The benchmark is its own package linking the surface benchmark/README.md
  # lists, so no workspace build compiles it; a renamed item or a broken
  # output check fails here, not in the perf gate. Numbers are not read.
  timeout 300 bash benchmark/run.sh --quick
  cargo test --release --offline --manifest-path benchmark/Cargo.toml
  ;;
*)
  echo "unknown stage \`$stage\`; the list is at the top of $0" >&2
  exit 2
  ;;
esac
