//! Runs the full checked-in seed corpus through the harness.
//!
//! Ignored in debug builds (the unoptimized MILP solver makes a 25-seed
//! campaign take many minutes); CI covers the corpus in release via the
//! `simtest` job (`cargo run --release -p threesigma-cli -- simtest`), and
//! locally `cargo test --release -p threesigma-simtest -- --include-ignored`
//! runs it directly.

use threesigma_simtest::{corpus_seeds, run_seed};

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run in release or via the simtest CLI"
)]
fn every_corpus_seed_passes() {
    for seed in corpus_seeds() {
        let report = run_seed(seed);
        assert!(
            report.passed(),
            "FAILING SEED: {seed}\nreplay: cargo run --release -p threesigma-cli -- simtest --seed {seed}\n{}",
            report.render()
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run in release or via the simtest CLI"
)]
fn every_corpus_seed_is_deterministic_across_runs() {
    // Two full in-process runs of the same seed must render byte-identical
    // reports (the render ends in its own FNV digest, so equal strings mean
    // equal digests). This is the guard the determinism lints exist to
    // protect: any HashMap-order or wall-clock leak into a decision path
    // shows up here as a digest mismatch.
    for seed in corpus_seeds() {
        let first = run_seed(seed).render();
        let second = run_seed(seed).render();
        assert_eq!(
            first, second,
            "SEED {seed} DIVERGED between two in-process runs\nfirst:\n{first}\nsecond:\n{second}"
        );
    }
}
