//! Runs the full checked-in seed corpus through the harness.
//!
//! Ignored in debug builds (the unoptimized MILP solver makes a 25-seed
//! campaign take many minutes); CI covers the corpus in release via the
//! `simtest` job (`cargo run --release -p threesigma-cli -- simtest`), and
//! locally `cargo test --release -p threesigma-simtest -- --include-ignored`
//! runs it directly.

use threesigma_simtest::{corpus_seeds, run_seed, run_seed_with, SeedOverrides};

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

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run in release or via the simtest CLI"
)]
fn every_corpus_seed_is_identical_with_incremental_solving_off() {
    // The incremental tier-2 path only short-circuits a solve when the
    // model, warm start, and budgets are bit-identical to the previous
    // cycle's AND that solve ran to proven optimality — in which case the
    // cached solution IS the solution a fresh solve would produce. So
    // disabling the cache must not move a single byte of the report. A
    // mismatch means the reuse contract leaked an unproven or stale solution
    // into a scheduling decision.
    for seed in corpus_seeds() {
        let baseline = run_seed(seed).render();
        let replay = run_seed_with(
            seed,
            SeedOverrides {
                no_incremental: true,
                ..SeedOverrides::default()
            },
        )
        .render();
        assert_eq!(
            baseline, replay,
            "SEED {seed} DIVERGED with incremental solving off\n\
             baseline:\n{baseline}\nreplay:\n{replay}"
        );
    }
}
