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
    // equal digests), and that digest must be the one `corpus/digests.tsv`
    // pins for the seed. The first guards what the determinism lints
    // protect (a HashMap-order or wall-clock leak into a decision path);
    // the second catches a change of decisions that is deterministic, which
    // two runs of one build cannot see.
    let mut actual = String::from("seed\tdigest\n");
    let mut diverged = Vec::new();
    for seed in corpus_seeds() {
        let first = run_seed(seed).render();
        let second = run_seed(seed).render();
        assert_eq!(
            first, second,
            "SEED {seed} DIVERGED between two in-process runs\nfirst:\n{first}\nsecond:\n{second}"
        );
        let digest = first
            .lines()
            .find_map(|l| l.strip_prefix("digest "))
            .expect("a rendered report ends in its digest line");
        if pinned_digest(seed) != Some(digest) {
            diverged.push(seed);
        }
        actual.push_str(&format!("{seed}\t{digest}\n"));
    }
    assert!(
        diverged.is_empty(),
        "seeds {diverged:?} moved off corpus/digests.tsv; replay: cargo run --release \
         -p threesigma-cli -- simtest --seed N. If the change of decisions is intended, \
         the replacement file is:\n{actual}"
    );
}

/// The digest `corpus/digests.tsv` pins for `seed`.
fn pinned_digest(seed: u64) -> Option<&'static str> {
    include_str!("../corpus/digests.tsv")
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once('\t'))
        .find(|(s, _)| s.parse() == Ok(seed))
        .map(|(_, d)| d)
}
