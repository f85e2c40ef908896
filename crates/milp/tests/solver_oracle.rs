//! Differential solver-oracle suite over the checked-in fixture corpus.
//!
//! Every `tests/fixtures/*.milp` file is a real scheduling-cycle MILP
//! dumped by `cargo run --example dump_milp_fixtures` (bit-exact text
//! format). Each fixture is replayed through all three solver tiers, and
//! the tiers are held to their contracts:
//!
//! * tier 2 is deterministic: two cold solves are bit-for-bit identical,
//!   and each answer matches its recorded golden row;
//! * tiers 0 and 1 are sound: whenever they claim a solution it is
//!   feasible and its objective never exceeds tier 2's (maximisation).

mod common;

use std::path::PathBuf;

use common::fixtures;
use threesigma_milp::{solver_for_tier, BranchAndBound, SolverConfig};

/// The scheduler's stage-3 budgets, minus the wall clock (a wall-clock
/// limit would make `timed_out`, and with it the answer, machine-dependent;
/// the node budget alone keeps every replay deterministic).
fn oracle_config() -> SolverConfig {
    SolverConfig {
        node_limit: 150,
        time_limit: None,
        gap_tolerance: 1e-4,
        ..SolverConfig::default()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn tier2_cold_solves_are_bit_for_bit_deterministic() {
    for (name, model) in fixtures() {
        let warm = vec![0.0; model.num_vars()];
        let a =
            BranchAndBound::with_config(oracle_config()).solve_with_warm_start(&model, Some(&warm));
        let b =
            BranchAndBound::with_config(oracle_config()).solve_with_warm_start(&model, Some(&warm));
        assert_eq!(a.status, b.status, "{name}");
        assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{name}");
        assert_eq!(bits(&a.values), bits(&b.values), "{name}");
        assert_eq!(a.nodes, b.nodes, "{name}");
        assert_eq!(a.lp_iterations, b.lp_iterations, "{name}");
        assert!(
            a.has_solution(),
            "{name}: the all-zero warm start is always feasible, got {:?}",
            a.status
        );
    }
}

#[test]
fn cheap_tiers_are_sound_and_never_beat_tier2() {
    for (name, model) in fixtures() {
        let warm = vec![0.0; model.num_vars()];
        let reference =
            BranchAndBound::with_config(oracle_config()).solve_with_warm_start(&model, Some(&warm));
        assert!(
            reference.has_solution(),
            "{name}: tier 2 must solve the corpus"
        );

        for tier in [0u8, 1] {
            let solver = solver_for_tier(tier, oracle_config());
            assert_eq!(solver.tier(), tier);
            let sol = solver.solve_with_warm_start(&model, Some(&warm));
            assert!(
                sol.has_solution(),
                "{name}: tier {tier} found nothing despite a feasible warm start"
            );
            assert!(
                model.is_feasible(&sol.values, 1e-6),
                "{name}: tier {tier} returned an infeasible assignment"
            );
            // The returned objective must be the objective of the returned
            // values, and a cheap tier can at best match the exact tier.
            assert!(
                (model.objective_value(&sol.values) - sol.objective).abs() <= 1e-6,
                "{name}: tier {tier} mislabeled its own objective"
            );
            assert!(
                sol.objective <= reference.objective + 1e-6,
                "{name}: tier {tier} objective {} beats tier 2's {}",
                sol.objective,
                reference.objective
            );
        }

        // Tier 0 never branches; tier 1 stops at the root.
        let t0 = solver_for_tier(0, oracle_config()).solve_with_warm_start(&model, Some(&warm));
        assert_eq!(t0.nodes, 0, "{name}: tier 0 expanded search nodes");
        let t1 = solver_for_tier(1, oracle_config()).solve_with_warm_start(&model, Some(&warm));
        assert!(t1.nodes <= 1, "{name}: tier 1 expanded {} nodes", t1.nodes);
    }
}

#[test]
fn tier_metadata_is_stable() {
    let names: Vec<&str> = (0..=2)
        .map(|t| solver_for_tier(t, SolverConfig::default()).name())
        .collect();
    assert_eq!(names, ["greedy-rounding", "lp-repair", "branch-and-bound"]);
    for t in 0..=2u8 {
        assert_eq!(solver_for_tier(t, SolverConfig::default()).tier(), t);
    }
}

// ---- Cross-build golden -------------------------------------------------
//
// The tests above compare a build with itself. `fixtures/golden.tsv` pins
// what tier 2 answered at the commit that recorded it, bit for bit, so a
// kernel change that shifts arithmetic — a reordered sum, a different pivot
// on a tie — fails here in debug instead of only in the release corpus job.

/// The two regimes worth pinning: the scheduler's own budgets (`sched`,
/// which is `oracle_config()` — 150 nodes, gap 1e-4: most searching solves
/// stop at that cap) and a search that mostly runs to its proof (`deep` —
/// the solver defaults' 1e-6 gap under a 2,000-node cap that keeps the
/// debug run short), so deep trees and late incumbents are covered too.
fn golden_configs() -> [(&'static str, SolverConfig); 2] {
    let deep = SolverConfig {
        node_limit: 2_000,
        ..SolverConfig::default()
    };
    [("sched", oracle_config()), ("deep", deep)]
}

/// 64-bit FNV-1a over the little-endian bytes of every value's bit pattern.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

const GOLDEN_HEADER: &str = "# fixture\tconfig\twarm\tstatus\tobjective_bits\tbest_bound_bits\t\
                             nodes\tlp_iterations\tincumbent_updates\tvalues_fnv1a";

fn golden_table() -> Vec<String> {
    let mut rows = vec![GOLDEN_HEADER.to_string()];
    for (name, model) in fixtures() {
        let zeros = vec![0.0; model.num_vars()];
        for (label, config) in golden_configs() {
            for (warm_label, warm) in [("none", None), ("zeros", Some(zeros.as_slice()))] {
                let s =
                    BranchAndBound::with_config(config.clone()).solve_with_warm_start(&model, warm);
                rows.push(format!(
                    "{name}\t{label}\t{warm_label}\t{:?}\t{:016x}\t{:016x}\t{}\t{}\t{}\t{:016x}",
                    s.status,
                    s.objective.to_bits(),
                    s.best_bound.to_bits(),
                    s.nodes,
                    s.lp_iterations,
                    s.incumbent_updates,
                    fnv1a(&s.values),
                ));
            }
        }
    }
    rows
}

#[test]
fn tier2_answers_match_the_recorded_golden_rows() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.tsv");
    let recorded = std::fs::read_to_string(&path).expect("read golden.tsv");
    let recorded: Vec<&str> = recorded.lines().collect();
    let table = golden_table();
    assert_eq!(
        table.len(),
        recorded.len(),
        "golden.tsv has {} rows, this build produces {}",
        recorded.len(),
        table.len()
    );
    for (now, then) in table.iter().zip(&recorded) {
        assert_eq!(
            now, then,
            "solver output moved (columns: {GOLDEN_HEADER}); if the move is \
             deliberate, re-baseline with `print_golden_table`"
        );
    }
}

/// Re-baseline, deliberately:
/// `cargo test -p threesigma-milp --test solver_oracle print_golden_table -- \
///  --ignored --nocapture | grep -P '\t' > crates/milp/tests/fixtures/golden.tsv`
#[test]
#[ignore = "prints the golden table; run by hand to re-baseline"]
fn print_golden_table() {
    for row in golden_table() {
        println!("{row}");
    }
}
