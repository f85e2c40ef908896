//! Property tests: the presolve pass is equivalence-preserving.
//!
//! For random small mixed-binary models, running [`Presolve`] by hand and
//! solving the reduced model must agree with solving the original model
//! directly — same feasibility verdict, same optimal objective (after the
//! offset), and the restored assignment (eliminated variables mapped back
//! to their fixed values) must be feasible and integral in the original.

use proptest::prelude::*;

use threesigma_milp::{
    solver_for_tier, BranchAndBound, Cmp, Model, Presolve, SolverConfig, VarId, VarKind,
};

const MAX_ROWS: usize = 6;
const TERMS_PER_ROW: usize = 4;

/// Assembles a small mixed-binary model from flat sampled vectors (the
/// vendored proptest only provides range and vec strategies).
#[allow(clippy::too_many_arguments)]
fn build(
    binaries: usize,
    n_cont: usize,
    cont: &[f64],
    objectives: &[i64],
    n_rows: usize,
    var_idx: &[usize],
    coeffs: &[i64],
    cmps: &[u8],
    rhs: &[i64],
    sos_len: usize,
) -> Model {
    let mut m = Model::new();
    let mut vars = Vec::new();
    for &obj in &objectives[..binaries] {
        vars.push(m.add_binary(obj as f64));
    }
    for k in 0..n_cont {
        let lower = cont[2 * k];
        let width = cont[2 * k + 1];
        vars.push(m.add_continuous(lower, lower + width, objectives[binaries + k] as f64));
    }
    for r in 0..n_rows {
        let terms: Vec<_> = (0..TERMS_PER_ROW)
            .map(|t| {
                (
                    var_idx[r * TERMS_PER_ROW + t],
                    coeffs[r * TERMS_PER_ROW + t],
                )
            })
            .filter(|(j, c)| *j < vars.len() && *c != 0)
            .map(|(j, c)| (vars[j], c as f64))
            .collect();
        if terms.is_empty() {
            continue;
        }
        let cmp = match cmps[r] {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        m.add_constraint(&terms, cmp, rhs[r] as f64);
    }
    if sos_len >= 2 && binaries >= sos_len {
        let group: Vec<_> = vars[..sos_len].to_vec();
        m.add_sos1(&group);
    }
    m
}

proptest! {
    /// Presolve-then-solve equals solve-direct: the feasibility verdict
    /// matches, the objective (after the presolve offset) matches, and the
    /// restored full-length assignment is feasible in the original model.
    #[test]
    fn presolve_is_equivalence_preserving(
        binaries in 1usize..7,
        n_cont in 0usize..3,
        cont in prop::collection::vec(0.0f64..2.5, 4),
        objectives in prop::collection::vec(-3i64..6, 9),
        n_rows in 0usize..7,
        var_idx in prop::collection::vec(0usize..9, MAX_ROWS * TERMS_PER_ROW),
        coeffs in prop::collection::vec(-3i64..6, MAX_ROWS * TERMS_PER_ROW),
        cmps in prop::collection::vec(0u8..3, MAX_ROWS),
        rhs in prop::collection::vec(-4i64..11, MAX_ROWS),
        sos_len in 0usize..4,
    ) {
        let n_rows = n_rows.min(MAX_ROWS);
        let model = build(
            binaries, n_cont, &cont, &objectives, n_rows, &var_idx, &coeffs, &cmps, &rhs, sos_len,
        );
        let direct = BranchAndBound::new().solve(&model);
        let pre = Presolve::run(&model);

        if pre.is_infeasible() {
            prop_assert!(
                !direct.has_solution(),
                "presolve declared infeasible but the direct solve found {:?} obj {}",
                direct.status,
                direct.objective
            );
            continue;
        }

        let reduced = BranchAndBound::new().solve(pre.reduced());
        prop_assert_eq!(
            reduced.has_solution(),
            direct.has_solution(),
            "feasibility verdicts diverge: reduced {:?} vs direct {:?}",
            reduced.status,
            direct.status
        );
        if !direct.has_solution() {
            continue;
        }

        let objective = reduced.objective + pre.offset();
        prop_assert!(
            (objective - direct.objective).abs() <= 1e-6,
            "objective drift: presolved {} vs direct {}",
            objective,
            direct.objective
        );

        // Eliminated variables map back: the restored assignment has one
        // value per original variable, is feasible, integral on binaries,
        // and evaluates to the objective the solver reported.
        let restored = pre.restore(&reduced.values);
        prop_assert_eq!(restored.len(), model.num_vars());
        prop_assert!(
            model.is_feasible(&restored, 1e-6),
            "restored assignment violates an original constraint: {:?}",
            restored
        );
        for id in model.binary_vars() {
            let v = restored[id.index()];
            prop_assert!(
                (v - v.round()).abs() <= 1e-6 && (0.0..=1.0).contains(&v.round()),
                "restored binary {} not 0/1",
                v
            );
        }
        prop_assert!(
            (model.objective_value(&restored) - objective).abs() <= 1e-6,
            "restored assignment does not evaluate to the reported objective"
        );
    }

    /// Projecting a warm start into the reduced space keeps one value per
    /// surviving variable, and warm starts only seed — they never change
    /// the optimum the solver reports.
    #[test]
    fn warm_start_projection_is_shape_safe(
        binaries in 1usize..7,
        n_cont in 0usize..3,
        cont in prop::collection::vec(0.0f64..2.5, 4),
        objectives in prop::collection::vec(-3i64..6, 9),
        n_rows in 0usize..7,
        var_idx in prop::collection::vec(0usize..9, MAX_ROWS * TERMS_PER_ROW),
        coeffs in prop::collection::vec(-3i64..6, MAX_ROWS * TERMS_PER_ROW),
        cmps in prop::collection::vec(0u8..3, MAX_ROWS),
        rhs in prop::collection::vec(-4i64..11, MAX_ROWS),
        sos_len in 0usize..4,
    ) {
        let n_rows = n_rows.min(MAX_ROWS);
        let model = build(
            binaries, n_cont, &cont, &objectives, n_rows, &var_idx, &coeffs, &cmps, &rhs, sos_len,
        );
        let pre = Presolve::run(&model);
        if pre.is_infeasible() {
            continue;
        }
        let warm = vec![0.0; model.num_vars()];
        let projected = pre.project_warm(&warm);
        prop_assert_eq!(projected.len(), pre.reduced().num_vars());
        let with = BranchAndBound::new().solve_with_warm_start(pre.reduced(), Some(&projected));
        let without = BranchAndBound::new().solve(pre.reduced());
        prop_assert_eq!(with.has_solution(), without.has_solution());
        if with.has_solution() {
            prop_assert!((with.objective - without.objective).abs() <= 1e-6);
        }
    }
}

/// `VarKind` is re-exported and the builder accepts the fixture-facing
/// surface — a smoke check that it stays importable from the outside.
#[test]
fn public_surface_smoke() {
    let mut m = Model::new();
    let a = m.add_binary(1.0);
    m.add_constraint(&[(a, 1.0)], Cmp::Le, 1.0);
    assert_eq!(m.binary_vars().len(), 1);
    let _ = VarKind::Binary;
}

/// A row as the model holds it: terms, sense, right-hand side.
type Row = (Vec<(usize, f64)>, Cmp, f64);

/// An SOS1 model in the test's own terms: rows are kept exactly as the model
/// holds them (sorted, merged, zero-free), so the reference below reads the
/// rows the solver reads.
#[derive(Default)]
struct Sos1Case {
    model: Model,
    ids: Vec<VarId>,
    binary: Vec<bool>,
    objective: Vec<f64>,
    bounds: Vec<(f64, f64)>,
    rows: Vec<Row>,
    groups: Vec<Vec<usize>>,
}

impl Sos1Case {
    fn binary(&mut self, objective: f64, fix: Option<f64>) {
        let id = self.model.add_binary(objective);
        let bounds = fix.map_or((0.0, 1.0), |v| (v, v));
        self.model.set_bounds(id, bounds.0, bounds.1);
        self.push_var(id, true, objective, bounds);
    }

    fn continuous(&mut self, upper: f64, objective: f64) {
        let id = self.model.add_continuous(0.0, upper, objective);
        self.push_var(id, false, objective, (0.0, upper));
    }

    fn push_var(&mut self, id: VarId, binary: bool, objective: f64, bounds: (f64, f64)) {
        self.ids.push(id);
        self.binary.push(binary);
        self.objective.push(objective);
        self.bounds.push(bounds);
    }

    fn row(&mut self, terms: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        let mut merged: Vec<(usize, f64)> = Vec::new();
        let mut sorted = terms.to_vec();
        sorted.sort_by_key(|(j, _)| *j);
        for (j, c) in sorted {
            match merged.last_mut() {
                Some((k, acc)) if *k == j => *acc += c,
                _ => merged.push((j, c)),
            }
        }
        merged.retain(|(_, c)| *c != 0.0);
        let vars: Vec<(VarId, f64)> = merged.iter().map(|(j, c)| (self.ids[*j], *c)).collect();
        self.model.add_constraint(&vars, cmp, rhs);
        self.rows.push((merged, cmp, rhs));
    }

    fn group(&mut self, members: &[usize]) {
        let vars: Vec<VarId> = members.iter().map(|j| self.ids[*j]).collect();
        self.model.add_sos1(&vars);
        self.groups.push(members.to_vec());
    }
}

/// The dominated-option pass as first written: one `Vec` of row occurrences
/// per variable, and for every group a scan of every row for its demand row.
fn naive_dominated(case: &Sos1Case) -> Vec<usize> {
    const TOL: f64 = 1e-9;
    let n = case.binary.len();
    let mut occurs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (r, (terms, _, _)) in case.rows.iter().enumerate() {
        for (j, coef) in terms {
            if occurs[*j].last().is_none_or(|(last, _)| *last != r) {
                occurs[*j].push((r, *coef));
            }
        }
    }
    let mut membership = vec![0usize; n];
    for group in &case.groups {
        for &j in group {
            membership[j] += 1;
        }
    }
    let free = |j: usize| case.binary[j] && case.bounds[j].0 <= 0.0 && case.bounds[j].1 >= 1.0;
    let coef = |j: usize, r: usize| {
        occurs[j]
            .iter()
            .find(|(row, _)| *row == r)
            .map_or(0.0, |(_, c)| *c)
    };
    let mut gone = vec![false; n];
    let mut out = Vec::new();
    for group in &case.groups {
        let has_demand_row = case.rows.iter().any(|(terms, cmp, rhs)| {
            *cmp == Cmp::Le
                && (rhs - 1.0).abs() <= TOL
                && terms.len() == group.len()
                && terms
                    .iter()
                    .all(|(j, c)| (c - 1.0).abs() <= TOL && group.contains(j))
        });
        if !has_demand_row {
            continue;
        }
        for &b in group {
            if gone[b] || !free(b) {
                continue;
            }
            for &a in group {
                if a == b || gone[a] || !free(a) || membership[a] != 1 {
                    continue;
                }
                let (oa, ob) = (case.objective[a], case.objective[b]);
                if oa <= ob || oa.is_nan() || ob.is_nan() {
                    continue;
                }
                let prefers_a = (0..case.rows.len()).all(|r| {
                    let (ca, cb) = (coef(a, r), coef(b, r));
                    match case.rows[r].1 {
                        Cmp::Le => ca <= cb,
                        Cmp::Ge => ca >= cb,
                        Cmp::Eq => ca == cb,
                    }
                });
                if prefers_a {
                    gone[b] = true;
                    out.push(b);
                    break;
                }
            }
        }
    }
    out
}

/// Ways a group's would-be demand row can be present, absent or almost
/// right (each near miss breaks exactly one of the demand-row conditions,
/// and the tolerance cases sit on both sides of it).
fn demand_row(case: &mut Sos1Case, members: &[usize], shape: u8, outsider: usize) {
    let ones: Vec<(usize, f64)> = members.iter().map(|j| (*j, 1.0)).collect();
    match shape {
        0 => {}
        1 | 2 => case.row(&ones, Cmp::Le, 1.0),
        3 => case.row(&ones, Cmp::Le, 1.0 + 1e-10),
        4 => case.row(&ones, Cmp::Le, 2.0),
        5 => case.row(&ones, Cmp::Ge, 1.0),
        6 => case.row(&ones[1..], Cmp::Le, 1.0),
        7 => {
            let mut wider = ones.clone();
            wider.push((outsider, 1.0));
            case.row(&wider, Cmp::Le, 1.0);
        }
        8 => case.row(&ones, Cmp::Le, 1.0 + 1e-7),
        _ => {
            // Coefficients within, just outside and far outside tolerance.
            let mut off = ones.clone();
            off[0].1 = [1.0 + 1e-10, 1.0 + 1e-7, 1.5][usize::from(shape - 9)];
            case.row(&off, Cmp::Le, 1.0);
        }
    }
}

/// Samples an SOS1 model: groups of binaries with small integer objectives
/// (ties are common), some fixed by bounds, each with a demand row that is
/// present, absent or a near miss; a few groups sharing a member; a few
/// continuous columns; and capacity rows of mixed sense over random columns.
#[allow(clippy::too_many_arguments)]
fn sos1_case(
    sizes: &[usize],
    objectives: &[i64],
    fixes: &[u8],
    shapes: &[u8],
    shared: &[usize],
    n_cont: usize,
    row_vars: &[usize],
    row_coeffs: &[i64],
    row_cmps: &[u8],
    row_rhs: &[i64],
) -> Sos1Case {
    let mut case = Sos1Case::default();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &size in sizes {
        let first = case.ids.len();
        for k in 0..size {
            let j = first + k;
            let fix = match fixes[j % fixes.len()] {
                0 => Some(0.0),
                1 => Some(1.0),
                _ => None,
            };
            case.binary(objectives[j % objectives.len()] as f64, fix);
        }
        groups.push((first..first + size).collect());
    }
    for (k, objective) in objectives.iter().take(n_cont).enumerate() {
        case.continuous(2.0 + k as f64, *objective as f64 * 0.5);
    }
    let n = case.ids.len();
    for (g, members) in groups.iter().enumerate() {
        demand_row(
            &mut case,
            members,
            shapes[g],
            (members[0] + members.len()) % n,
        );
        case.group(members);
    }
    // A second group over members of two others: those members may not
    // dominate (a branching-only group could forbid the swap).
    for pair in shared.chunks_exact(2) {
        let (a, b) = (pair[0] % n, pair[1] % n);
        if a != b && case.binary[a] && case.binary[b] {
            case.group(&[a, b]);
        }
    }
    for r in 0..row_cmps.len() {
        let terms: Vec<(usize, f64)> = (0..4)
            .map(|t| (row_vars[4 * r + t] % n, row_coeffs[4 * r + t] as f64))
            .collect();
        let cmp = match row_cmps[r] {
            0..=3 => Cmp::Le,
            4 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        case.row(&terms, cmp, row_rhs[r] as f64);
    }
    case
}

proptest! {
    /// The CSR dominance pass finds exactly the options the first
    /// implementation found, in the same order, over random SOS1 models
    /// with and without (and with almost-) demand rows.
    #[test]
    fn csr_dominance_matches_the_naive_reference(
        sizes in prop::collection::vec(2usize..6, 1..6),
        objectives in prop::collection::vec(-2i64..4, 32),
        fixes in prop::collection::vec(0u8..12, 32),
        shapes in prop::collection::vec(0u8..12, 6),
        shared in prop::collection::vec(0usize..32, 0..5),
        n_cont in 0usize..3,
        row_vars in prop::collection::vec(0usize..40, 24),
        row_coeffs in prop::collection::vec(-1i64..4, 24),
        row_cmps in prop::collection::vec(0u8..6, 0..6),
        row_rhs in prop::collection::vec(-1i64..8, 6),
    ) {
        let case = sos1_case(
            &sizes, &objectives, &fixes, &shapes, &shared, n_cont, &row_vars, &row_coeffs,
            &row_cmps, &row_rhs,
        );
        prop_assert_eq!(Presolve::dominated(&case.model), naive_dominated(&case));
    }

    /// A presolve that reduces nothing hands back the input model itself
    /// and maps values and warm starts through unchanged, and every tier's
    /// answer is an answer over that model: full length, feasible in it and
    /// worth the objective it reports.
    #[test]
    fn a_no_op_presolve_hands_back_the_input_model(
        sizes in prop::collection::vec(2usize..6, 1..5),
        objectives in prop::collection::vec(-2i64..4, 32),
        n_cont in 0usize..3,
        row_vars in prop::collection::vec(0usize..40, 24),
        row_coeffs in prop::collection::vec(1i64..4, 24),
        row_cmps in prop::collection::vec(0u8..4, 0..6),
        row_rhs in prop::collection::vec(2i64..8, 6),
    ) {
        // Nothing fixed, no demand rows (so nothing dominates), `≤` rows
        // with positive coefficients: feasible at zero, usually no-op.
        let case = sos1_case(
            &sizes, &objectives, &[2], &[0; 6], &[], n_cont, &row_vars, &row_coeffs,
            &row_cmps, &row_rhs,
        );
        let model = &case.model;
        let pre = Presolve::run(model);
        if pre.stats().total() != 0 {
            continue;
        }
        prop_assert!(!pre.is_infeasible());
        prop_assert!(std::ptr::eq(pre.reduced(), model), "a no-op presolve built a model");
        prop_assert_eq!(pre.offset().to_bits(), 0.0f64.to_bits());
        let probe: Vec<f64> = (0..model.num_vars()).map(|j| j as f64 * 0.25 - 0.5).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&pre.restore(&probe)), bits(&probe));
        prop_assert_eq!(bits(&pre.project_warm(&probe)), bits(&probe));
        let warm = vec![0.0; model.num_vars()];
        for tier in 0..=2u8 {
            let sol = solver_for_tier(tier, SolverConfig::default())
                .solve_with_warm_start(model, Some(&warm));
            prop_assert!(sol.has_solution(), "tier {}: {:?}", tier, sol.status);
            prop_assert_eq!(sol.presolve.total(), 0);
            prop_assert_eq!(sol.values.len(), model.num_vars());
            prop_assert!(model.is_feasible(&sol.values, 1e-6), "tier {}", tier);
            prop_assert!(
                (model.objective_value(&sol.values) - sol.objective).abs() <= 1e-9,
                "tier {}: objective {} for an assignment worth {}",
                tier,
                sol.objective,
                model.objective_value(&sol.values)
            );
        }
    }
}
