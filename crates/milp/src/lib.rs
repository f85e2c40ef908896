//! Mixed-integer linear programming for 3σSched.
//!
//! The paper compiles every scheduling cycle into a MILP and hands it to an
//! external solver with a warm start and a time budget (§4.3.6). The Rust
//! MILP ecosystem offers no mature pure-Rust solver, so this crate implements
//! the required subset from scratch:
//!
//! * [`model`] — a sparse problem builder (continuous and binary variables,
//!   `≤ / ≥ / =` rows, SOS1 groups for "at most one placement option"),
//!   its rows stored row-CSR in one entry buffer a caller can `clear()`
//!   and rebuild into.
//! * [`simplex`] — a bounded-variable revised simplex with an explicit basis
//!   inverse (composite phase-1 primal for cold solves, dual reoptimisation
//!   from a warm basis) on an [`LpWorkspace`] a search builds once and
//!   reuses for every LP, sized for the dense-but-small LPs a scheduling
//!   cycle produces (thousands of columns, hundreds of rows).
//! * [`branch`] — best-bound branch-and-bound with SOS1-aware branching,
//!   fix-and-repair rounding incumbents, warm-start seeding from the previous
//!   cycle's schedule, and node/time budgets that return the best incumbent
//!   found so far (the solver contract §4.3.6 relies on).
//! * [`presolve`] — equivalence-preserving reductions (bound tightening,
//!   fixed-variable elimination, dominated-option removal) shared by all
//!   solver tiers, working in place on the model's CSR rows.
//! * [`tiers`] — the [`Solver`] trait plus the cheap tier-0/1 backends that
//!   mirror the scheduler's degradation ladder.
//! * [`text`] — bit-exact fixture serialisation for the differential
//!   solver-oracle suite.
//!
//! The solver maximises by convention (scheduling maximises expected
//! utility); minimisation is a caller-side negation.
//!
//! # Example
//!
//! ```
//! use threesigma_milp::{BranchAndBound, Cmp, Model};
//!
//! // max 10a + 6b + 4c  s.t.  5a + 4b + 3c ≤ 10, a,b,c ∈ {0,1}
//! let mut m = Model::new();
//! let a = m.add_binary(10.0);
//! let b = m.add_binary(6.0);
//! let c = m.add_binary(4.0);
//! m.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Cmp::Le, 10.0);
//! let solution = BranchAndBound::new().solve(&m);
//! assert!((solution.objective - 16.0).abs() < 1e-6); // a + b
//! ```

// The solver's exactness tests share the integration tests' fixture loader,
// which names this crate by its package name.
#[cfg(test)]
extern crate self as threesigma_milp;

pub mod branch;
pub mod clock;
pub mod model;
pub mod presolve;
pub mod simplex;
pub mod text;
pub mod tiers;

pub use branch::{BranchAndBound, MipSolution, MipStatus, SolverConfig};
pub use model::{Cmp, Model, VarId, VarKind};
pub use presolve::{Presolve, PresolveStats};
pub use simplex::{Basis, LpOutcome, LpSolution, LpWorkspace};
pub use tiers::{solver_for_tier, GreedyRounding, LpRepair, Solver};
