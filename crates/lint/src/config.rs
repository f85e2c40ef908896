//! Lint scopes: which directories each rule family applies to.
//!
//! Paths are workspace-relative prefixes. A file is "in scope" when its
//! workspace-relative path starts with one of the prefixes; `tests/`,
//! `benches/`, `examples/`, and `fixtures/` path components are always
//! excluded, as is `#[cfg(test)]`/`#[test]` code (handled at the AST layer).

/// Decision-path scopes: code whose iteration order, clock reads, or float
/// comparisons feed scheduling decisions and simtest digests. The
/// hash-iteration, time-source, and float-ordering rules apply here.
pub const DECISION_SCOPES: &[&str] = &[
    "crates/core/src/sched",
    "crates/cluster/src",
    "crates/milp/src",
    "crates/predict/src",
    "crates/simtest/src",
];

/// Hot-path scopes: code that must degrade through typed errors rather than
/// panic (the AST-aware replacement for the old CI grep). The panic-safety
/// rule applies here.
pub const HOT_PATH_SCOPES: &[&str] = &["crates/cluster/src", "crates/core/src/sched"];

/// Service-loop scopes: the simulation core and its two drivers, where hash
/// containers are banned outright — not just their iteration. The serve
/// loop's retirement digest and snapshot restart-equivalence contract
/// require every container it touches to have a total iteration order, so
/// the no-hash-container rule applies here with no justification escape
/// hatch. The compile stage is held to the same rule: its per-attempt table
/// is swept every cycle and feeds MILP row order.
pub const NO_HASH_CONTAINER_SCOPES: &[&str] = &[
    "crates/cluster/src/engine.rs",
    "crates/cluster/src/serve.rs",
    "crates/cluster/src/sim.rs",
    "crates/core/src/sched/compile.rs",
];

/// The only modules allowed to read wall-clock time (`Instant::now`). Both
/// wrap the clock behind a `Stopwatch` so budget checks stay greppable and
/// mockable; `milp` gets its own copy because it is a zero-dependency leaf.
pub const CLOCK_ALLOWLIST: &[&str] =
    &["crates/core/src/sched/clock.rs", "crates/milp/src/clock.rs"];

/// Justification comment that clears a hash-iteration finding when placed on
/// the offending line or the line directly above it.
pub const JUSTIFICATION: &str = "lint: sorted";

/// Escape-hatch comment for wire acknowledgments that are deliberately not
/// journaled (typed rejections: nothing was admitted, so there is nothing
/// to replay). Placed on the ack line or the line directly above it.
pub const NO_JOURNAL_JUSTIFICATION: &str = "lint: no-journal";

/// A decision-path root: an entry point whose transitive callees form the
/// scope of the reachability-driven rules (hash-iter, float-ord, panic,
/// time-source).
pub struct RootSpec {
    /// The function's name.
    pub func: &'static str,
    /// Required workspace-relative file suffix, if the root is file-bound.
    pub file_suffix: Option<&'static str>,
    /// Required word in the enclosing `impl`/`trait` header, if trait-bound.
    pub impl_word: Option<&'static str>,
}

/// The decision-path roots: every `Scheduler::schedule` impl, every milp
/// `Solver` impl, the option generator, and the engine/serve pumps. The
/// reachability rules apply to everything these can transitively call.
pub const DECISION_ROOTS: &[RootSpec] = &[
    RootSpec {
        func: "schedule",
        file_suffix: None,
        impl_word: Some("Scheduler"),
    },
    RootSpec {
        func: "solve",
        file_suffix: None,
        impl_word: Some("Solver"),
    },
    RootSpec {
        func: "solve_with_warm_start",
        file_suffix: None,
        impl_word: Some("Solver"),
    },
    RootSpec {
        func: "generate",
        file_suffix: Some("core/src/sched/options.rs"),
        impl_word: None,
    },
    RootSpec {
        func: "run_observed",
        file_suffix: Some("cluster/src/engine.rs"),
        impl_word: None,
    },
    RootSpec {
        func: "pump_until",
        file_suffix: Some("cluster/src/serve.rs"),
        impl_word: None,
    },
];

/// Crates whose reachable functions the panic rule covers (typed-error
/// discipline); the solver and leaf crates keep their own error idioms.
pub const PANIC_DOMAINS: &[&str] = &["crates/cluster/src", "crates/core/src"];

/// True when `rel` participates in the reachability-driven determinism rules
/// (everything but the linter itself, whose sources quote rule patterns).
pub fn in_reach_domain(rel: &str) -> bool {
    rel.starts_with("crates/") && !rel.starts_with("crates/lint/")
}

/// One state-struct/snapshot pairing for the snapshot-exhaustiveness rule:
/// every named field of `strukt` (in the file ending with `file_suffix`)
/// must be mentioned in at least one read fn and one write fn (in the file
/// ending with `fns_file_suffix`), or carry an audited entry in the
/// exclusions file.
pub struct SnapshotPair {
    /// The state struct's name.
    pub strukt: &'static str,
    /// Workspace-relative suffix of the file declaring the struct.
    pub file_suffix: &'static str,
    /// Workspace-relative suffix of the file declaring the snapshot and
    /// restore fns (the struct's own file, unless another type serializes
    /// it).
    pub fns_file_suffix: &'static str,
    /// Snapshot-side fns as (fn name, enclosing impl word).
    pub reads: &'static [(&'static str, &'static str)],
    /// Restore-side fns as (fn name, enclosing impl word).
    pub writes: &'static [(&'static str, &'static str)],
}

/// The audited snapshot/restore pairings. `WireStats` is a republish pair:
/// its counters must all reach the exposition in `WireMetrics::publish`
/// (the PR 8 delta-vs-`set_total` bug class).
pub const SNAPSHOT_PAIRS: &[SnapshotPair] = &[
    SnapshotPair {
        strukt: "Predictor",
        file_suffix: "crates/predict/src/predictor.rs",
        fns_file_suffix: "crates/predict/src/predictor.rs",
        reads: &[("snapshot", "Predictor")],
        writes: &[("restore", "Predictor")],
    },
    SnapshotPair {
        strukt: "EstimateCache",
        file_suffix: "crates/core/src/sched/options.rs",
        fns_file_suffix: "crates/core/src/sched/options.rs",
        reads: &[("stats", "EstimateCache"), ("epoch", "EstimateCache")],
        writes: &[("restore_stats", "EstimateCache")],
    },
    SnapshotPair {
        strukt: "ThreeSigmaScheduler",
        file_suffix: "crates/core/src/sched/threesigma.rs",
        fns_file_suffix: "crates/core/src/sched/threesigma.rs",
        reads: &[("serve_snapshot", "ThreeSigmaScheduler")],
        writes: &[("serve_restore", "ThreeSigmaScheduler")],
    },
    SnapshotPair {
        strukt: "ServeSession",
        file_suffix: "crates/cluster/src/serve.rs",
        fns_file_suffix: "crates/cluster/src/serve.rs",
        reads: &[("snapshot", "ServeSession")],
        writes: &[("restore", "ServeSession")],
    },
    // The session's cluster state lives in the simulation core, which
    // knows nothing of snapshots: `ServeSession` serializes it.
    SnapshotPair {
        strukt: "Sim",
        file_suffix: "crates/cluster/src/sim.rs",
        fns_file_suffix: "crates/cluster/src/serve.rs",
        reads: &[("snapshot", "ServeSession")],
        writes: &[("restore", "ServeSession")],
    },
    SnapshotPair {
        strukt: "WireStats",
        file_suffix: "crates/cli/src/serve.rs",
        fns_file_suffix: "crates/cli/src/serve.rs",
        reads: &[("publish", "WireMetrics")],
        writes: &[("publish", "WireMetrics")],
    },
];

/// Workspace-relative path of the audited exclusions file for the
/// snapshot-exhaustiveness and metrics-consistency rules.
pub const SNAPSHOT_EXCLUSIONS_PATH: &str = "crates/lint/snapshot_exclusions.txt";

/// The file whose wire acknowledgments the wal-ack-ordering rule audits.
pub const ACK_FILE_SUFFIX: &str = "crates/cli/src/serve.rs";

/// Methods that emit a wire acknowledgment.
pub const ACK_METHODS: &[&str] = &["accepted", "rejected"];

/// The journal-append method that must dominate every acknowledgment.
pub const JOURNAL_METHOD: &str = "append";

/// The method that writes the queued acknowledgments to the socket.
pub const FLUSH_METHOD: &str = "flush";

/// The journal barrier (write + fsync) that must dominate every flush.
pub const SYNC_METHOD: &str = "sync";

/// Docs scanned by the metrics-consistency citation check (workspace-root
/// relative). Missing files are skipped (synthetic fixture trees).
pub const METRIC_DOC_FILES: &[&str] = &["DESIGN.md", "README.md"];

/// Prefixes that mark a documentation token as a metric-name citation.
pub const METRIC_DOC_PREFIXES: &[&str] = &["sched_", "serve_", "wal_", "predict_"];

/// A leaf crate's dependency contract, checked from its `Cargo.toml`.
pub struct LeafContract {
    /// Workspace-relative manifest path.
    pub manifest: &'static str,
    /// The complete set of allowed `[dependencies]` keys.
    pub allowed: &'static [&'static str],
}

/// Leaf crates must stay obs-free and dependency-clean so they can be reused
/// (and reasoned about) in isolation.
pub const LEAF_CONTRACTS: &[LeafContract] = &[
    LeafContract {
        manifest: "crates/histogram/Cargo.toml",
        allowed: &["serde"],
    },
    LeafContract {
        manifest: "crates/milp/Cargo.toml",
        allowed: &[],
    },
    LeafContract {
        manifest: "crates/obs/Cargo.toml",
        allowed: &[],
    },
];

/// Workspace-relative path of the checked-in panic allowlist.
pub const PANIC_ALLOWLIST_PATH: &str = "crates/lint/panic_allowlist.txt";

/// True when `rel` (workspace-relative, `/`-separated) falls under any of
/// the scope prefixes and is not test/bench/example/fixture support code.
pub fn in_scope(rel: &str, scopes: &[&str]) -> bool {
    if rel
        .split('/')
        .any(|c| matches!(c, "tests" | "benches" | "examples" | "fixtures"))
    {
        return false;
    }
    scopes.iter().any(|s| rel.starts_with(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matching() {
        assert!(in_scope("crates/cluster/src/engine.rs", DECISION_SCOPES));
        assert!(in_scope(
            "crates/core/src/sched/threesigma.rs",
            DECISION_SCOPES
        ));
        assert!(!in_scope("crates/core/src/dist.rs", DECISION_SCOPES));
        assert!(!in_scope("crates/cluster/tests/sim.rs", DECISION_SCOPES));
        assert!(!in_scope(
            "crates/lint/tests/fixtures/bad_hash_iter.rs",
            DECISION_SCOPES
        ));
    }
}
