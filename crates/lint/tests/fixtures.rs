//! Fixture suite: each rule must trip on its known-bad snippet and stay
//! silent on the idiomatic rewrite, scope filtering must hold, and the
//! shipped workspace (including its allowlist) must check clean.

use std::path::{Path, PathBuf};

use threesigma_lint::{allowlist, check_workspace, config, facts, rules, scan};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn read_workspace_file(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).expect("workspace file reads")
}

fn parse(rel: &str, src: &str) -> scan::ParsedFile {
    scan::parse_source(rel, src).expect("fixture must parse")
}

fn patterns(violations: &[threesigma_lint::Violation]) -> Vec<&str> {
    violations.iter().map(|v| v.pattern.as_str()).collect()
}

#[test]
fn hash_iter_trips_on_bad_fixture() {
    let p = parse(
        "crates/core/src/sched/fx.rs",
        include_str!("fixtures/hash_iter_bad.rs"),
    );
    let found = rules::hash_iter(&p);
    assert_eq!(found.len(), 3, "{found:?}");
    assert!(found.iter().all(|v| v.rule == "hash-iter"));
    let pats = patterns(&found);
    assert!(pats.contains(&"running.values()"), "{pats:?}");
    assert!(pats.contains(&"for .. in live"), "{pats:?}");
    assert!(pats.contains(&"seen.retain()"), "{pats:?}");
    assert!(found.iter().all(|v| v.func == "decide"));
}

#[test]
fn hash_iter_passes_good_fixture() {
    let p = parse(
        "crates/core/src/sched/fx.rs",
        include_str!("fixtures/hash_iter_good.rs"),
    );
    let found = rules::hash_iter(&p);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn no_hash_container_trips_on_every_position_despite_justification() {
    let p = parse(
        "crates/cluster/src/serve.rs",
        include_str!("fixtures/no_hash_container_bad.rs"),
    );
    let found = rules::no_hash_container(&p);
    // One each for: the `use` import, the struct field, the fn signature,
    // and two in the body (`retries` type + `HashMap::new()`). The
    // `// lint: sorted` comment above `decide` must not clear anything.
    assert_eq!(found.len(), 5, "{found:?}");
    assert!(found.iter().all(|v| v.rule == "no-hash-container"));
    let pats = patterns(&found);
    assert!(pats.contains(&"HashMap"), "{pats:?}");
    assert!(pats.contains(&"HashSet"), "{pats:?}");
    assert!(
        found.iter().any(|v| v.func == "<field index_of>"),
        "{found:?}"
    );
    assert!(found.iter().any(|v| v.func == "decide"), "{found:?}");
}

#[test]
fn no_hash_container_passes_good_fixture_and_only_runs_in_serve_scope() {
    let src = include_str!("fixtures/no_hash_container_good.rs");
    let p = parse("crates/cluster/src/engine.rs", src);
    let found = rules::no_hash_container(&p);
    assert!(found.is_empty(), "{found:?}");
    // Outside the engine/serve scope a hash container is only subject to
    // the softer hash-iter rule.
    let scopes = config::NO_HASH_CONTAINER_SCOPES;
    assert!(!config::in_scope("crates/core/src/sched/fx.rs", scopes));
    assert!(config::in_scope("crates/cluster/src/engine.rs", scopes));
}

#[test]
fn time_source_trips_on_bad_fixture() {
    let p = parse(
        "crates/core/src/sched/fx.rs",
        include_str!("fixtures/time_source_bad.rs"),
    );
    let found = rules::time_source(&p);
    let pats = patterns(&found);
    assert!(pats.contains(&"Instant::now"), "{pats:?}");
    assert!(pats.contains(&"SystemTime"), "{pats:?}");
}

#[test]
fn time_source_passes_good_fixture_and_clock_module() {
    let p = parse(
        "crates/core/src/sched/fx.rs",
        include_str!("fixtures/time_source_good.rs"),
    );
    assert!(rules::time_source(&p).is_empty());
    // The bad fixture parsed *as* the sanctioned clock module is exempt.
    let clock = parse(
        "crates/core/src/sched/clock.rs",
        include_str!("fixtures/time_source_bad.rs"),
    );
    assert!(rules::time_source(&clock).is_empty());
}

#[test]
fn thread_rng_trips_on_bad_fixture_only() {
    let bad = parse(
        "crates/predict/src/fx.rs",
        include_str!("fixtures/thread_rng_bad.rs"),
    );
    let found = rules::os_seeded_rng(&bad);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "thread-rng");
    let good = parse(
        "crates/predict/src/fx.rs",
        include_str!("fixtures/thread_rng_good.rs"),
    );
    assert!(rules::os_seeded_rng(&good).is_empty());
}

#[test]
fn thread_rule_trips_on_every_bad_construct_in_decision_scopes_only() {
    let bad = include_str!("fixtures/thread_scope_bad.rs");
    let found = rules::thread_in_decision_scope(&parse("crates/core/src/sched/fx.rs", bad));
    assert!(found.iter().all(|v| v.rule == "thread-in-decision-scope"));
    let mut pats = patterns(&found);
    pats.sort_unstable();
    // The import and the `mpsc::channel()` call both name the module.
    assert_eq!(
        pats,
        [
            "available_parallelism",
            "mpsc",
            "mpsc",
            "thread::scope",
            "thread::spawn"
        ],
        "{found:?}"
    );
    let good = include_str!("fixtures/thread_scope_good.rs");
    let found = rules::thread_in_decision_scope(&parse("crates/core/src/sched/fx.rs", good));
    assert!(found.is_empty(), "test code is exempt: {found:?}");
    // Outside the decision scopes (e.g. the CLI's socket front-end) the
    // rule does not run.
    assert!(!config::in_scope(
        "crates/cli/src/fx.rs",
        config::DECISION_SCOPES
    ));
    assert!(config::in_scope(
        "crates/milp/src/fx.rs",
        config::DECISION_SCOPES
    ));
}

#[test]
fn panic_rule_trips_on_every_bad_construct() {
    let p = parse(
        "crates/cluster/src/fx.rs",
        include_str!("fixtures/panic_bad.rs"),
    );
    let found = rules::panic_safety(&p);
    assert_eq!(found.len(), 4, "{found:?}");
    let pats = patterns(&found);
    assert!(pats.contains(&"unwrap()"), "{pats:?}");
    assert!(pats.contains(&"expect("), "{pats:?}");
    assert!(pats.contains(&"panic!"), "{pats:?}");
    assert!(pats.contains(&"xs["), "{pats:?}");
}

#[test]
fn panic_rule_passes_good_fixture_including_test_code() {
    let p = parse(
        "crates/cluster/src/fx.rs",
        include_str!("fixtures/panic_good.rs"),
    );
    let found = rules::panic_safety(&p);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn float_ord_trips_on_bad_fixture_only() {
    let bad = parse(
        "crates/core/src/sched/fx.rs",
        include_str!("fixtures/float_ord_bad.rs"),
    );
    let found = rules::float_ordering(&bad);
    assert_eq!(found.len(), 1, "{found:?}");
    assert_eq!(found[0].rule, "float-ord");
    let good = parse(
        "crates/core/src/sched/fx.rs",
        include_str!("fixtures/float_ord_good.rs"),
    );
    assert!(rules::float_ordering(&good).is_empty());
}

#[test]
fn layering_trips_on_contract_violations_only() {
    let found = rules::layering(
        "crates/histogram/Cargo.toml",
        include_str!("fixtures/layering_bad.toml"),
        &["serde"],
    );
    assert_eq!(found.len(), 2, "{found:?}");
    let pats = patterns(&found);
    assert!(pats.contains(&"rand"), "{pats:?}");
    assert!(pats.contains(&"threesigma-obs"), "{pats:?}");
    // dev-dependencies are outside the contract's scope.
    let good = rules::layering(
        "crates/histogram/Cargo.toml",
        include_str!("fixtures/layering_good.toml"),
        &["serde"],
    );
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn scope_config_limits_where_rules_run() {
    // The panic rule covers reachable code in its domains only: a panic
    // under crates/cluster/src counts, one under crates/obs/src does not.
    assert!(config::in_scope(
        "crates/cluster/src/fx.rs",
        config::PANIC_DOMAINS
    ));
    assert!(!config::in_scope(
        "crates/obs/src/fx.rs",
        config::PANIC_DOMAINS
    ));
}

#[test]
fn allowlist_suppresses_matches_and_reports_stale_entries() {
    let p = parse(
        "crates/cluster/src/fx.rs",
        include_str!("fixtures/panic_bad.rs"),
    );
    let entries = allowlist::parse(
        "panic | crates/cluster/src/fx.rs | extract | unwrap()\n\
         panic | crates/cluster/src/fx.rs | extract | xs[\n\
         panic | crates/cluster/src/fx.rs | deleted_fn | unwrap()\n",
    )
    .expect("allowlist parses");
    let (kept, stale) = allowlist::apply(&entries, rules::panic_safety(&p));
    let pats = patterns(&kept);
    assert_eq!(pats, vec!["expect(", "panic!"], "{kept:?}");
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert_eq!(stale[0].func, "deleted_fn");
}

#[test]
fn named_fields_survive_generics_and_fn_pointer_types() {
    let p = parse(
        "crates/core/src/x.rs",
        "pub struct S<T: Ord> {\n\
         \x20   pub map: BTreeMap<String, Vec<(u64, T)>>,\n\
         \x20   hook: fn(usize) -> bool,\n\
         \x20   pub tail: f64,\n\
         }\n",
    );
    let s = p.structs.iter().find(|s| s.name == "S").expect("struct S");
    let names: Vec<&str> = s.fields.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, vec!["map", "hook", "tail"], "{:?}", s.fields);
    // Lines are 1-based and point at the field, not the struct keyword.
    assert_eq!(s.fields[0].1, 2, "{:?}", s.fields);
    assert_eq!(s.fields[2].1, 4, "{:?}", s.fields);
}

#[test]
fn snapshot_exhaustiveness_trips_on_bad_pair_fixture_only() {
    let bad = vec![parse(
        "crates/predict/src/predictor.rs",
        include_str!("fixtures/snapshot_pair_bad.rs"),
    )];
    let found = facts::snapshot_exhaustiveness(&bad, config::SNAPSHOT_PAIRS);
    // One read-side and one write-side finding for the dropped field.
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|v| v.rule == "snapshot-exhaustiveness"));
    assert!(
        found.iter().all(|v| v.pattern == "best_nmae_seen"),
        "{found:?}"
    );
    let good = vec![parse(
        "crates/predict/src/predictor.rs",
        include_str!("fixtures/snapshot_pair_good.rs"),
    )];
    let found = facts::snapshot_exhaustiveness(&good, config::SNAPSHOT_PAIRS);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn wal_ack_ordering_trips_on_bad_fixture_only() {
    let bad = vec![parse(
        "crates/cli/src/serve.rs",
        include_str!("fixtures/wal_ack_bad.rs"),
    )];
    let found = facts::wal_ack_ordering(&bad);
    // `accepted` fires before the append; `rejected` has no escape hatch.
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|v| v.rule == "wal-ack-ordering"));
    let pats = patterns(&found);
    assert!(pats.contains(&"accepted("), "{pats:?}");
    assert!(pats.contains(&"rejected("), "{pats:?}");
    let good = vec![parse(
        "crates/cli/src/serve.rs",
        include_str!("fixtures/wal_ack_good.rs"),
    )];
    assert!(facts::wal_ack_ordering(&good).is_empty());
}

#[test]
fn flush_before_sync_trips_on_bad_fixture_only() {
    let rel = "crates/cli/src/serve.rs";
    let bad = vec![parse(rel, include_str!("fixtures/wal_flush_bad.rs"))];
    let found = facts::wal_ack_ordering(&bad);
    assert_eq!(patterns(&found), ["flush("], "{found:?}");
    assert!(found.iter().all(|v| v.rule == "wal-ack-ordering"));
    assert!(
        found.iter().all(|v| v.func.ends_with("commit")),
        "{found:?}"
    );
    let good = vec![parse(rel, include_str!("fixtures/wal_flush_good.rs"))];
    assert!(facts::wal_ack_ordering(&good).is_empty());
}

#[test]
fn metrics_consistency_trips_on_bad_fixture_only() {
    let bad = vec![parse(
        "crates/obs/src/fx.rs",
        include_str!("fixtures/metrics_bad.rs"),
    )];
    let found = facts::metrics_consistency(&bad, &[]);
    assert_eq!(found.len(), 2, "{found:?}");
    assert!(found.iter().all(|v| v.rule == "metrics-consistency"));
    let pats = patterns(&found);
    assert!(pats.contains(&"serve_cycles_total"), "duplicate: {pats:?}");
    assert!(pats.contains(&"servQueueDepth"), "snake_case: {pats:?}");
    let good = vec![parse(
        "crates/obs/src/fx.rs",
        include_str!("fixtures/metrics_good.rs"),
    )];
    assert!(facts::metrics_consistency(&good, &[]).is_empty());
}

#[test]
fn every_shipped_snapshot_pair_resolves() {
    // The rule must go red (not silent) if a pair's struct or fns are
    // renamed; here we prove the shipped pair table still resolves, so the
    // only findings on the real tree are field-level (all audited in the
    // exclusions file).
    let files: Vec<scan::ParsedFile> = config::SNAPSHOT_PAIRS
        .iter()
        .map(|pair| parse(pair.file_suffix, &read_workspace_file(pair.file_suffix)))
        .collect();
    let found = facts::snapshot_exhaustiveness(&files, config::SNAPSHOT_PAIRS);
    let unresolved: Vec<_> = found
        .iter()
        .filter(|v| v.pattern.starts_with("struct ") || v.pattern.starts_with("fns for "))
        .collect();
    assert!(unresolved.is_empty(), "{unresolved:?}");
}

#[test]
fn deleting_a_snapshot_field_read_turns_the_real_tree_red() {
    let rel = "crates/predict/src/predictor.rs";
    let src = read_workspace_file(rel);
    let clean = facts::snapshot_exhaustiveness(&[parse(rel, &src)], config::SNAPSHOT_PAIRS);
    assert!(
        clean.iter().all(|v| v.pattern != "best_nmae_seen"),
        "{clean:?}"
    );
    // The PR 8 regression shape: the field read silently vanishes from
    // `snapshot()` while the struct keeps the field.
    let mutated = src.replace("best_nmae: self.best_nmae_seen,", "best_nmae: None,");
    assert_ne!(src, mutated, "mutation target must exist");
    let found = facts::snapshot_exhaustiveness(&[parse(rel, &mutated)], config::SNAPSHOT_PAIRS);
    assert!(
        found.iter().any(|v| v.pattern == "best_nmae_seen"),
        "{found:?}"
    );
}

#[test]
fn deleting_a_core_field_read_from_the_session_snapshot_turns_the_real_tree_red() {
    // The simulation core's state is serialized by another type in another
    // file; the pair must still see every field cross.
    let (core, serve) = ("crates/cluster/src/sim.rs", "crates/cluster/src/serve.rs");
    let core_src = read_workspace_file(core);
    let serve_src = read_workspace_file(serve);
    let check = |serve_src: &str| {
        let files = [parse(core, &core_src), parse(serve, serve_src)];
        facts::snapshot_exhaustiveness(&files, config::SNAPSHOT_PAIRS)
    };
    let dropped = |found: &[threesigma_lint::Violation]| {
        found
            .iter()
            .any(|v| v.func == "Sim" && v.pattern == "wasted")
    };
    let clean = check(&serve_src);
    assert!(!dropped(&clean), "{clean:?}");
    let mutated = serve_src.replace(
        "wasted_machine_seconds: self.sim.wasted,",
        "wasted_machine_seconds: 0.0,",
    );
    assert_ne!(serve_src, mutated, "mutation target must exist");
    let found = check(&mutated);
    assert!(dropped(&found), "{found:?}");
}

#[test]
fn reordering_journal_append_after_ack_turns_the_real_tree_red() {
    let rel = "crates/cli/src/serve.rs";
    let src = read_workspace_file(rel);
    assert!(facts::wal_ack_ordering(&[parse(rel, &src)]).is_empty());
    // Renaming the append is ordering-equivalent to moving it after the
    // ack: the ack is no longer dominated by a journal write.
    let mutated = src.replace(".append(spec", ".append_later(spec");
    assert_ne!(src, mutated, "mutation target must exist");
    let found = facts::wal_ack_ordering(&[parse(rel, &mutated)]);
    assert!(found.iter().any(|v| v.pattern == "accepted("), "{found:?}");
}

#[test]
fn moving_the_flush_ahead_of_the_sync_turns_the_real_tree_red() {
    let rel = "crates/cli/src/serve.rs";
    let src = read_workspace_file(rel);
    assert!(facts::wal_ack_ordering(&[parse(rel, &src)]).is_empty());
    // The group-commit regression shape: the queued acks go out on the
    // socket before the journal barrier that makes their records durable.
    let (sync, flush) = ("node.sync()?;", "responder.flush();");
    assert_eq!(src.matches(flush).count(), 1, "one socket write, one site");
    let mutated = src
        .replacen(flush, "", 1)
        .replacen(sync, &format!("{flush} {sync}"), 1);
    assert_ne!(src, mutated, "mutation target must exist");
    let found = facts::wal_ack_ordering(&[parse(rel, &mutated)]);
    assert_eq!(patterns(&found), ["flush("], "{found:?}");
}

#[test]
fn workspace_json_report_is_byte_deterministic() {
    let root = workspace_root();
    let a = check_workspace(&root).expect("first run");
    let b = check_workspace(&root).expect("second run");
    assert_eq!(
        threesigma_lint::render_json(&a),
        threesigma_lint::render_json(&b)
    );
}

#[test]
fn shipped_workspace_checks_clean_with_no_stale_allowlist() {
    let root = workspace_root();
    let report = check_workspace(&root).expect("workspace check runs");
    assert!(report.files_scanned > 40, "{} files", report.files_scanned);
    assert!(
        report.stale_allowlist.is_empty(),
        "stale allowlist entries: {:?}",
        report.stale_allowlist
    );
    assert!(
        report.stale_exclusions.is_empty(),
        "stale exclusion entries: {:?}",
        report.stale_exclusions
    );
    assert!(report.reachable_fns > 0, "the real tree reaches nothing");
    assert!(
        report.violations.is_empty(),
        "workspace violations:\n{}",
        report
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.clean());
}
