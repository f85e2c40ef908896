//! `threesigma-lint`: a two-phase workspace analyzer for determinism,
//! panic-safety, snapshot/WAL protocol, and metrics invariants.
//!
//! The binary (`cargo run -p threesigma-lint -- check`) parses every
//! non-test source file under `crates/*/src` with the vendored `syn`.
//! Phase 1 builds a symbol table and crate-level call graph ([`graph`]) and
//! computes the functions reachable from the decision-path roots
//! (`Scheduler::schedule` impls, milp `Solver::solve` impls, the option
//! generator, and the engine/serve pumps). Phase 2 runs the rules:
//!
//! * **hash-iter** — no `HashMap`/`HashSet` iteration in decision-path
//!   reachable code unless justified with `// lint: sorted`.
//! * **no-hash-container** — no `HashMap`/`HashSet` at all in the
//!   engine/serve service-loop modules, with no escape hatch.
//! * **time-source** — no `Instant::now`/`SystemTime` in reachable code
//!   outside the clock modules.
//! * **thread-rng** — no OS-seeded RNG anywhere.
//! * **thread-in-decision-scope** — no thread spawn, channel or core-count
//!   read in the decision-path directories.
//! * **panic** — no `unwrap`/`expect`/`panic!`-family/slice-indexing in
//!   reachable cluster/core code, modulo the checked-in allowlist.
//! * **float-ord** — no `partial_cmp` in reachable comparisons.
//! * **layering** — leaf crates keep their dependency contracts.
//! * **snapshot-exhaustiveness** — paired state structs serialize and
//!   restore every field, modulo `snapshot_exclusions.txt`.
//! * **wal-ack-ordering** — journal-append dominates every wire ack in the
//!   serve front-end, modulo `// lint: no-journal`, and the journal sync
//!   dominates the flush that writes the queued acks.
//! * **metrics-consistency** — metric names register exactly once, are
//!   snake_case, and doc-cited names exist.
//!
//! The reachability rules fall back to the legacy path-prefix scopes when a
//! tree declares no roots (synthetic fixture workspaces). See `DESIGN.md`
//! §12 for rule rationale and the escape hatches.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod allowlist;
pub mod config;
pub mod facts;
pub mod graph;
pub mod rules;
pub mod scan;

/// One finding: a rule, a source location, and the matched pattern (the
/// allowlist key).
#[derive(Debug, Clone)]
pub struct Violation {
    /// Rule name (`hash-iter`, `no-hash-container`, `time-source`,
    /// `thread-rng`, `thread-in-decision-scope`, `panic`, `float-ord`,
    /// `layering`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Enclosing function, or `<file>`/`<manifest>` for item-level hits.
    pub func: String,
    /// The matched pattern text (allowlist matching key).
    pub pattern: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{} (fn {}): {}",
            self.rule, self.file, self.line, self.func, self.message
        )
    }
}

/// Outcome of a full workspace check.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that survived the allowlist, sorted by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Panic-allowlist entries that matched no site (treated as failures).
    pub stale_allowlist: Vec<allowlist::Entry>,
    /// Snapshot/metrics exclusion entries that matched no raw finding
    /// (treated as failures; the exclusion file can only shrink).
    pub stale_exclusions: Vec<allowlist::Entry>,
    /// Number of source files parsed.
    pub files_scanned: usize,
    /// Number of functions reachable from the decision-path roots, or
    /// `None` when the tree declared no roots (legacy path scoping used).
    pub reachable_fns: Option<usize>,
}

impl Report {
    /// True when there is nothing to report.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
            && self.stale_allowlist.is_empty()
            && self.stale_exclusions.is_empty()
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the report as deterministic machine-readable JSON (the CI
/// `lint-findings.json` artifact). Iteration order is the report's own
/// sorted order, so two runs over the same tree are byte-identical.
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", report.files_scanned));
    match report.reachable_fns {
        Some(n) => out.push_str(&format!("  \"reachable_fns\": {n},\n")),
        None => out.push_str("  \"reachable_fns\": null,\n"),
    }
    out.push_str(&format!("  \"clean\": {},\n", report.clean()));
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"func\": \"{}\", \
             \"pattern\": \"{}\", \"message\": \"{}\"}}",
            json_escape(v.rule),
            json_escape(&v.file),
            v.line,
            json_escape(&v.func),
            json_escape(&v.pattern),
            json_escape(&v.message),
        ));
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");
    for (key, source, entries) in [
        (
            "stale_allowlist",
            config::PANIC_ALLOWLIST_PATH,
            &report.stale_allowlist,
        ),
        (
            "stale_exclusions",
            config::SNAPSHOT_EXCLUSIONS_PATH,
            &report.stale_exclusions,
        ),
    ] {
        out.push_str(&format!("  \"{key}\": ["));
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"source\": \"{}\", \"line\": {}, \"entry\": \"{}\"}}",
                json_escape(source),
                e.line,
                json_escape(&e.to_string()),
            ));
        }
        if !entries.is_empty() {
            out.push_str("\n  ");
        }
        out.push(']');
        if key == "stale_allowlist" {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Runs every rule over one parsed file, applying the scope config.
pub fn check_file(parsed: &scan::ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    if config::in_scope(&parsed.rel, config::DECISION_SCOPES) {
        out.extend(rules::hash_iter(parsed));
        out.extend(rules::time_source(parsed));
        out.extend(rules::float_ordering(parsed));
        out.extend(rules::thread_in_decision_scope(parsed));
    }
    if config::in_scope(&parsed.rel, config::NO_HASH_CONTAINER_SCOPES) {
        out.extend(rules::no_hash_container(parsed));
    }
    if config::in_scope(&parsed.rel, config::HOT_PATH_SCOPES) {
        out.extend(rules::panic_safety(parsed));
    }
    if config::in_scope(&parsed.rel, &["crates/"]) {
        out.extend(rules::os_seeded_rng(parsed));
    }
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut entries: Vec<PathBuf> = entries
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            if matches!(name.as_str(), "tests" | "benches" | "examples" | "fixtures") {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Checks the whole workspace rooted at `root`. `Err` means the check could
/// not run (I/O or parse failure — exit code 2 territory), not that
/// violations were found.
pub fn check_workspace(root: &Path) -> Result<Report, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("read_dir {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for crate_dir in &crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files)?;
        }
    }

    let mut report = Report::default();
    let mut parsed_files: Vec<scan::ParsedFile> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let parsed = scan::parse_source(&rel, &src).map_err(|e| format!("parse {rel}: {e}"))?;
        report.files_scanned += 1;
        parsed_files.push(parsed);
    }

    // Phase 1: call graph + reachability from the decision-path roots.
    let cg = graph::build(&parsed_files, config::DECISION_ROOTS);

    // Phase 2a: the reachability-driven determinism/panic rules. Trees
    // without any root (synthetic fixture workspaces) keep the legacy
    // path-prefix scoping so partial trees still get checked.
    if cg.has_roots() {
        report.reachable_fns = Some(cg.reachable_len());
        for parsed in &parsed_files {
            let reach = parsed.filtered(|f| cg.is_reachable(&parsed.rel, f));
            if config::in_reach_domain(&parsed.rel) {
                report.violations.extend(rules::hash_iter(&reach));
                report.violations.extend(rules::time_source(&reach));
                report.violations.extend(rules::float_ordering(&reach));
            }
            if config::in_scope(&parsed.rel, config::PANIC_DOMAINS) {
                report.violations.extend(rules::panic_safety(&reach));
            }
            // The structural rules keep their path scoping: banned
            // containers, OS-seeded RNG and thread fan-outs are wrong
            // wherever they appear, not just on paths a scheduler can
            // currently reach.
            if config::in_scope(&parsed.rel, config::NO_HASH_CONTAINER_SCOPES) {
                report.violations.extend(rules::no_hash_container(parsed));
            }
            if config::in_scope(&parsed.rel, &["crates/"]) {
                report.violations.extend(rules::os_seeded_rng(parsed));
            }
            if config::in_scope(&parsed.rel, config::DECISION_SCOPES) {
                report
                    .violations
                    .extend(rules::thread_in_decision_scope(parsed));
            }
        }
    } else {
        for parsed in &parsed_files {
            report.violations.extend(check_file(parsed));
        }
    }

    // Phase 2b: cross-item facts rules.
    report.violations.extend(facts::snapshot_exhaustiveness(
        &parsed_files,
        config::SNAPSHOT_PAIRS,
    ));
    report
        .violations
        .extend(facts::wal_ack_ordering(&parsed_files));
    let mut docs = Vec::new();
    for doc in config::METRIC_DOC_FILES {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            docs.push((doc.to_string(), text));
        }
    }
    report
        .violations
        .extend(facts::metrics_consistency(&parsed_files, &docs));

    for contract in config::LEAF_CONTRACTS {
        let path = root.join(contract.manifest);
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        report
            .violations
            .extend(rules::layering(contract.manifest, &src, contract.allowed));
    }

    let allowlist_path = root.join(config::PANIC_ALLOWLIST_PATH);
    let entries = match std::fs::read_to_string(&allowlist_path) {
        Ok(src) => allowlist::parse(&src)?,
        Err(_) => Vec::new(), // missing allowlist = empty allowlist
    };
    let (kept, stale) = allowlist::apply(&entries, std::mem::take(&mut report.violations));
    report.violations = kept;
    report.stale_allowlist = stale;

    let exclusions_path = root.join(config::SNAPSHOT_EXCLUSIONS_PATH);
    let exclusions = match std::fs::read_to_string(&exclusions_path) {
        Ok(src) => allowlist::parse(&src)?,
        Err(_) => Vec::new(), // missing exclusions = empty exclusions
    };
    let (kept, stale) =
        allowlist::apply_exclusions(&exclusions, std::mem::take(&mut report.violations));
    report.violations = kept;
    report.stale_exclusions = stale;

    report.violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.pattern, &a.message)
            .cmp(&(&b.file, b.line, b.rule, &b.pattern, &b.message))
    });
    Ok(report)
}
