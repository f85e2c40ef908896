//! Phase 1 of the workspace check: a crate-level call graph over every
//! non-test function, plus reachability from the decision-path roots.
//!
//! Resolution is deliberately conservative and name-based (the vendored
//! `syn` does not type-check), erring toward over-approximation *inside*
//! the workspace and under-approximation outside it:
//!
//! * `Type::name(..)` — resolves to functions named `name` in `impl`/`trait`
//!   blocks whose header mentions `Type` as a word; lowercase qualifiers
//!   (`module::name(..)`) also match free functions in files whose stem is
//!   the qualifier. A qualifier naming nothing in the workspace (std,
//!   external) contributes no edge.
//! * `Self::name(..)` — resolves within the caller's own `impl` context.
//! * `.name(..)` — method call: resolves to every associated function named
//!   `name` in any `impl`/`trait` block (dynamic dispatch and trait objects
//!   make anything tighter unsound here).
//! * `name(..)` — bare call: resolves to free functions named `name` only.
//! * `name!(..)` — macro invocations never form edges.
//!
//! All containers are ordered (`BTreeMap`/`BTreeSet`), so graph construction
//! and traversal are deterministic: two runs over the same tree render
//! byte-identical findings.

use std::collections::{BTreeMap, BTreeSet};

use proc_macro2::Delimiter;

use crate::config::RootSpec;
use crate::scan::{FnSite, ParsedFile, Tok};

/// Keywords that may precede a parenthesis without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "loop", "return", "fn", "in", "as", "move", "else", "let",
    "mut", "ref", "break", "continue", "where", "impl", "dyn",
];

/// One call-graph node (a non-test function).
#[derive(Debug)]
struct Symbol {
    file: String,
    func: String,
    line: usize,
    impl_ctx: Option<String>,
}

/// The workspace call graph with its reachable set.
#[derive(Debug)]
pub struct CallGraph {
    /// Root symbol indices (decision-path entry points).
    roots: Vec<usize>,
    /// `(file, fn line)` keys of every function reachable from a root.
    reachable: BTreeSet<(String, usize)>,
}

impl CallGraph {
    /// True when the workspace declared at least one decision-path root.
    /// `check_workspace` refuses a tree without one.
    pub fn has_roots(&self) -> bool {
        !self.roots.is_empty()
    }

    /// Number of functions reachable from the roots.
    pub fn reachable_len(&self) -> usize {
        self.reachable.len()
    }

    /// True when the fn at (`rel`, `site.line`) is reachable from a root.
    pub fn is_reachable(&self, rel: &str, site: &FnSite) -> bool {
        self.reachable.contains(&(rel.to_string(), site.line))
    }
}

fn header_words(header: &str) -> BTreeSet<&str> {
    header
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
        .collect()
}

fn file_stem(rel: &str) -> &str {
    rel.rsplit('/')
        .next()
        .unwrap_or(rel)
        .trim_end_matches(".rs")
}

/// Builds the call graph over `files` and computes reachability from the
/// roots described by `root_specs`.
pub fn build(files: &[ParsedFile], root_specs: &[RootSpec]) -> CallGraph {
    let mut syms = Vec::new();
    // name -> indices of (free fns, associated fns) carrying that name.
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut method_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for file in files {
        for f in file.fns.iter().filter(|f| !f.is_test) {
            let id = syms.len();
            syms.push(Symbol {
                file: file.rel.clone(),
                func: f.func.clone(),
                line: f.line,
                impl_ctx: f.impl_ctx.clone(),
            });
            match &syms[id].impl_ctx {
                Some(_) => method_by_name.entry(&f.func).or_default().push(id),
                None => free_by_name.entry(&f.func).or_default().push(id),
            }
        }
    }
    // Stable index from (file, line) to symbol id, for per-fn edge walks.
    let by_site: BTreeMap<(&str, usize), usize> = syms
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.file.as_str(), s.line), i))
        .collect();

    let table = SymbolTable {
        syms: &syms,
        free_by_name: &free_by_name,
        method_by_name: &method_by_name,
    };
    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); syms.len()];
    for file in files {
        for f in file.fns.iter().filter(|f| !f.is_test) {
            let Some(&caller) = by_site.get(&(file.rel.as_str(), f.line)) else {
                continue;
            };
            let mut set = BTreeSet::new();
            collect_edges(&f.body, caller, f.impl_ctx.as_deref(), &table, &mut set);
            edges[caller] = set;
        }
    }

    let mut roots = Vec::new();
    for (i, s) in syms.iter().enumerate() {
        for spec in root_specs {
            if s.func != spec.func {
                continue;
            }
            let file_ok = spec
                .file_suffix
                .map(|suf| s.file.ends_with(suf))
                .unwrap_or(true);
            let impl_ok = spec
                .impl_word
                .map(|w| {
                    s.impl_ctx
                        .as_deref()
                        .map(|h| header_words(h).contains(w))
                        .unwrap_or(false)
                })
                .unwrap_or(true);
            if file_ok && impl_ok {
                roots.push(i);
                break;
            }
        }
    }

    let mut seen: BTreeSet<usize> = roots.iter().copied().collect();
    let mut frontier: Vec<usize> = roots.clone();
    while let Some(u) = frontier.pop() {
        for &v in &edges[u] {
            if seen.insert(v) {
                frontier.push(v);
            }
        }
    }
    let reachable = seen
        .iter()
        .map(|&i| (syms[i].file.clone(), syms[i].line))
        .collect();
    CallGraph { roots, reachable }
}

/// The phase-1 symbol lookup tables shared by the edge-resolution passes.
struct SymbolTable<'a> {
    syms: &'a [Symbol],
    free_by_name: &'a BTreeMap<&'a str, Vec<usize>>,
    method_by_name: &'a BTreeMap<&'a str, Vec<usize>>,
}

fn push_qualified(
    q: &str,
    name: &str,
    caller: usize,
    caller_ctx: Option<&str>,
    table: &SymbolTable<'_>,
    out: &mut BTreeSet<usize>,
) {
    let syms = table.syms;
    if q == "Self" {
        // Resolve within the caller's own impl context and file.
        if let Some(ids) = table.method_by_name.get(name) {
            for &id in ids {
                if syms[id].file == syms[caller].file && syms[id].impl_ctx.as_deref() == caller_ctx
                {
                    out.insert(id);
                }
            }
        }
        return;
    }
    if let Some(ids) = table.method_by_name.get(name) {
        for &id in ids {
            let hit = syms[id]
                .impl_ctx
                .as_deref()
                .map(|h| header_words(h).contains(q))
                .unwrap_or(false);
            if hit {
                out.insert(id);
            }
        }
    }
    // Module-qualified free call: `options::generate(..)`.
    if q.chars().next().is_some_and(|c| c.is_lowercase()) {
        if let Some(ids) = table.free_by_name.get(name) {
            for &id in ids {
                if file_stem(&syms[id].file) == q {
                    out.insert(id);
                }
            }
        }
    }
}

fn collect_edges(
    toks: &[Tok],
    caller: usize,
    caller_ctx: Option<&str>,
    table: &SymbolTable<'_>,
    out: &mut BTreeSet<usize>,
) {
    for i in 0..toks.len() {
        let (Some(Tok::Ident(name, _)), Some(next)) = (toks.get(i), toks.get(i + 1)) else {
            continue;
        };
        // `name!(..)` is a macro, `name::<..>` handled at the turbofish's
        // closing position; only direct `name(` shapes form edges here.
        if !matches!(next, Tok::Open(Delimiter::Parenthesis, _)) {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name.as_str()) {
            continue;
        }
        // Qualified: `Q :: name (` — look back over the `::`.
        if i >= 3 {
            if let (Some(Tok::Ident(q, _)), Some(Tok::Punct(':', _)), Some(Tok::Punct(':', _))) =
                (toks.get(i - 3), toks.get(i - 2), toks.get(i - 1))
            {
                push_qualified(q, name, caller, caller_ctx, table, out);
                continue;
            }
        }
        match toks.get(i.wrapping_sub(1)) {
            // `.name(` — method call on some receiver.
            Some(Tok::Punct('.', _)) if i > 0 => {
                if let Some(ids) = table.method_by_name.get(name.as_str()) {
                    out.extend(ids.iter().copied());
                }
            }
            // `:: name (` with a non-ident qualifier (generic path tail):
            // skip rather than guess.
            Some(Tok::Punct(':', _)) => {}
            // Bare call: free functions only.
            _ => {
                if let Some(ids) = table.free_by_name.get(name.as_str()) {
                    out.extend(ids.iter().copied());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DECISION_ROOTS;
    use crate::scan::parse_source;

    fn graph(sources: &[(&str, &str)]) -> CallGraph {
        let files: Vec<ParsedFile> = sources
            .iter()
            .map(|(rel, src)| parse_source(rel, src).expect("fixture parses"))
            .collect();
        build(&files, DECISION_ROOTS)
    }

    fn reach(g: &CallGraph, files: &[ParsedFile], rel: &str, func: &str) -> bool {
        let f = files
            .iter()
            .find(|p| p.rel == rel)
            .and_then(|p| p.fns.iter().find(|f| f.func == func))
            .expect("fn exists");
        g.is_reachable(rel, f)
    }

    #[test]
    fn reachability_follows_calls_from_scheduler_root() {
        let srcs = [
            (
                "crates/core/src/sched/threesigma.rs",
                "impl Scheduler for ThreeSigmaScheduler {\n\
                     fn schedule(&mut self) { helper(); self.rank(); }\n\
                 }\n\
                 impl ThreeSigmaScheduler {\n\
                     fn rank(&self) { util::score(); }\n\
                 }\n\
                 fn helper() {}\n\
                 fn orphan() {}\n",
            ),
            (
                "crates/core/src/sched/util.rs",
                "pub fn score() {}\npub fn unused() {}\n",
            ),
        ];
        let files: Vec<ParsedFile> = srcs
            .iter()
            .map(|(rel, src)| parse_source(rel, src).unwrap())
            .collect();
        let g = build(&files, DECISION_ROOTS);
        assert!(g.has_roots());
        let ts = "crates/core/src/sched/threesigma.rs";
        let util = "crates/core/src/sched/util.rs";
        assert!(reach(&g, &files, ts, "schedule"));
        assert!(reach(&g, &files, ts, "helper"), "bare call resolves");
        assert!(reach(&g, &files, ts, "rank"), "method call resolves");
        assert!(reach(&g, &files, util, "score"), "module-qualified call");
        assert!(!reach(&g, &files, ts, "orphan"));
        assert!(!reach(&g, &files, util, "unused"));
    }

    #[test]
    fn test_code_and_external_calls_form_no_nodes_or_edges() {
        let g = graph(&[(
            "crates/core/src/sched/x.rs",
            "fn schedule() { BTreeMap::new(); std::mem::take(&mut 1); }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn schedule() { panic!() }\n\
             }\n",
        )]);
        // The free `schedule` has no Scheduler impl context, so no roots:
        // qualified calls into std resolved to nothing and test fns are
        // invisible.
        assert!(!g.has_roots());
        assert_eq!(g.reachable_len(), 0);
    }

    #[test]
    fn solver_and_pump_roots_recognised() {
        let g = graph(&[
            (
                "crates/milp/src/tiers.rs",
                "impl Solver for BranchAndBound { fn solve(&self) {} }\n",
            ),
            (
                "crates/cluster/src/serve.rs",
                "impl ServeSession { fn pump_until(&mut self) {} }\n",
            ),
            ("crates/cluster/src/engine.rs", "pub fn run_observed() {}\n"),
        ]);
        assert!(g.has_roots());
        assert_eq!(g.reachable_len(), 3);
    }
}
