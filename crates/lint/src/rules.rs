//! The rule implementations. Each rule takes a [`ParsedFile`] (already
//! scope-filtered by the driver) and returns violations; test code is never
//! scanned (the walker marks it).

use proc_macro2::Delimiter;

use crate::scan::{colon_typed_hash_names, let_bound_hash_names, ParsedFile, Tok};
use crate::Violation;

/// Methods whose call on a hash container observes nondeterministic order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Idents that may legally precede a `[` without it being an index
/// expression (array literals/types after keywords).
const NON_INDEX_PREDECESSORS: &[&str] = &[
    "return", "break", "in", "let", "else", "mut", "ref", "as", "dyn", "impl", "move", "match",
    "if", "while", "loop", "use", "where", "const", "static",
];

fn violation(
    rule: &'static str,
    file: &str,
    line: usize,
    func: &str,
    pattern: String,
    message: String,
) -> Violation {
    Violation {
        rule,
        file: file.to_string(),
        line,
        func: func.to_string(),
        pattern,
        message,
    }
}

/// Determinism: no iteration over `HashMap`/`HashSet` in decision-path code
/// unless the site carries a `// lint: sorted` justification.
pub fn hash_iter(file: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in file.fns.iter().filter(|f| !f.is_test) {
        let mut names = file.hash_fields.clone();
        names.extend(colon_typed_hash_names(&f.sig));
        names.extend(let_bound_hash_names(&f.body));
        if names.is_empty() {
            continue;
        }
        let toks = &f.body;
        for i in 0..toks.len() {
            // `name.iter()` / `name.keys()` / ... on a known hash name.
            if let (
                Some(Tok::Ident(name, _)),
                Some(Tok::Punct('.', _)),
                Some(Tok::Ident(method, span)),
                Some(Tok::Open(Delimiter::Parenthesis, _)),
            ) = (
                toks.get(i),
                toks.get(i + 1),
                toks.get(i + 2),
                toks.get(i + 3),
            ) {
                // Distinguish the receiver: a bare `name` matches local
                // bindings and (destructured) fields; `self.name` matches
                // fields; `other.name` is some other struct's field whose
                // type we don't know — skip it rather than false-positive on
                // a name collision.
                let after_dot = i > 0 && matches!(&toks[i - 1], Tok::Punct('.', _));
                let self_recv = after_dot && i > 1 && toks[i - 2].ident() == Some("self");
                let known_hash = if after_dot {
                    self_recv && file.hash_fields.contains(name)
                } else {
                    names.contains(name)
                };
                if known_hash
                    && HASH_ITER_METHODS.contains(&method.as_str())
                    && !file.is_justified(span.line)
                {
                    out.push(violation(
                        "hash-iter",
                        &file.rel,
                        span.line,
                        &f.func,
                        format!("{name}.{method}()"),
                        format!(
                            "nondeterministic iteration `{name}.{method}()` over a hash \
                             container in decision-path code; use BTreeMap/collect-and-sort \
                             or justify with `// lint: sorted`"
                        ),
                    ));
                }
            }
            // `for pat in [&[mut]] [self.]name { ... }`.
            if toks.get(i).and_then(Tok::ident) == Some("in") {
                let mut j = i + 1;
                if matches!(toks.get(j), Some(Tok::Punct('&', _))) {
                    j += 1;
                }
                if toks.get(j).and_then(Tok::ident) == Some("mut") {
                    j += 1;
                }
                if toks.get(j).and_then(Tok::ident) == Some("self")
                    && matches!(toks.get(j + 1), Some(Tok::Punct('.', _)))
                {
                    j += 2;
                }
                if let (Some(Tok::Ident(name, span)), Some(Tok::Open(Delimiter::Brace, _))) =
                    (toks.get(j), toks.get(j + 1))
                {
                    if names.contains(name) && !file.is_justified(span.line) {
                        out.push(violation(
                            "hash-iter",
                            &file.rel,
                            span.line,
                            &f.func,
                            format!("for .. in {name}"),
                            format!(
                                "nondeterministic `for` loop over hash container `{name}` in \
                                 decision-path code; use BTreeMap/collect-and-sort or justify \
                                 with `// lint: sorted`"
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

fn scan_time_tokens(file: &ParsedFile, toks: &[Tok], func: &str, out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if let (
            Some(Tok::Ident(a, span)),
            Some(Tok::Punct(':', _)),
            Some(Tok::Punct(':', _)),
            Some(Tok::Ident(b, _)),
        ) = (
            toks.get(i),
            toks.get(i + 1),
            toks.get(i + 2),
            toks.get(i + 3),
        ) {
            if a == "Instant" && b == "now" {
                out.push(violation(
                    "time-source",
                    &file.rel,
                    span.line,
                    func,
                    "Instant::now".to_string(),
                    "direct clock read in decision-path code; route timing through the \
                     clock module's Stopwatch"
                        .to_string(),
                ));
            }
        }
        if let Some(Tok::Ident(id, span)) = toks.get(i) {
            if id == "SystemTime" {
                out.push(violation(
                    "time-source",
                    &file.rel,
                    span.line,
                    func,
                    "SystemTime".to_string(),
                    "wall-clock time has no place in decision-path code; derive times from \
                     the simulation clock"
                        .to_string(),
                ));
            }
        }
    }
}

/// Determinism: no direct `Instant::now`/`SystemTime` outside the clock
/// allowlist modules.
pub fn time_source(file: &ParsedFile) -> Vec<Violation> {
    if crate::config::CLOCK_ALLOWLIST
        .iter()
        .any(|p| file.rel == *p)
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    for f in file.fns.iter().filter(|f| !f.is_test) {
        scan_time_tokens(file, &f.sig, &f.func, &mut out);
        scan_time_tokens(file, &f.body, &f.func, &mut out);
    }
    scan_time_tokens(file, &file.item_toks, "<file>", &mut out);
    out
}

/// Determinism: `rand::thread_rng` seeds from the OS; every RNG in this
/// workspace must be seeded explicitly.
pub fn os_seeded_rng(file: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let scan = |toks: &[Tok], func: &str, out: &mut Vec<Violation>| {
        for t in toks {
            if let Tok::Ident(id, span) = t {
                if id == "thread_rng" {
                    out.push(violation(
                        "thread-rng",
                        &file.rel,
                        span.line,
                        func,
                        "thread_rng".to_string(),
                        "OS-seeded RNG breaks replay; construct an explicitly seeded rng"
                            .to_string(),
                    ));
                }
            }
        }
    };
    for f in file.fns.iter().filter(|f| !f.is_test) {
        scan(&f.body, &f.func, &mut out);
    }
    scan(&file.item_toks, "<file>", &mut out);
    out
}

/// Determinism of cost: decision-path code may not spawn threads, merge
/// over channels, or size work by the host's core count. Decisions were
/// always merged back in a fixed order, but cycle *cost* — and with a
/// wall-clock budget, the degradation level — followed the machine.
pub fn thread_in_decision_scope(file: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut flag = |pattern: &str, line: usize, func: &str| {
        out.push(violation(
            "thread-in-decision-scope",
            &file.rel,
            line,
            func,
            pattern.to_string(),
            format!(
                "`{pattern}` in decision-path code; a scheduling cycle runs on the calling \
                 thread so its cost does not depend on the host's cores"
            ),
        ));
    };
    let mut scan = |toks: &[Tok], func: &str| {
        for i in 0..toks.len() {
            let Some(Tok::Ident(id, span)) = toks.get(i) else {
                continue;
            };
            if id == "available_parallelism" || id == "mpsc" {
                flag(id, span.line, func);
            } else if let ("thread", Some(Tok::Punct(':', _)), Some(Tok::Ident(f, _))) =
                (id.as_str(), toks.get(i + 1), toks.get(i + 3))
            {
                if f == "spawn" || f == "scope" {
                    flag(&format!("thread::{f}"), span.line, func);
                }
            }
        }
    };
    for f in file.fns.iter().filter(|f| !f.is_test) {
        scan(&f.body, &f.func);
    }
    scan(&file.item_toks, "<file>");
    out
}

/// Service-loop strictness: `HashMap`/`HashSet` may not appear at all in
/// the engine/serve modules — not as an import, field, local, parameter, or
/// turbofished constructor. The softer [`hash_iter`] rule only flags
/// iteration and accepts a `// lint: sorted` justification; the serve
/// loop's retirement digest and snapshot restart-equivalence contract
/// cannot tolerate either loophole, so this rule bans the identifiers
/// outright with no escape hatch.
pub fn no_hash_container(file: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    let flag = |id: &str, line: usize, func: &str, out: &mut Vec<Violation>| {
        out.push(violation(
            "no-hash-container",
            &file.rel,
            line,
            func,
            id.to_string(),
            format!(
                "{id} is banned in the service loop (unordered iteration breaks the \
                 serve digest and snapshot equivalence); use BTreeMap/BTreeSet"
            ),
        ));
    };
    let scan = |toks: &[Tok], func: &str, out: &mut Vec<Violation>| {
        for t in toks {
            if let Tok::Ident(id, span) = t {
                if id == "HashMap" || id == "HashSet" {
                    flag(id, span.line, func, out);
                }
            }
        }
    };
    for f in file.fns.iter().filter(|f| !f.is_test) {
        scan(&f.sig, &f.func, &mut out);
        scan(&f.body, &f.func, &mut out);
    }
    scan(&file.item_toks, "<file>", &mut out);
    // Struct fields are not flattened into `item_toks`; the walker records
    // hash-typed field names separately, so report those too.
    for field in &file.hash_fields {
        flag("HashMap/HashSet", 1, &format!("<field {field}>"), &mut out);
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Panic-safety: hot-path code must degrade through typed errors, never
/// panic. Sites the team has audited live in the checked-in allowlist.
pub fn panic_safety(file: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in file.fns.iter().filter(|f| !f.is_test) {
        let toks = &f.body;
        for i in 0..toks.len() {
            match toks.get(i) {
                Some(Tok::Punct('.', _)) => {
                    if let (Some(Tok::Ident(m, span)), Some(Tok::Open(Delimiter::Parenthesis, _))) =
                        (toks.get(i + 1), toks.get(i + 2))
                    {
                        let empty_args =
                            matches!(toks.get(i + 3), Some(Tok::Close(Delimiter::Parenthesis, _)));
                        if m == "unwrap" && empty_args {
                            out.push(violation(
                                "panic",
                                &file.rel,
                                span.line,
                                &f.func,
                                "unwrap()".to_string(),
                                "`.unwrap()` in hot-path code; return a typed error or \
                                 allowlist the audited site"
                                    .to_string(),
                            ));
                        } else if m == "expect" {
                            out.push(violation(
                                "panic",
                                &file.rel,
                                span.line,
                                &f.func,
                                "expect(".to_string(),
                                "`.expect(..)` in hot-path code; return a typed error or \
                                 allowlist the audited site"
                                    .to_string(),
                            ));
                        }
                    }
                }
                Some(Tok::Ident(m, span))
                    if matches!(
                        m.as_str(),
                        "panic" | "unreachable" | "todo" | "unimplemented"
                    ) && matches!(toks.get(i + 1), Some(Tok::Punct('!', _))) =>
                {
                    out.push(violation(
                        "panic",
                        &file.rel,
                        span.line,
                        &f.func,
                        format!("{m}!"),
                        format!(
                            "`{m}!` in hot-path code; return a typed error or allowlist the \
                             audited site"
                        ),
                    ));
                }
                Some(Tok::Open(Delimiter::Bracket, span)) if i > 0 => {
                    let indexing = match &toks[i - 1] {
                        Tok::Ident(w, _) => !NON_INDEX_PREDECESSORS.contains(&w.as_str()),
                        Tok::Close(Delimiter::Parenthesis, _)
                        | Tok::Close(Delimiter::Bracket, _) => true,
                        _ => false,
                    };
                    if indexing {
                        let recv = match &toks[i - 1] {
                            Tok::Ident(w, _) => w.clone(),
                            _ => "<expr>".to_string(),
                        };
                        out.push(violation(
                            "panic",
                            &file.rel,
                            span.line,
                            &f.func,
                            format!("{recv}["),
                            format!(
                                "slice indexing `{recv}[..]` can panic in hot-path code; use \
                                 `.get(..)` or allowlist the audited site"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Float-ordering: comparisons that feed scheduling order must use
/// `total_cmp`, not `partial_cmp` (the NaN-deadline class of bug).
pub fn float_ordering(file: &ParsedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in file.fns.iter().filter(|f| !f.is_test) {
        let toks = &f.body;
        for i in 0..toks.len() {
            if let (
                Some(Tok::Punct('.', _)),
                Some(Tok::Ident(m, span)),
                Some(Tok::Open(Delimiter::Parenthesis, _)),
            ) = (toks.get(i), toks.get(i + 1), toks.get(i + 2))
            {
                if m == "partial_cmp" {
                    out.push(violation(
                        "float-ord",
                        &file.rel,
                        span.line,
                        &f.func,
                        "partial_cmp(".to_string(),
                        "`.partial_cmp(..)` yields unstable order under NaN; use \
                         `.total_cmp(..)` (map non-float keys onto floats first if needed)"
                            .to_string(),
                    ));
                }
            }
        }
    }
    out
}

/// Layering: leaf crate manifests must not grow dependencies beyond their
/// contract. `manifest_src` is the raw `Cargo.toml` text.
pub fn layering(manifest_rel: &str, manifest_src: &str, allowed: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (idx, raw) in manifest_src.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some(key) = line.split('=').next().map(str::trim) else {
            continue;
        };
        // `serde.workspace = true` names the dependency `serde`.
        let key = key.split('.').next().unwrap_or(key).trim_matches('"');
        if !key.is_empty() && !allowed.contains(&key) {
            out.push(violation(
                "layering",
                manifest_rel,
                idx + 1,
                "<manifest>",
                key.to_string(),
                format!(
                    "leaf crate gained dependency `{key}` (allowed: [{}]); leaf crates stay \
                     dependency-clean so they can be reasoned about in isolation",
                    allowed.join(", ")
                ),
            ));
        }
    }
    out
}
