//! Phase 2 cross-item rules: facts that span functions, structs, and docs.
//!
//! * **snapshot-exhaustiveness** — every named field of a state struct
//!   paired with a snapshot type must be mentioned in the pair's snapshot
//!   fn(s) and restore fn(s), or carry an audited entry in
//!   `snapshot_exclusions.txt` (the PR 8 "best-NMAE silently missing from
//!   `Snapshot`" bug class).
//! * **wal-ack-ordering** — in the serve front-end, any wire acknowledgment
//!   must be dominated in-function by a journal `.append(..)` call
//!   (journal-before-ack, DESIGN §11), with a `// lint: no-journal` escape
//!   hatch for typed-rejection paths that admit nothing; and the socket
//!   write of the queued acknowledgments (`.flush(..)`) must be dominated
//!   in-function by the journal barrier (`.sync(..)`).
//! * **metrics-consistency** — every metric name is registered exactly
//!   once, is `snake_case`, and every `sched_`/`serve_`/`wal_`/`predict_`
//!   name cited in the docs exists in code.

use std::collections::BTreeMap;

use proc_macro2::Delimiter;

use crate::config::{self, SnapshotPair};
use crate::scan::{FnSite, ParsedFile, Tok};
use crate::Violation;

/// True when `body` mentions `field` as a field access (`recv.field`) or a
/// struct-literal / pattern binding (`field: ..`).
fn mentions_field(body: &[Tok], field: &str) -> bool {
    for i in 0..body.len() {
        let Some(Tok::Ident(name, _)) = body.get(i) else {
            continue;
        };
        if name != field {
            continue;
        }
        if i > 0 && matches!(body[i - 1], Tok::Punct('.', _)) {
            return true;
        }
        // `field : ..` but not a `::` path segment.
        if matches!(body.get(i + 1), Some(Tok::Punct(':', _)))
            && !matches!(body.get(i + 2), Some(Tok::Punct(':', _)))
            && !(i > 0 && matches!(body[i - 1], Tok::Punct(':', _)))
        {
            return true;
        }
    }
    false
}

fn impl_mentions(site: &FnSite, word: &str) -> bool {
    site.impl_ctx
        .as_deref()
        .map(|h| {
            h.split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|w| w == word)
        })
        .unwrap_or(false)
}

/// Resolves a pair's fn specs in `file`; the second element counts specs
/// that matched no fn.
fn pair_fns<'a>(file: &'a ParsedFile, specs: &[(&str, &str)]) -> (Vec<&'a FnSite>, usize) {
    let mut found = Vec::new();
    let mut missing = 0usize;
    for &(name, impl_word) in specs {
        let matches: Vec<&FnSite> = file
            .fns
            .iter()
            .filter(|f| !f.is_test && f.func == name && impl_mentions(f, impl_word))
            .collect();
        if matches.is_empty() {
            missing += 1;
        }
        found.extend(matches);
    }
    (found, missing)
}

/// Runs the snapshot-exhaustiveness rule over `files` for the given pairs.
/// A pair whose struct file or fns file is absent from `files` is skipped
/// (synthetic trees); present files whose struct or fns cannot be resolved
/// are a violation, so renames cannot silently disable the rule.
pub fn snapshot_exhaustiveness(files: &[ParsedFile], pairs: &[SnapshotPair]) -> Vec<Violation> {
    let mut out = Vec::new();
    for pair in pairs {
        let Some(file) = files.iter().find(|p| p.rel.ends_with(pair.file_suffix)) else {
            continue;
        };
        let Some(def) = file.structs.iter().find(|s| s.name == pair.strukt) else {
            out.push(Violation {
                rule: "snapshot-exhaustiveness",
                file: file.rel.clone(),
                line: 1,
                func: pair.strukt.to_string(),
                pattern: format!("struct {}", pair.strukt),
                message: format!(
                    "state struct `{}` not found in {}; update the pair table in \
                     crates/lint/src/config.rs if it moved",
                    pair.strukt, file.rel
                ),
            });
            continue;
        };
        let Some(fns_file) = files.iter().find(|p| p.rel.ends_with(pair.fns_file_suffix)) else {
            continue;
        };
        let (reads, reads_missing) = pair_fns(fns_file, pair.reads);
        let (writes, writes_missing) = pair_fns(fns_file, pair.writes);
        if reads_missing > 0 || writes_missing > 0 {
            out.push(Violation {
                rule: "snapshot-exhaustiveness",
                file: file.rel.clone(),
                line: def.line,
                func: pair.strukt.to_string(),
                pattern: format!("fns for {}", pair.strukt),
                message: format!(
                    "snapshot/restore fns for `{}` not all found (reads {:?}, writes {:?}); \
                     update the pair table in crates/lint/src/config.rs if they moved",
                    pair.strukt, pair.reads, pair.writes
                ),
            });
            continue;
        }
        for (field, line) in &def.fields {
            let read_ok = reads.iter().any(|f| mentions_field(&f.body, field));
            let write_ok = writes.iter().any(|f| mentions_field(&f.body, field));
            if !read_ok {
                out.push(Violation {
                    rule: "snapshot-exhaustiveness",
                    file: file.rel.clone(),
                    line: *line,
                    func: pair.strukt.to_string(),
                    pattern: field.clone(),
                    message: format!(
                        "field `{field}` of `{}` is never read in its snapshot fn(s) {:?}; \
                         serialize it or record an audited exclusion in {}",
                        pair.strukt,
                        pair.reads.iter().map(|r| r.0).collect::<Vec<_>>(),
                        config::SNAPSHOT_EXCLUSIONS_PATH,
                    ),
                });
            }
            if !write_ok && pair.reads != pair.writes {
                out.push(Violation {
                    rule: "snapshot-exhaustiveness",
                    file: file.rel.clone(),
                    line: *line,
                    func: pair.strukt.to_string(),
                    pattern: field.clone(),
                    message: format!(
                        "field `{field}` of `{}` is never written in its restore fn(s) {:?}; \
                         restore it or record an audited exclusion in {}",
                        pair.strukt,
                        pair.writes.iter().map(|w| w.0).collect::<Vec<_>>(),
                        config::SNAPSHOT_EXCLUSIONS_PATH,
                    ),
                });
            }
        }
    }
    out.dedup_by(|a, b| a.line == b.line && a.pattern == b.pattern && a.message == b.message);
    out
}

/// Runs the wal-ack-ordering rule: in the ack file, every `.accepted(..)` /
/// `.rejected(..)` call must be preceded (in the same fn body) by a journal
/// `.append(..)` call, or carry a `// lint: no-journal` escape hatch; and
/// every `.flush(..)` — the one write that puts queued acks on the socket —
/// must be preceded by the journal barrier `.sync(..)`. The append only
/// queues a frame, so without the second half an ack could reach the
/// client before its record reaches the disk.
pub fn wal_ack_ordering(files: &[ParsedFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let Some(file) = files
        .iter()
        .find(|p| p.rel.ends_with(config::ACK_FILE_SUFFIX))
    else {
        return out;
    };
    for f in file.fns.iter().filter(|f| !f.is_test) {
        // The ack methods' own definitions contain no ack *calls*; no
        // special-casing needed.
        let toks = &f.body;
        let mut journal_seen = false;
        let mut sync_seen = false;
        for i in 0..toks.len() {
            let (Some(Tok::Punct('.', _)), Some(Tok::Ident(m, span)), Some(open)) =
                (toks.get(i), toks.get(i + 1), toks.get(i + 2))
            else {
                continue;
            };
            if !matches!(open, Tok::Open(Delimiter::Parenthesis, _)) {
                continue;
            }
            if m == config::JOURNAL_METHOD {
                journal_seen = true;
            } else if m == config::SYNC_METHOD {
                sync_seen = true;
            } else if m == config::FLUSH_METHOD && !sync_seen {
                out.push(Violation {
                    rule: "wal-ack-ordering",
                    file: file.rel.clone(),
                    line: span.line,
                    func: f.func.clone(),
                    pattern: format!("{m}("),
                    message: format!(
                        "socket write `.{m}(..)` is not dominated by the journal barrier \
                         `.{}(..)` in this fn; queued acknowledgments may only be written \
                         after the fsync that covers their records (DESIGN §11)",
                        config::SYNC_METHOD
                    ),
                });
            } else if config::ACK_METHODS.contains(&m.as_str())
                && !journal_seen
                && !file.is_no_journal(span.line)
            {
                out.push(Violation {
                    rule: "wal-ack-ordering",
                    file: file.rel.clone(),
                    line: span.line,
                    func: f.func.clone(),
                    pattern: format!("{m}("),
                    message: format!(
                        "wire acknowledgment `.{m}(..)` is not dominated by a journal \
                         `.append(..)` in this fn; journal-before-ack (DESIGN §11) or mark a \
                         deliberately unjournaled rejection with `// lint: no-journal`"
                    ),
                });
            }
        }
    }
    out
}

/// One metric registration site.
#[derive(Debug)]
struct RegSite {
    file: String,
    line: usize,
    func: String,
}

fn registrations(files: &[ParsedFile]) -> BTreeMap<String, Vec<RegSite>> {
    let mut regs: BTreeMap<String, Vec<RegSite>> = BTreeMap::new();
    for file in files {
        for f in file.fns.iter().filter(|f| !f.is_test) {
            let toks = &f.body;
            for i in 0..toks.len() {
                let (
                    Some(Tok::Punct('.', _)),
                    Some(Tok::Ident(m, _)),
                    Some(Tok::Open(Delimiter::Parenthesis, _)),
                    Some(Tok::Lit(lit, span)),
                    Some(Tok::Punct(',', _)),
                ) = (
                    toks.get(i),
                    toks.get(i + 1),
                    toks.get(i + 2),
                    toks.get(i + 3),
                    toks.get(i + 4),
                )
                else {
                    continue;
                };
                // `.counter("name", help)` registers; the 1-arg form is the
                // snapshot read accessor and never reaches this arm.
                if !matches!(m.as_str(), "counter" | "gauge" | "histogram" | "timer") {
                    continue;
                }
                let Some(name) = lit.strip_prefix('"').and_then(|s| s.strip_suffix('"')) else {
                    continue;
                };
                regs.entry(name.to_string()).or_default().push(RegSite {
                    file: file.rel.clone(),
                    line: span.line,
                    func: f.func.clone(),
                });
            }
        }
    }
    regs
}

fn is_snake_case(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Runs the metrics-consistency rule: single snake_case registration per
/// name, and doc-cited metric names must exist. `docs` are (workspace-rel
/// path, contents) pairs.
pub fn metrics_consistency(files: &[ParsedFile], docs: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    let regs = registrations(files);
    for (name, sites) in &regs {
        if !is_snake_case(name) {
            let s = &sites[0];
            out.push(Violation {
                rule: "metrics-consistency",
                file: s.file.clone(),
                line: s.line,
                func: s.func.clone(),
                pattern: name.clone(),
                message: format!(
                    "metric name `{name}` is not snake_case; the exposition convention is \
                     `[a-z][a-z0-9_]*`"
                ),
            });
        }
        if sites.len() > 1 {
            for s in &sites[1..] {
                out.push(Violation {
                    rule: "metrics-consistency",
                    file: s.file.clone(),
                    line: s.line,
                    func: s.func.clone(),
                    pattern: name.clone(),
                    message: format!(
                        "metric `{name}` is registered {} times (first at {}:{}); every name \
                         must be registered exactly once",
                        sites.len(),
                        sites[0].file,
                        sites[0].line
                    ),
                });
            }
        }
    }
    for (doc_rel, text) in docs {
        let mut cited: BTreeMap<&str, usize> = BTreeMap::new();
        for (idx, line) in text.lines().enumerate() {
            let bytes = line.as_bytes();
            let mut start = 0usize;
            while start < bytes.len() {
                let is_word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
                if !is_word(bytes[start]) {
                    start += 1;
                    continue;
                }
                let mut end = start;
                while end < bytes.len() && is_word(bytes[end]) {
                    end += 1;
                }
                let word = &line[start..end];
                let tail = &line[end..];
                start = end;
                if !config::METRIC_DOC_PREFIXES
                    .iter()
                    .any(|p| word.starts_with(p) && word.len() > p.len())
                {
                    continue;
                }
                // Identifier-shaped non-metrics: function references
                // (`serve_snapshot()`), file names (`serve_part1.jsonl`),
                // paths (`wal::..`), and names with fewer than two
                // underscores (all exported metrics have at least two).
                if word.matches('_').count() < 2 {
                    continue;
                }
                if tail.starts_with('(') || tail.starts_with("::") {
                    continue;
                }
                if [".rs", ".jsonl", ".txt", ".json", ".toml", ".md"]
                    .iter()
                    .any(|ext| tail.starts_with(ext))
                {
                    continue;
                }
                if regs.contains_key(word) {
                    continue;
                }
                cited.entry(word).or_insert(idx + 1);
            }
        }
        for (word, line) in cited {
            out.push(Violation {
                rule: "metrics-consistency",
                file: doc_rel.clone(),
                line,
                func: "<doc>".to_string(),
                pattern: word.to_string(),
                message: format!(
                    "{doc_rel} cites metric `{word}` but no such name is registered; fix the \
                     doc, register the metric, or record an audited exclusion in {}",
                    config::SNAPSHOT_EXCLUSIONS_PATH
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::parse_source;

    fn files(sources: &[(&str, &str)]) -> Vec<ParsedFile> {
        sources
            .iter()
            .map(|(rel, src)| parse_source(rel, src).expect("fixture parses"))
            .collect()
    }

    #[test]
    fn mentions_field_sees_access_and_struct_literal() {
        let fs = files(&[(
            "crates/x/src/lib.rs",
            "fn f(&self) -> S { S { a: self.b, c } }",
        )]);
        let body = &fs[0].fns[0].body;
        assert!(mentions_field(body, "a"));
        assert!(mentions_field(body, "b"));
        assert!(
            !mentions_field(body, "c"),
            "shorthand is not proof of a read"
        );
        assert!(!mentions_field(body, "d"));
    }

    #[test]
    fn doc_citation_requires_registration() {
        let fs = files(&[(
            "crates/obs/src/x.rs",
            r#"fn register(rec: &Recorder) { rec.counter("serve_cycles_total", "help"); }"#,
        )]);
        let docs = vec![(
            "DESIGN.md".to_string(),
            "exports `serve_cycles_total` and `serve_ghost_total`; see serve_snapshot() \
             and serve_part1.jsonl"
                .to_string(),
        )];
        let found = metrics_consistency(&fs, &docs);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].pattern, "serve_ghost_total");
        assert_eq!(found[0].func, "<doc>");
    }
}
