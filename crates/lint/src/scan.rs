//! Source-file model: parse a file with the vendored `syn`, walk its items
//! tracking test context, and flatten fn bodies into linear token vectors
//! that the rules pattern-match over.

use std::collections::BTreeSet;

use proc_macro2::{Delimiter, Span, TokenTree};
use syn::{Attribute, Item};

/// A flattened token: groups become `Open`/`Close` markers so rules can
/// match linear windows while still tracking nesting depth.
#[derive(Debug, Clone)]
pub enum Tok {
    /// An identifier or keyword.
    Ident(String, Span),
    /// A punctuation character.
    Punct(char, Span),
    /// A literal (string, char, number), kept as raw text.
    Lit(String, Span),
    /// An opening delimiter.
    Open(Delimiter, Span),
    /// A closing delimiter (span of the opening one).
    Close(Delimiter, Span),
}

impl Tok {
    /// The token's span.
    pub fn span(&self) -> Span {
        match self {
            Tok::Ident(_, s)
            | Tok::Punct(_, s)
            | Tok::Lit(_, s)
            | Tok::Open(_, s)
            | Tok::Close(_, s) => *s,
        }
    }

    /// The identifier text, if this is an ident.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(s, _) => Some(s),
            _ => None,
        }
    }
}

/// Flattens token trees into the linear [`Tok`] form.
pub fn flatten(trees: &[TokenTree], out: &mut Vec<Tok>) {
    for t in trees {
        match t {
            TokenTree::Group(g) => {
                out.push(Tok::Open(g.delimiter(), g.span()));
                flatten(g.trees(), out);
                out.push(Tok::Close(g.delimiter(), g.span()));
            }
            TokenTree::Ident(i) => out.push(Tok::Ident(i.to_string(), i.span())),
            TokenTree::Punct(p) => out.push(Tok::Punct(p.as_char(), p.span())),
            TokenTree::Literal(l) => out.push(Tok::Lit(l.to_string(), l.span())),
        }
    }
}

/// One function's worth of scannable tokens.
#[derive(Debug, Clone)]
pub struct FnSite {
    /// The function's name (allowlist key).
    pub func: String,
    /// True when the fn is `#[test]` or inside `#[cfg(test)]` context.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword (call-graph node key).
    pub line: usize,
    /// The enclosing `impl`/`trait` header text (`Scheduler for Fifo`,
    /// `Predictor`), or `None` for free functions.
    pub impl_ctx: Option<String>,
    /// Flattened signature tokens (params, return type).
    pub sig: Vec<Tok>,
    /// Flattened body tokens; empty for bodiless declarations.
    pub body: Vec<Tok>,
}

/// A non-test struct definition with its named fields (snapshot pairing).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields in declaration order: (name, 1-based line).
    pub fields: Vec<(String, usize)>,
}

/// A parsed, walked source file ready for rule scans.
#[derive(Debug, Clone)]
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Every function (at any nesting depth) with its test context.
    pub fns: Vec<FnSite>,
    /// Non-test struct definitions with their named fields.
    pub structs: Vec<StructDef>,
    /// Names of struct fields typed `HashMap`/`HashSet` in non-test code.
    pub hash_fields: BTreeSet<String>,
    /// Flattened tokens of non-fn, non-test items (`use`, `const`, macros).
    pub item_toks: Vec<Tok>,
    /// Lines carrying a `lint: sorted` justification comment.
    pub justified_lines: BTreeSet<usize>,
    /// Lines carrying a `lint: no-journal` escape-hatch comment.
    pub no_journal_lines: BTreeSet<usize>,
}

impl ParsedFile {
    /// True when `line` carries a justification comment on it or directly
    /// above it.
    pub fn is_justified(&self, line: usize) -> bool {
        self.justified_lines.contains(&line)
            || (line > 0 && self.justified_lines.contains(&(line - 1)))
    }

    /// True when `line` carries a `lint: no-journal` escape hatch on it or
    /// directly above it.
    pub fn is_no_journal(&self, line: usize) -> bool {
        self.no_journal_lines.contains(&line)
            || (line > 0 && self.no_journal_lines.contains(&(line - 1)))
    }

    /// A copy keeping only the functions `keep` accepts (scope filtering for
    /// the reachability-driven rules); item-level tokens are preserved.
    pub fn filtered(&self, keep: impl Fn(&FnSite) -> bool) -> ParsedFile {
        ParsedFile {
            rel: self.rel.clone(),
            fns: self.fns.iter().filter(|f| keep(f)).cloned().collect(),
            structs: self.structs.clone(),
            hash_fields: self.hash_fields.clone(),
            item_toks: self.item_toks.clone(),
            justified_lines: self.justified_lines.clone(),
            no_journal_lines: self.no_journal_lines.clone(),
        }
    }
}

/// Parses `src` (at workspace-relative path `rel`) into a [`ParsedFile`].
pub fn parse_source(rel: &str, src: &str) -> Result<ParsedFile, syn::Error> {
    let file = syn::parse_file(src)?;
    let comments = proc_macro2::lex_comments(src);
    let justified_lines = comments
        .iter()
        .filter(|c| c.text.contains(crate::config::JUSTIFICATION))
        .map(|c| c.line)
        .collect();
    let no_journal_lines = comments
        .iter()
        .filter(|c| c.text.contains(crate::config::NO_JOURNAL_JUSTIFICATION))
        .map(|c| c.line)
        .collect();
    let mut parsed = ParsedFile {
        rel: rel.to_string(),
        fns: Vec::new(),
        structs: Vec::new(),
        hash_fields: BTreeSet::new(),
        item_toks: Vec::new(),
        justified_lines,
        no_journal_lines,
    };
    walk_items(&file.items, false, None, &mut parsed);
    Ok(parsed)
}

fn attrs_mark_test(attrs: &[Attribute]) -> bool {
    attrs.iter().any(|a| a.is_test() || a.is_cfg_test())
}

fn walk_items(items: &[Item], in_test: bool, impl_ctx: Option<&str>, out: &mut ParsedFile) {
    for item in items {
        match item {
            Item::Fn(f) => {
                let is_test = in_test || attrs_mark_test(&f.attrs);
                let mut sig = Vec::new();
                flatten(&f.signature, &mut sig);
                let mut body = Vec::new();
                if let Some(b) = &f.body {
                    flatten(b.trees(), &mut body);
                }
                out.fns.push(FnSite {
                    func: f.name.clone(),
                    is_test,
                    line: f.span.line,
                    impl_ctx: impl_ctx.map(str::to_string),
                    sig,
                    body,
                });
            }
            Item::Mod(m) => {
                if let Some(content) = &m.content {
                    walk_items(content, in_test || attrs_mark_test(&m.attrs), None, out);
                }
            }
            Item::Impl(i) => {
                walk_items(
                    &i.items,
                    in_test || attrs_mark_test(&i.attrs),
                    Some(&i.header),
                    out,
                );
            }
            Item::Trait(t) => {
                walk_items(
                    &t.items,
                    in_test || attrs_mark_test(&t.attrs),
                    Some(&t.name),
                    out,
                );
            }
            Item::Struct(s) => {
                if !(in_test || attrs_mark_test(&s.attrs)) {
                    if let Some(fields) = &s.fields {
                        let mut toks = Vec::new();
                        flatten(fields.trees(), &mut toks);
                        for name in colon_typed_hash_names(&toks) {
                            out.hash_fields.insert(name);
                        }
                        out.structs.push(StructDef {
                            name: s.name.clone(),
                            line: s.span.line,
                            fields: named_fields(&toks),
                        });
                    }
                }
            }
            Item::Enum(_) => {}
            Item::Verbatim(v) => {
                if !(in_test || attrs_mark_test(&v.attrs)) {
                    flatten(&v.tokens, &mut out.item_toks);
                }
            }
        }
    }
}

/// Extracts named fields from a struct's flattened field tokens: each
/// top-level comma-separated segment contributes the ident directly before
/// its first top-level `:`. Tuple-struct segments (no top-level `:`) yield
/// nothing.
pub(crate) fn named_fields(toks: &[Tok]) -> Vec<(String, usize)> {
    let mut fields = Vec::new();
    let mut group_depth = 0i32;
    let mut angle_depth = 0i32;
    let mut last_ident: Option<(String, usize)> = None;
    let mut in_type = false; // past the segment's `name :`
    for (i, t) in toks.iter().enumerate() {
        match t {
            Tok::Open(..) => group_depth += 1,
            Tok::Close(..) => group_depth -= 1,
            Tok::Punct('<', _) if group_depth == 0 => angle_depth += 1,
            // `->` in fn-pointer types is not a closing angle.
            Tok::Punct('>', _)
                if group_depth == 0
                    && angle_depth > 0
                    && !matches!(toks.get(i.wrapping_sub(1)), Some(Tok::Punct('-', _))) =>
            {
                angle_depth -= 1;
            }
            Tok::Punct(',', _) if group_depth == 0 && angle_depth == 0 => {
                in_type = false;
                last_ident = None;
            }
            Tok::Punct(':', _) if group_depth == 0 && angle_depth == 0 && !in_type => {
                // Skip `::` path separators.
                let double = matches!(toks.get(i + 1), Some(Tok::Punct(':', _)))
                    || matches!(toks.get(i.wrapping_sub(1)), Some(Tok::Punct(':', _)));
                if !double {
                    if let Some((name, line)) = last_ident.take() {
                        fields.push((name, line));
                        in_type = true;
                    }
                }
            }
            Tok::Ident(name, span) if group_depth == 0 && !in_type => {
                last_ident = Some((name.clone(), span.line));
            }
            _ => {}
        }
    }
    fields
}

/// Scans `name : Type` segments (struct fields, fn params) and returns the
/// names whose type mentions `HashMap`/`HashSet`/`FxHashMap`/`FxHashSet`.
pub fn colon_typed_hash_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i] {
            Tok::Open(..) => depth += 1,
            Tok::Close(..) => depth -= 1,
            Tok::Ident(name, _) => {
                // `name :` not followed by another `:` (skip paths `a::b`),
                // and not preceded by `:` (skip path tails).
                let colon_next = matches!(toks.get(i + 1), Some(Tok::Punct(':', _)))
                    && !matches!(toks.get(i + 2), Some(Tok::Punct(':', _)));
                let after_colon = i > 0 && matches!(&toks[i - 1], Tok::Punct(':', _));
                if colon_next && !after_colon {
                    let start_depth = depth;
                    let mut j = i + 2;
                    let mut d = depth;
                    let mut is_hash = false;
                    while j < toks.len() {
                        match &toks[j] {
                            Tok::Open(..) => d += 1,
                            Tok::Close(..) => {
                                d -= 1;
                                if d < start_depth {
                                    break;
                                }
                            }
                            Tok::Punct(',', _) if d == start_depth => break,
                            Tok::Punct('<', _) => d += 1,
                            Tok::Punct('>', _) => d = (d - 1).max(start_depth),
                            Tok::Ident(ty, _)
                                if matches!(
                                    ty.as_str(),
                                    "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet"
                                ) =>
                            {
                                is_hash = true;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if is_hash {
                        names.insert(name.clone());
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    names
}

/// Collects `let [mut] name = ...;` / `let name: Ty = ...;` bindings whose
/// statement mentions `HashMap`/`HashSet` before the terminating `;`.
pub fn let_bound_hash_names(body: &[Tok]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let mut i = 0usize;
    while i < body.len() {
        if body[i].ident() == Some("let") {
            let mut j = i + 1;
            if body.get(j).and_then(Tok::ident) == Some("mut") {
                j += 1;
            }
            if let Some(Tok::Ident(name, _)) = body.get(j) {
                // Scan the statement: to the `;` at this nesting level.
                let mut d = 0i32;
                let mut k = j + 1;
                let mut is_hash = false;
                while k < body.len() {
                    match &body[k] {
                        Tok::Open(..) => d += 1,
                        Tok::Close(..) => {
                            d -= 1;
                            if d < 0 {
                                break;
                            }
                        }
                        Tok::Punct(';', _) if d == 0 => break,
                        Tok::Ident(ty, _)
                            if matches!(
                                ty.as_str(),
                                "HashMap" | "HashSet" | "FxHashMap" | "FxHashSet"
                            ) =>
                        {
                            is_hash = true;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if is_hash {
                    names.insert(name.clone());
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(src: &str) -> ParsedFile {
        parse_source("crates/x/src/lib.rs", src).unwrap()
    }

    #[test]
    fn fn_walk_tracks_test_context() {
        let p = parsed(
            r#"
            fn hot() {}
            #[test]
            fn direct_test() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn t() {}
            }
            impl S {
                fn method(&self) {}
            }
            "#,
        );
        let flags: Vec<(String, bool)> =
            p.fns.iter().map(|f| (f.func.clone(), f.is_test)).collect();
        assert_eq!(
            flags,
            vec![
                ("hot".to_string(), false),
                ("direct_test".to_string(), true),
                ("helper".to_string(), true),
                ("t".to_string(), true),
                ("method".to_string(), false),
            ]
        );
    }

    #[test]
    fn hash_fields_collected() {
        let p = parsed(
            "struct S { running: HashMap<u64, R>, order: BTreeMap<u64, R>, tags: HashSet<u32> }",
        );
        let got: Vec<&str> = p.hash_fields.iter().map(|s| s.as_str()).collect();
        assert_eq!(got, vec!["running", "tags"]);
    }

    #[test]
    fn let_bindings_collected() {
        let mut body = Vec::new();
        let src = "fn f() { let mut seen = HashSet::new(); let n: usize = 3; let m: HashMap<u8, u8> = Default::default(); }";
        let p = parsed(src);
        body.extend(p.fns[0].body.iter().cloned());
        let got: Vec<String> = let_bound_hash_names(&body).into_iter().collect();
        assert_eq!(got, vec!["m".to_string(), "seen".to_string()]);
    }

    #[test]
    fn param_hash_names_from_signature() {
        let p = parsed("fn f(live: &HashSet<u64>, count: usize) {}");
        let got: Vec<String> = colon_typed_hash_names(&p.fns[0].sig).into_iter().collect();
        assert_eq!(got, vec!["live".to_string()]);
    }

    #[test]
    fn justified_lines_found() {
        let p = parsed("fn f() {\n    // lint: sorted — keys sorted below\n    x.iter();\n}");
        assert!(p.is_justified(2));
        assert!(p.is_justified(3));
        assert!(!p.is_justified(5));
    }
}
