//! Item/region state over the line lexer.
//!
//! Protocol-aware auditing needs three kinds of *structure* the lexer
//! alone cannot see:
//!
//! * **struct fields** — which atomic fields each runtime struct declares
//!   (rule L7 checks them against `docs/PROTOCOLS.toml`);
//! * **fence tags** — the `// sc: <protocol>/<side>` pairing tag of each
//!   `fence(...)` call (rule L6);
//! * **hot-path regions** — spans bracketed by `ft-lint: hot-path
//!   begin(<name>)` / `end(<name>)` markers (rule L9).
//!
//! `ItemState` carries the cross-line part (brace depth, open struct
//! bodies, the open hot-path region) through the one pass over a file's
//! lines in [`crate::lint_file`]. Like the lexer, this is deliberately
//! not a full Rust parser: brace depth over comment/string-masked code is
//! enough to attribute fields to structs, and everything else is
//! comment-side convention — a dependency-free auditor the workspace can
//! run offline, precise enough that every diagnostic points at a real
//! line.

use crate::lexer::has_word;

/// Atomic type names recognized by the field scan (the `ft-sync` facade
/// re-exports exactly these). Matched at identifier boundaries anywhere in
/// a field's type, so `Box<[AtomicU64]>`, `CachePadded<AtomicU64>` and
/// `[AtomicI64; N]` all count.
pub const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// A parsed `sc:` fence-pairing tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScTag {
    /// Protocol name — must be declared in `docs/PROTOCOLS.toml`.
    pub protocol: String,
    /// Side of the protocol this site implements (e.g. `registrant`).
    pub side: String,
}

/// Parse `sc: <protocol>/<side>` out of comment text.
pub fn parse_sc_tag(comment: &str) -> Option<ScTag> {
    let at = comment.find("sc: ")?;
    // Only accept the tag at a token boundary so prose like "misc: x"
    // cannot introduce one.
    if comment[..at]
        .chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
    {
        // Retry past the false hit.
        return parse_sc_tag(&comment[at + 4..]);
    }
    let token: String = comment[at + 4..]
        .chars()
        .take_while(|c| !c.is_whitespace())
        .collect();
    let (protocol, side) = token.split_once('/')?;
    let ok = |s: &str| {
        !s.is_empty()
            && s.chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
    };
    (ok(protocol) && ok(side)).then(|| ScTag {
        protocol: protocol.to_string(),
        side: side.to_string(),
    })
}

/// Parse a hot-path marker out of comment text:
/// `ft-lint: hot-path begin(<name>)` or `ft-lint: hot-path end(<name>)`.
/// Returns `(is_begin, name)`.
fn parse_hot_marker(comment: &str) -> Option<(bool, String)> {
    let rest = comment.split("ft-lint: hot-path ").nth(1)?;
    let (is_begin, rest) = if let Some(r) = rest.strip_prefix("begin(") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("end(") {
        (false, r)
    } else {
        return None;
    };
    let name: String = rest.chars().take_while(|&c| c != ')').collect();
    (!name.is_empty() && rest.len() > name.len()).then_some((is_begin, name))
}

/// One struct whose body is currently open.
#[derive(Debug)]
struct OpenStruct {
    name: String,
    /// Brace depth of the struct *body* (fields live exactly here).
    body_depth: u32,
}

/// Cross-line state of the item/region scan. Feed every line of a file's
/// non-test region, in order, to `marker` and `field`.
#[derive(Debug, Default)]
pub(crate) struct ItemState {
    depth: u32,
    /// `struct Name` seen, body brace not yet reached.
    pending_struct: Option<String>,
    open_structs: Vec<OpenStruct>,
    /// `(name, begin line)` of the open hot-path region. Regions do not
    /// nest, so there is at most one.
    open_region: Option<(String, usize)>,
}

impl ItemState {
    /// Feed 1-based line `line_no`'s comment through the hot-path marker
    /// grammar. Returns the marker error, if the line carries a malformed
    /// marker (nested `begin`, unmatched or mismatched `end`). A
    /// mismatched `end` still closes the open region, so one typo yields
    /// one diagnostic, not a cascade.
    pub fn marker(&mut self, line_no: usize, comment: &str) -> Option<String> {
        let (is_begin, name) = parse_hot_marker(comment)?;
        match (is_begin, &self.open_region) {
            (true, Some((open, at))) => Some(format!(
                "hot-path begin({name}) nested inside begin({open}) from \
                 line {at}; close it first"
            )),
            (true, None) => {
                self.open_region = Some((name, line_no));
                None
            }
            (false, None) => Some(format!("hot-path end({name}) without a matching begin")),
            (false, Some(_)) => {
                let (open, at) = self.open_region.take()?;
                (open != name).then(|| {
                    format!("hot-path end({name}) does not match open begin({open}) from line {at}")
                })
            }
        }
    }

    /// Name of the hot-path region covering line `line_no` (after its
    /// marker was fed). Marker lines lie outside their own region; a
    /// region left open runs to the end of the scan.
    pub fn hot_region(&self, line_no: usize) -> Option<&str> {
        self.open_region
            .as_ref()
            .filter(|(_, at)| *at != line_no)
            .map(|(name, _)| name.as_str())
    }

    /// The region still open once every line was fed: `(begin line,
    /// message)`.
    pub fn unclosed(&self) -> Option<(usize, String)> {
        let (name, at) = self.open_region.as_ref()?;
        Some((
            *at,
            format!("hot-path begin({name}) is never closed with end({name})"),
        ))
    }

    /// Feed one masked code line. Returns `Struct::field` when the line
    /// declares an atomic field of the struct whose body is open.
    pub fn field(&mut self, code: &str) -> Option<String> {
        // A field line is checked against the depth *before* this line's
        // braces are processed (fields never open/close the body brace on
        // their own line in rustfmt'd code; a brace on the line simply
        // means it is not a field).
        let field = self
            .open_structs
            .last()
            .filter(|open| self.depth == open.body_depth)
            .and_then(|open| {
                let (field, ty) = split_field(code)?;
                ATOMIC_TYPES
                    .iter()
                    .any(|t| has_word(ty, t))
                    .then(|| format!("{}::{field}", open.name))
            });

        // Detect a struct declaration before brace-processing the line so
        // `struct X {` pushes with the correct body depth.
        if self.pending_struct.is_none() && has_word(code, "struct") {
            self.pending_struct = struct_name(code);
        }
        for c in code.chars() {
            match c {
                '{' => {
                    self.depth += 1;
                    if let Some(name) = self.pending_struct.take() {
                        self.open_structs.push(OpenStruct {
                            name,
                            body_depth: self.depth,
                        });
                    }
                }
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    if self
                        .open_structs
                        .last()
                        .is_some_and(|s| self.depth < s.body_depth)
                    {
                        self.open_structs.pop();
                    }
                }
                // Unit (`struct X;`) and tuple (`struct X(..);`) structs
                // never open a field body.
                ';' => self.pending_struct = None,
                _ => {}
            }
        }
        field
    }
}

/// Split a struct-body line into `(field_name, type_text)` if it is a
/// named-field declaration.
fn split_field(code: &str) -> Option<(&str, &str)> {
    let mut t = code.trim_start();
    for prefix in ["pub(crate)", "pub(super)", "pub(in"] {
        if let Some(rest) = t.strip_prefix(prefix) {
            // `pub(in path)` — skip to the closing paren.
            t = match prefix {
                "pub(in" => rest.split_once(')').map(|(_, r)| r)?,
                _ => rest,
            };
            t = t.trim_start();
        }
    }
    if let Some(rest) = t.strip_prefix("pub ") {
        t = rest.trim_start();
    }
    let colon = t.find(':')?;
    let (name, ty) = t.split_at(colon);
    let name = name.trim();
    // `::` (paths), `let x:` inside bodies (depth check filters those) and
    // non-identifier junk are rejected.
    if name.is_empty()
        || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
        || ty.starts_with("::")
    {
        return None;
    }
    // Keywords that precede a `:` in non-field positions.
    if ["if", "else", "match", "return", "let", "const", "static"].contains(&name) {
        return None;
    }
    Some((name, &ty[1..]))
}

/// Extract the struct name from a `struct Name ...` declaration line.
fn struct_name(code: &str) -> Option<String> {
    let at = code.find("struct")?;
    let rest = code[at + "struct".len()..].trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_file, FileScan, Report};

    /// One pass over `src` as file `f.rs`, outside the hot-path dirs.
    fn scan(src: &str) -> (FileScan, Report) {
        let mut report = Report::default();
        let scan = lint_file("f.rs", src, false, &mut report);
        (scan, report)
    }

    fn field_keys(src: &str) -> Vec<String> {
        scan(src).0.fields.into_iter().map(|f| f.key).collect()
    }

    #[test]
    fn finds_atomic_fields_with_struct_attribution() {
        let src = "pub struct A {\n    pub join: AtomicI64,\n    name: String,\n    spill: Box<[AtomicU64]>,\n}\nstruct B {\n    next: ft_sync::atomic::AtomicPtr<Seg>,\n}\n";
        let (scan, _) = scan(src);
        let keys: Vec<&str> = scan.fields.iter().map(|f| f.key.as_str()).collect();
        assert_eq!(
            keys,
            vec!["f.rs::A::join", "f.rs::A::spill", "f.rs::B::next"]
        );
        assert_eq!(scan.fields[0].line, 2);
    }

    #[test]
    fn nested_braces_do_not_misattribute_fields() {
        // A method body between fields-at-depth never matches; a struct
        // literal inside a fn does not reopen the field scan.
        let src = "struct A {\n    x: AtomicU64,\n}\nimpl A {\n    fn f(&self) {\n        let y: AtomicU64 = AtomicU64::new(0);\n        let a = A { x: AtomicU64::new(1) };\n    }\n}\n";
        assert_eq!(field_keys(src), vec!["f.rs::A::x"]);
    }

    #[test]
    fn tuple_and_unit_structs_are_skipped() {
        let src = "struct U;\nstruct T(AtomicU64);\nstruct N {\n    v: AtomicBool,\n}\n";
        assert_eq!(field_keys(src), vec!["f.rs::N::v"]);
    }

    #[test]
    fn array_and_wrapped_atomics_are_fields() {
        let src = "struct S {\n    slots: [AtomicI64; 8],\n    lanes: Box<[CachePadded<AtomicU64>]>,\n    not_atomic: AtomicBitVec,\n}\n";
        assert_eq!(field_keys(src), vec!["f.rs::S::slots", "f.rs::S::lanes"]);
    }

    #[test]
    fn fence_sites_pick_up_sc_tags_from_block_above() {
        let src = "fn f() {\n    // sc: seqlock/writer-begin — pairs with the reader.\n    // ord: Release fence.\n    fence(Ordering::Release);\n    fence(Ordering::SeqCst);\n}\n";
        let (scan, report) = scan(src);
        assert_eq!(scan.fences.len(), 1, "only the tagged fence pairs");
        let fence = &scan.fences[0];
        assert_eq!(fence.line, 4);
        assert_eq!(fence.tag.protocol, "seqlock");
        assert_eq!(fence.tag.side, "writer-begin");
        assert_eq!(report.violations.len(), 1, "second fence is untagged");
        assert_eq!(
            (report.violations[0].rule, report.violations[0].line),
            ("L6", 5)
        );
    }

    #[test]
    fn sc_tag_requires_token_boundary_and_shape() {
        assert!(parse_sc_tag("sc: proto/side").is_some());
        assert!(parse_sc_tag("see misc: proto/side").is_none());
        assert!(parse_sc_tag("sc: no-slash").is_none());
        assert!(parse_sc_tag("sc: Upper/Case").is_none());
        let t = parse_sc_tag("blah sc: a-b/c_d trailing").unwrap();
        assert_eq!((t.protocol.as_str(), t.side.as_str()), ("a-b", "c_d"));
    }

    #[test]
    fn hot_regions_pair_and_report_errors() {
        let src = "// ft-lint: hot-path begin(read)\nfn f() { Box::new(1); }\n// ft-lint: hot-path end(read)\nfn g() { Box::new(2); }\n// ft-lint: hot-path end(phantom)\n// ft-lint: hot-path begin(open)\nfn h() { Box::new(3); }\n";
        let (_, report) = scan(src);
        let hits: Vec<(usize, &str)> = report
            .violations
            .iter()
            .map(|v| (v.line, v.message.as_str()))
            .collect();
        assert!(report.violations.iter().all(|v| v.rule == "L9"));
        assert_eq!(hits.len(), 4, "{hits:?}");
        assert!(hits[0].0 == 2 && hits[0].1.contains("`read`"), "{hits:?}");
        assert!(hits[1].0 == 5 && hits[1].1.contains("without a matching begin"));
        assert!(
            hits[2].0 == 7 && hits[2].1.contains("`open`"),
            "unterminated"
        );
        assert!(hits[3].0 == 6 && hits[3].1.contains("never closed"));
    }

    #[test]
    fn mismatched_end_closes_with_one_diagnostic() {
        let src = "// ft-lint: hot-path begin(a)\nfn f() {}\n// ft-lint: hot-path end(b)\nfn g() { Box::new(1); }\n";
        let (_, report) = scan(src);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert!(report.violations[0].message.contains("does not match"));
    }
}
