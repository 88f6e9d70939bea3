//! The protocol manifest `docs/PROTOCOLS.toml` (rules L4, L6, L7, L8)
//! and the protocol-content stamps behind `ft-lint --restamp`.
//!
//! The manifest is parsed with a hand-rolled TOML subset (the workspace
//! builds offline, so no `toml` crate): `[[protocol]]` arrays whose
//! entries hold string keys and (possibly multiline) string arrays.
//! Everything the linter does not understand is preserved verbatim by the
//! restamp rewriter.

use crate::lexer::{has_word, Line};
use crate::parser::ATOMIC_TYPES;
use crate::{scan_workspace, Config, Report, WorkspaceScan};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One `[[protocol]]` of `docs/PROTOCOLS.toml`.
#[derive(Debug, Clone, Default)]
pub struct Protocol {
    /// Protocol name, referenced by `// sc:` fence tags.
    pub name: String,
    /// 1-based line of the `[[protocol]]` header.
    pub line: usize,
    /// Explicit heading anchor in `docs/ALGORITHM.md` (`<a id="...">`).
    pub anchor: String,
    /// Loom suites exercising the protocol (empty needs `notes`).
    pub loom: Vec<String>,
    /// Claimed atomic fields: `(key, manifest_line)` with keys shaped
    /// `<file>::<Struct>::<field>`.
    pub fields: Vec<(String, usize)>,
    /// Runtime files that take part in the protocol without declaring
    /// its fields: `(path, manifest_line)`.
    pub files: Vec<(String, usize)>,
    /// Freshness stamp and its 1-based line, or `None` when unstamped
    /// (rule L8 flags it).
    pub stamp: Option<(String, usize)>,
    /// Why no loom suite, when `loom` is empty.
    pub notes: String,
}

impl Protocol {
    /// Every file the protocol covers: its fields' files and `files`, in
    /// path order. The stamp hashes these; rule L4 asks every runtime
    /// file with atomics to be in some protocol's set.
    pub fn covered_files(&self) -> BTreeSet<&str> {
        let field_files = self.fields.iter().filter_map(|(k, _)| k.split_once("::"));
        field_files
            .map(|(file, _)| file)
            .chain(self.files.iter().map(|(f, _)| f.as_str()))
            .collect()
    }

    /// Append the items of one (partial) line of array `key`.
    fn extend(&mut self, key: &str, items: Vec<String>, line: usize) {
        match key {
            "loom" => self.loom.extend(items),
            "fields" => self.fields.extend(items.into_iter().map(|s| (s, line))),
            _ => self.files.extend(items.into_iter().map(|s| (s, line))),
        }
    }
}

/// Parsed protocol manifest.
#[derive(Debug, Clone, Default)]
pub struct Protocols {
    /// Protocols in file order.
    pub protocols: Vec<Protocol>,
}

impl Protocols {
    /// Parse the manifest source. Unknown keys are ignored.
    pub fn parse(src: &str) -> Self {
        let mut m = Protocols::default();
        let mut open_array: Option<&str> = None;
        for (idx, raw) in src.lines().enumerate() {
            let t = strip_toml_comment(raw);
            if t == "[[protocol]]" {
                m.protocols.push(Protocol {
                    line: idx + 1,
                    ..Protocol::default()
                });
                open_array = None;
                continue;
            }
            let Some(last) = m.protocols.last_mut() else {
                continue;
            };
            let (key, rest) = match open_array {
                Some(key) => (key, t),
                None => match ["loom", "fields", "files"]
                    .into_iter()
                    .find_map(|k| Some((k, array_start(t, k)?)))
                {
                    Some(opened) => opened,
                    None => {
                        let value = |key| string_value(t, key);
                        if let Some(v) = value("name") {
                            last.name = v;
                        } else if let Some(v) = value("anchor") {
                            last.anchor = v;
                        } else if let Some(v) = value("notes") {
                            last.notes = v;
                        } else if let Some(v) = value("stamp") {
                            last.stamp = Some((v, idx + 1));
                        }
                        continue;
                    }
                },
            };
            last.extend(key, string_items(rest), idx + 1);
            open_array = (!rest.contains(']')).then_some(key);
        }
        m
    }

    /// The protocol named `name`, if declared.
    pub fn by_name(&self, name: &str) -> Option<&Protocol> {
        self.protocols.iter().find(|p| p.name == name)
    }

    /// The protocol claiming field `key`, if any.
    pub fn claimant(&self, key: &str) -> Option<&Protocol> {
        self.protocols
            .iter()
            .find(|p| p.fields.iter().any(|(f, _)| f == key))
    }
}

/// Strip a trailing `#` TOML comment (quote-aware) and trim.
fn strip_toml_comment(raw: &str) -> &str {
    let mut in_str = false;
    for (i, c) in raw.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return raw[..i].trim(),
            _ => {}
        }
    }
    raw.trim()
}

/// `key = "value"` → `value`.
fn string_value(t: &str, key: &str) -> Option<String> {
    let rest = t.strip_prefix(key)?.trim_start().strip_prefix('=')?.trim();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// `key = [rest` → `rest` (the array may close on the same line).
fn array_start<'a>(t: &'a str, key: &str) -> Option<&'a str> {
    t.strip_prefix(key)?
        .trim_start()
        .strip_prefix('=')?
        .trim()
        .strip_prefix('[')
}

/// All `"..."` string literals on a (partial) TOML array line.
fn string_items(t: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = t;
    while let Some(open) = rest.find('"') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('"') else { break };
        out.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    out
}

/// Is this a **protocol line** — a non-test code line that mentions an
/// atomic type, an `Ordering::`, a `fence` call or `unsafe`? Comment
/// edits (tags, docs) never disturb a stamp; touching the
/// atomics/unsafe themselves always does.
pub(crate) fn is_protocol_line(line: &Line) -> bool {
    let code = &line.code;
    if code.contains("Ordering::") || has_word(code, "unsafe") || has_word(code, "fence") {
        return true;
    }
    ATOMIC_TYPES.iter().any(|t| has_word(code, t))
}

/// FNV-1a 64 over the protocol lines of `files`, in the given order, as
/// the per-file pass collected them. Files missing from `scan` add
/// nothing (rules L7 and L8 report them).
pub(crate) fn stamp<'a>(scan: &WorkspaceScan, files: impl IntoIterator<Item = &'a str>) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let Some(file_scan) = scan.files.get(file) else {
            continue;
        };
        for b in file_scan.protocol_lines.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// `src` with every protocol's `stamp` line rewritten from `scan`; a
/// missing stamp goes directly below the protocol's `name`. A protocol
/// that covers no file gets none. Returns the new source and the number
/// of stamps added or changed. Everything except `stamp` lines is
/// preserved byte-for-byte.
pub fn restamp_source(src: &str, scan: &WorkspaceScan) -> (String, usize) {
    let protocols = Protocols::parse(src).protocols;
    let mut headers = protocols.iter();
    let mut out = String::with_capacity(src.len() + 256);
    let mut changed = 0usize;
    let mut current: Option<&Protocol> = None;
    for raw in src.lines() {
        let t = strip_toml_comment(raw);
        if string_value(t, "stamp").is_some() {
            continue; // old stamp: superseded below
        }
        let _ = writeln!(out, "{raw}");
        if t == "[[protocol]]" {
            current = headers.next();
        }
        let Some(protocol) = current.filter(|_| string_value(t, "name").is_some()) else {
            continue;
        };
        let files = protocol.covered_files();
        if files.is_empty() {
            continue;
        }
        let fresh = stamp(scan, files);
        if protocol.stamp.as_ref().map(|(s, _)| s) != Some(&fresh) {
            changed += 1;
        }
        let _ = writeln!(out, "stamp = \"{fresh}\"");
    }
    (out, changed)
}

/// Rewrite `config.protocols` in place with fresh stamps (see
/// [`restamp_source`]) from a scan of the tree. Returns the number of
/// stamps added or changed.
pub fn restamp(config: &Config) -> std::io::Result<usize> {
    let path = config.root.join(&config.protocols);
    let src = std::fs::read_to_string(&path)?;
    let scan = scan_workspace(config, &mut Report::default())?;
    let (out, changed) = restamp_source(&src, &scan);
    if out != src {
        std::fs::write(&path, out)?;
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_file;
    use std::path::PathBuf;

    const PROTO: &str = r#"
[[protocol]]
name = "seqlock"
anchor = "seqlock-read-path"
loom = ["crates/cmap/tests/loom_seqlock.rs"]
fields = [
    "crates/cmap/src/map.rs::Shard::seq",
    "crates/cmap/src/map.rs::Shard::table", # trailing comment
]
notes = "writer windows vs optimistic readers"

[[protocol]]
name = "stats"
anchor = "metrics"
loom = []
fields = ["crates/core/src/metrics.rs::ShardedCounter::lanes"]
notes = "relaxed counters, read at quiescence"
"#;

    #[test]
    fn parses_protocols() {
        let p = Protocols::parse(PROTO);
        assert_eq!(p.protocols.len(), 2);
        let s = p.by_name("seqlock").expect("seqlock declared");
        assert_eq!(s.anchor, "seqlock-read-path");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[1].0, "crates/cmap/src/map.rs::Shard::table");
        let claimant = p
            .claimant("crates/core/src/metrics.rs::ShardedCounter::lanes")
            .expect("claimed");
        assert_eq!(claimant.name, "stats");
        assert!(p.by_name("absent").is_none());
    }

    #[test]
    fn parses_protocol_files_and_stamp() {
        let src = "[[protocol]]\nname = \"gate\"\nstamp = \"00ff\"\nloom = [\n    \"m/one.rs\",\n    \"m/two.rs\",\n]\nfields = [\"b/x.rs::S::f\", \"a/y.rs::T::g\"]\nfiles = [\n    \"c/d.rs\", # takes part, declares nothing\n]\n\n[[protocol]]\nname = \"bare\"\n";
        let p = Protocols::parse(src);
        let gate = &p.protocols[0];
        assert_eq!(gate.stamp, Some(("00ff".to_string(), 3)));
        assert_eq!(gate.loom, vec!["m/one.rs", "m/two.rs"]);
        assert_eq!(gate.files, vec![("c/d.rs".to_string(), 10)]);
        let covered: Vec<&str> = gate.covered_files().into_iter().collect();
        assert_eq!(covered, vec!["a/y.rs", "b/x.rs", "c/d.rs"], "path order");
        assert_eq!(p.protocols[1].stamp, None);
        assert!(p.protocols[1].covered_files().is_empty());
    }

    /// The stamp of `src` scanned as a single file.
    fn fp(src: &str) -> String {
        let mut ws = WorkspaceScan::default();
        ws.add(
            "f.rs",
            lint_file("f.rs", src, false, &mut Report::default()),
        );
        stamp(&ws, ["f.rs"])
    }

    #[test]
    fn fingerprint_tracks_code_not_comments() {
        let a = "fn f(x: &AtomicU64) {\n    x.store(1, Ordering::Release);\n}\n";
        let with_comment =
            "fn f(x: &AtomicU64) {\n    // ord: Release — publish.\n    x.store(1, Ordering::Release);\n}\n";
        let changed = "fn f(x: &AtomicU64) {\n    x.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(fp(a), fp(with_comment), "comment-only edits keep the stamp");
        assert_ne!(fp(a), fp(changed), "ordering edits break the stamp");
    }

    #[test]
    fn fingerprint_ignores_test_region_and_plain_code() {
        let a = "fn g() { let v = 1; }\nfn f(x: &AtomicU64) { x.store(1, Ordering::SeqCst); }\n";
        let b = "fn g() { let v = 2; }\nfn f(x: &AtomicU64) { x.store(1, Ordering::SeqCst); }\n#[cfg(test)]\nmod tests {\n    fn t(x: &AtomicU64) { x.store(9, Ordering::SeqCst); }\n}\n";
        assert_eq!(fp(a), fp(b));
    }

    #[test]
    fn restamp_rewrites_in_place() {
        let dir = std::env::temp_dir().join(format!("ftlint-restamp-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(
            dir.join("src/a.rs"),
            "fn f(x: &AtomicU64) { x.store(1, Ordering::SeqCst); }\n",
        )
        .unwrap();
        let manifest = "[[protocol]]\nname = \"p\"\nloom = []\nfiles = [\"src/a.rs\"]\nnotes = \"n\"\n\n[[protocol]]\nname = \"empty\"\nstamp = \"dead\"\n";
        std::fs::write(dir.join("protocols.toml"), manifest).unwrap();
        let mut config = Config::workspace(&dir);
        config.runtime_dirs = vec![PathBuf::from("src")];
        config.field_dirs = vec![PathBuf::from("src")];
        config.protocols = PathBuf::from("protocols.toml");

        assert_eq!(restamp(&config).unwrap(), 1);
        let rewritten = std::fs::read_to_string(dir.join("protocols.toml")).unwrap();
        let lines: Vec<&str> = rewritten.lines().collect();
        assert_eq!(lines[1], "name = \"p\"");
        assert!(lines[2].starts_with("stamp = \""), "{rewritten}");
        assert!(rewritten.contains("notes = \"n\""), "other keys preserved");
        assert!(
            !rewritten.contains("dead"),
            "a protocol covering no file loses its stamp"
        );
        // Second run: stamp already fresh.
        assert_eq!(restamp(&config).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
