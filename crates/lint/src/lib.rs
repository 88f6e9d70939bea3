//! `ft-lint` — the in-repo concurrency auditor.
//!
//! The scheduler's hot paths are lock-free, so correctness rests on
//! hand-written `unsafe` and carefully chosen atomic orderings. This crate
//! mechanically enforces the discipline those paths depend on, with no
//! external dependencies (the workspace builds offline): a small
//! line-oriented Rust lexer ([`lexer`]), item/region state ([`parser`]),
//! the protocol manifest ([`manifest`]) and a rule engine that makes one
//! pass over each file ([`lint_file`]) and one cross-file pass
//! ([`global_pass`]).
//!
//! The rules — cataloged with rationale and examples in `docs/LINTS.md`:
//!
//! * **L1** — every `unsafe` block/fn/impl in runtime crates must be
//!   immediately preceded by a `// SAFETY:` comment (or carry a
//!   `# Safety` doc section).
//! * **L2** — every non-`SeqCst` `Ordering::*` in `crates/{steal,cmap,
//!   core,det}` must be covered by an `// ord:` justification tag (see
//!   the orderings section of `docs/ALGORITHM.md`).
//! * **L3** — runtime crates import atomics through the cfg(loom)-switched
//!   `ft-sync` facade, never `std::sync::atomic` directly, so loom models
//!   exercise the shipped code paths.
//! * **L4** — any runtime file containing atomics must be covered by a
//!   `[[protocol]]` in `docs/PROTOCOLS.toml`: one of its atomic fields is
//!   claimed there, or the protocol lists it under `files`.
//! * **L5** — no `unwrap()`/`expect()` in `crates/core/src/scheduler/`.
//! * **L6** — every `fence(...)` in runtime crates carries a
//!   `// sc: <protocol>/<side>` tag; tags must name a protocol declared in
//!   `docs/PROTOCOLS.toml` and resolve to a partner side somewhere in the
//!   workspace (fence pairing is machine-checked, not prose).
//! * **L7** — every atomic field declared by a runtime struct must be
//!   claimed by a `[[protocol]]` in `docs/PROTOCOLS.toml`; unclaimed
//!   atomics and dangling claims both fail, and each protocol's
//!   ALGORITHM.md anchor and loom suites must exist.
//! * **L8** — each protocol carries a `stamp` over the protocol lines
//!   (atomics/orderings/fences/unsafe) of every file it covers; editing
//!   those lines without re-stamping via `ft-lint --restamp` fails and
//!   names the protocol whose loom suites must be re-run, killing
//!   silently-stale loom claims.
//! * **L9** — inside `ft-lint: hot-path begin(..)/end(..)` regions,
//!   allocation (`Box::new`, `vec!`, `format!`, `.clone()`, ...),
//!   blocking (`Mutex`, `.lock()`, `sleep`, `println!`) and
//!   `std::sync::atomic` facade bypasses are flagged.
//!
//! Waiver syntax: `// ft-lint: allow(L5) <reason>` on the flagged line or
//! in the comment block immediately above it. The reason is mandatory and
//! waivers are reported (JSON and human output) so they stay auditable.
//! Test modules, integration tests, and benches are exempt from all rules.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod lexer;
pub mod manifest;
pub mod parser;

use lexer::{covering_comments, has_word, lex, test_region_start, Line};
use manifest::Protocols;
use parser::{parse_sc_tag, ScTag};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// JSON report format version, bumped whenever field shapes change.
/// Version 2 added `schema_version` itself, sorted output, and rules
/// L6–L9.
pub const SCHEMA_VERSION: u32 = 2;

/// A rule violation at a file:line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (`L1`..`L9`).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

/// A suppressed finding: same span as a violation plus the stated reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// Rule identifier that was waived.
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based line number of the waived site.
    pub line: usize,
    /// The justification text after `ft-lint: allow(RULE)`.
    pub reason: String,
}

/// Outcome of linting a tree.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Violations; [`run`] sorts them by (file, line, rule).
    pub violations: Vec<Violation>,
    /// Waived findings; [`run`] sorts them by (file, line, rule).
    pub waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// What to lint and where. [`Config::workspace`] is the shipped policy.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; all other paths are relative to it.
    pub root: PathBuf,
    /// Directories whose files are runtime code (every per-file rule,
    /// and L4 coverage).
    pub runtime_dirs: Vec<PathBuf>,
    /// Directories where `unwrap()`/`expect()` are forbidden (L5).
    pub hot_path_dirs: Vec<PathBuf>,
    /// Directories whose struct atomic fields must be claimed in the
    /// protocol manifest (L7). May include facade crates that are not
    /// runtime dirs — only the field scan runs on the extra files.
    pub field_dirs: Vec<PathBuf>,
    /// Protocol manifest consulted by L4 and L6–L8, relative to `root`.
    pub protocols: PathBuf,
    /// Algorithm doc whose `<a id="...">` anchors L7 claims must hit,
    /// relative to `root`.
    pub algorithm: PathBuf,
}

impl Config {
    /// The policy for this workspace: runtime crates `steal`, `cmap`,
    /// `core`, `det`; the scheduler hot path; field claims across the
    /// four concurrency crates; the manifest and algorithm doc under
    /// `docs/`.
    pub fn workspace(root: impl Into<PathBuf>) -> Self {
        let dirs = |ds: &[&str]| ds.iter().map(PathBuf::from).collect();
        Config {
            root: root.into(),
            runtime_dirs: dirs(&[
                "crates/steal/src",
                "crates/cmap/src",
                "crates/core/src",
                "crates/det/src",
            ]),
            hot_path_dirs: dirs(&["crates/core/src/scheduler"]),
            field_dirs: dirs(&[
                "crates/core/src",
                "crates/steal/src",
                "crates/cmap/src",
                "crates/sync/src",
            ]),
            protocols: PathBuf::from("docs/PROTOCOLS.toml"),
            algorithm: PathBuf::from("docs/ALGORITHM.md"),
        }
    }
}

/// A tagged fence site awaiting cross-file pairing (rule L6).
#[derive(Debug, Clone)]
pub struct TaggedFence {
    /// 1-based line of the fence call.
    pub line: usize,
    /// The parsed `sc:` tag.
    pub tag: ScTag,
    /// An `allow(L6)` waiver reason covering the site, if present.
    pub waiver: Option<String>,
}

/// An atomic struct field awaiting a manifest claim (rule L7).
#[derive(Debug, Clone)]
pub struct ScannedField {
    /// Manifest key: `<file>::<Struct>::<field>`.
    pub key: String,
    /// 1-based declaration line.
    pub line: usize,
    /// An `allow(L7)` waiver reason covering the site, if present.
    pub waiver: Option<String>,
}

/// Per-file facts the cross-file pass consumes.
#[derive(Debug, Clone, Default)]
pub struct FileScan {
    /// Tagged fence sites (untagged ones were already reported).
    pub fences: Vec<TaggedFence>,
    /// Atomic struct fields.
    pub fields: Vec<ScannedField>,
    /// Does the file's non-test code use atomics (rule L4)?
    pub uses_atomics: bool,
    /// The file's protocol lines, trimmed, each ending in `\n`: what the
    /// stamps of the protocols covering the file hash (rule L8).
    pub protocol_lines: String,
}

/// Everything collected across the workspace for the cross-file rules.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceScan {
    /// Per-file scans keyed by repo-relative path, in path order.
    pub files: BTreeMap<String, FileScan>,
}

impl WorkspaceScan {
    /// Record one file's scan.
    pub fn add(&mut self, rel: &str, scan: FileScan) {
        self.files.insert(rel.to_string(), scan);
    }
}

/// Cross-file inputs for [`global_pass`], separated from the scan so
/// fixture tests can synthesize them without a workspace on disk.
pub struct GlobalInputs<'a> {
    /// Parsed protocol manifest (L4, L6–L8).
    pub protocols: &'a Protocols,
    /// Path the protocol manifest is reported under.
    pub protocols_rel: &'a str,
    /// `docs/ALGORITHM.md` source, if readable (anchor checks).
    pub algorithm_src: Option<&'a str>,
    /// Does this workspace-relative file exist (loom-suite checks)?
    pub exists: &'a dyn Fn(&str) -> bool,
}

impl std::fmt::Debug for GlobalInputs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalInputs")
            .field("protocols_rel", &self.protocols_rel)
            .finish_non_exhaustive()
    }
}

/// Lint everything named by `config`: one pass over each runtime and
/// field file (`scan_workspace`), then the cross-file pass (L4
/// coverage, L6 pairing, L7 claims, L8 stamps). Output is sorted.
pub fn run(config: &Config) -> std::io::Result<Report> {
    let mut report = Report::default();
    let scan = scan_workspace(config, &mut report)?;
    let read_rel = |rel: &Path| std::fs::read_to_string(config.root.join(rel)).ok();
    let protocols = Protocols::parse(&read_rel(&config.protocols).unwrap_or_default());
    let algorithm_src = read_rel(&config.algorithm);
    let inputs = GlobalInputs {
        protocols: &protocols,
        protocols_rel: &path_str(&config.protocols),
        algorithm_src: algorithm_src.as_deref(),
        exists: &|rel| config.root.join(rel).is_file(),
    };
    global_pass(&scan, &inputs, &mut report);

    report.sort();
    Ok(report)
}

/// The per-file pass over every file under the runtime and field dirs,
/// in path order: runtime files get every per-file rule (findings go to
/// `report`); field-only files (e.g. the ft-sync facade) contribute their
/// struct fields alone, and no rule fires on them.
pub(crate) fn scan_workspace(
    config: &Config,
    report: &mut Report,
) -> std::io::Result<WorkspaceScan> {
    let mut files = Vec::new();
    for dir in config.runtime_dirs.iter().chain(&config.field_dirs) {
        collect_rs_files(&config.root.join(dir), &mut files)?;
    }
    files.sort();
    files.dedup();

    let mut scan = WorkspaceScan::default();
    for path in &files {
        let rel = relative_to(path, &config.root);
        let src = std::fs::read_to_string(path)?;
        let mut file_scan = if dir_match(&rel, &config.runtime_dirs) {
            let hot = dir_match(&rel, &config.hot_path_dirs);
            lint_file(&rel, &src, true, hot, report)
        } else {
            FileScan {
                fields: lint_file(&rel, &src, false, false, &mut Report::default()).fields,
                ..FileScan::default()
            }
        };
        if !dir_match(&rel, &config.field_dirs) {
            // Fields outside the field dirs are not claimable.
            file_scan.fields.clear();
        }
        scan.add(&rel, file_scan);
        report.files_scanned += 1;
    }
    Ok(scan)
}

/// Allocation / blocking / facade-bypass tokens barred inside hot-path
/// regions (rule L9), matched as substrings of the code text.
const L9_SUBSTRINGS: &[&str] = &[
    "Box::new",
    "vec!",
    "format!",
    "String::from",
    ".to_vec()",
    ".to_string()",
    ".to_owned()",
    ".clone()",
    ".lock()",
    "println!",
    "eprintln!",
    "std::sync::atomic",
    "core::sync::atomic",
];

/// L9 tokens matched at identifier boundaries (so e.g. `sleeping_workers`
/// does not trip `sleep`).
const L9_WORDS: &[&str] = &["Mutex", "RwLock", "Condvar", "sleep"];

/// One pass over one file's non-test lines: the per-file rules (L1–L3,
/// L5, L9, and the tag-presence half of L6) report into `report`, and
/// the returned [`FileScan`] carries what the cross-file pass
/// ([`global_pass`]) needs — tagged fences, atomic fields, whether the
/// file uses atomics, and its protocol lines. `rel` is the path reported
/// in spans.
pub fn lint_file(
    rel: &str,
    src: &str,
    in_ordering_dir: bool,
    in_hot_path_dir: bool,
    report: &mut Report,
) -> FileScan {
    let lines = lex(src);
    let code = &lines[..test_region_start(&lines).unwrap_or(lines.len())];
    let mut items = parser::ItemState::default();
    let mut scan = FileScan::default();
    let mut ord_covered = false;
    for (idx, line) in code.iter().enumerate() {
        if manifest::is_protocol_line(line) {
            scan.protocol_lines.push_str(line.code.trim());
            scan.protocol_lines.push('\n');
        }
        if line.comment.contains("ord:") {
            ord_covered = true;
        }

        // L9: a malformed hot-path marker silently un-guards the code it
        // was meant to cover, so it is a violation itself.
        if let Some(message) = items.marker(idx + 1, &line.comment) {
            let message = format!("hot-path marker error: {message}");
            emit(report, code, idx, "L9", rel, message);
        }

        // L3: direct atomic imports bypass the loom-switched facade.
        if line.code.contains("std::sync::atomic") || line.code.contains("core::sync::atomic") {
            scan.uses_atomics = true;
            emit(
                report,
                code,
                idx,
                "L3",
                rel,
                format!(
                    "direct atomic import bypasses the ft-sync facade \
                     (use `ft_sync::atomic`, which switches to loom under \
                     `--cfg loom`): `{}`",
                    line.code.trim()
                ),
            );
        }
        if line.code.contains("ft_sync::atomic") {
            scan.uses_atomics = true;
        }

        // L1: unsafe must be justified by an adjacent SAFETY comment (a
        // `# Safety` doc section counts only above the item).
        if has_word(&line.code, "unsafe")
            && !covering_comments(code, idx)
                .enumerate()
                .any(|(k, c)| c.contains("SAFETY:") || (k > 0 && c.contains("# Safety")))
        {
            emit(
                report,
                code,
                idx,
                "L1",
                rel,
                format!(
                    "`unsafe` without an immediately preceding \
                     `// SAFETY:` comment stating the invariant: `{}`",
                    line.code.trim()
                ),
            );
        }

        // L2: non-SeqCst orderings need an `// ord:` justification tag
        // covering the contiguous run of atomic accesses.
        let orderings = ordering_tokens(&line.code);
        if !orderings.is_empty() {
            let weak: Vec<&str> = orderings
                .iter()
                .copied()
                .filter(|o| *o != "SeqCst")
                .collect();
            if in_ordering_dir && !weak.is_empty() && !ord_covered {
                emit(
                    report,
                    code,
                    idx,
                    "L2",
                    rel,
                    format!(
                        "non-SeqCst ordering without an `// ord:` \
                         justification tag (see docs/ALGORITHM.md \
                         \"Ordering discipline\"): Ordering::{}",
                        weak.join(", Ordering::")
                    ),
                );
            }
        } else {
            // A statement-ending code line with no atomic access closes
            // the run an `// ord:` tag covers; mid-statement continuation
            // lines (method chains) keep it open.
            let t = line.code.trim_end();
            if !t.trim().is_empty() && (t.ends_with(';') || t.ends_with('{') || t.ends_with('}')) {
                ord_covered = false;
            }
        }

        // L5: scheduler hot paths must propagate errors, not abort.
        if in_hot_path_dir && (line.code.contains(".unwrap()") || line.code.contains(".expect(")) {
            emit(
                report,
                code,
                idx,
                "L5",
                rel,
                format!(
                    "`unwrap()`/`expect()` in a scheduler hot path: `{}`",
                    line.code.trim()
                ),
            );
        }

        // L9: hot-path regions must stay pure — no allocation, blocking,
        // or facade bypasses between the markers.
        if let Some(region) = items.hot_region(idx + 1) {
            let mut hits: Vec<&str> = L9_SUBSTRINGS
                .iter()
                .copied()
                .filter(|t| line.code.contains(t))
                .collect();
            hits.extend(L9_WORDS.iter().copied().filter(|t| has_word(&line.code, t)));
            if !hits.is_empty() {
                let message = format!(
                    "impurity in hot-path region `{region}`: {} — allocation \
                     and blocking are barred between hot-path markers: `{}`",
                    hits.join(", "),
                    line.code.trim()
                );
                emit(report, code, idx, "L9", rel, message);
            }
        }

        // L6 (local half): every fence carries an `sc:` tag. Tagged sites
        // are returned for cross-file pairing.
        if has_word(&line.code, "fence") && line.code.contains("fence(") {
            match covering_comments(code, idx).find_map(parse_sc_tag) {
                None => emit(
                    report,
                    code,
                    idx,
                    "L6",
                    rel,
                    format!(
                        "`fence(...)` without a `// sc: <protocol>/<side>` \
                         pairing tag (same line or comment block above): `{}`",
                        line.code.trim()
                    ),
                ),
                Some(tag) => scan.fences.push(TaggedFence {
                    line: idx + 1,
                    tag,
                    waiver: waiver_reason(code, idx, "L6"),
                }),
            }
        }

        // Atomic fields feed the L7 claim check in the cross-file pass.
        if let Some(field) = items.field(&line.code) {
            scan.fields.push(ScannedField {
                key: format!("{rel}::{field}"),
                line: idx + 1,
                waiver: waiver_reason(code, idx, "L7"),
            });
        }
    }
    if let Some((begin, message)) = items.unclosed() {
        let message = format!("hot-path marker error: {message}");
        emit(report, code, begin - 1, "L9", rel, message);
    }
    scan
}

/// The cross-file rules: L4 coverage, L6 fence pairing, L7 manifest
/// claims, L8 stamp freshness. Pure over the scan + inputs so tests can
/// drive it without a workspace.
pub fn global_pass(scan: &WorkspaceScan, inputs: &GlobalInputs<'_>, report: &mut Report) {
    let protocols = &inputs.protocols.protocols;
    let manifest = inputs.protocols_rel;

    // --- L4: coverage ----------------------------------------------------
    let covered: BTreeSet<&str> = protocols.iter().flat_map(|p| p.covered_files()).collect();
    for (file, file_scan) in &scan.files {
        if file_scan.uses_atomics && !covered.contains(file.as_str()) {
            let message = format!(
                "file uses atomics but no [[protocol]] in {manifest} covers \
                 it — claim its atomic fields there, or list it under the \
                 `files` of each protocol it takes part in"
            );
            finding(report, "L4", file, 1, message, None);
        }
    }

    // --- L6: pairing -----------------------------------------------------
    // Sides per protocol across the whole workspace; pairing means the
    // protocol has at least two distinct sides (Dekker-style fences come
    // in registrant/drainer, writer/reader, ... pairs or better).
    let fences = || {
        scan.files
            .iter()
            .flat_map(|(file, s)| s.fences.iter().map(move |f| (file, f)))
    };
    let mut sides: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (_, fence) in fences() {
        sides
            .entry(fence.tag.protocol.as_str())
            .or_default()
            .insert(fence.tag.side.as_str());
    }
    for (file, fence) in fences() {
        let tag = &fence.tag;
        let problem = if inputs.protocols.by_name(&tag.protocol).is_none() {
            Some(format!(
                "fence tag `sc: {}/{}` names a protocol not declared in \
                 {manifest} — add a [[protocol]] entry",
                tag.protocol, tag.side
            ))
        } else if sides[tag.protocol.as_str()].len() < 2 {
            Some(format!(
                "unpaired fence: `sc: {}/{}` is the only side of protocol \
                 `{}` in the workspace — a fence needs a partner side to \
                 order against",
                tag.protocol, tag.side, tag.protocol
            ))
        } else {
            None
        };
        if let Some(message) = problem {
            finding(
                report,
                "L6",
                file,
                fence.line,
                message,
                fence.waiver.as_ref(),
            );
        }
    }

    // --- L7: claims ------------------------------------------------------
    let fields = || {
        scan.files
            .iter()
            .flat_map(|(file, s)| s.fields.iter().map(move |f| (file, f)))
    };
    for (file, field) in fields() {
        if inputs.protocols.claimant(&field.key).is_none() {
            finding(
                report,
                "L7",
                file,
                field.line,
                format!(
                    "atomic field `{}` is not claimed by any [[protocol]] \
                     in {manifest} — map it to a protocol, ALGORITHM.md \
                     anchor and loom suite",
                    field.key
                ),
                field.waiver.as_ref(),
            );
        }
    }
    let declared: BTreeSet<&str> = fields().map(|(_, f)| f.key.as_str()).collect();
    for protocol in protocols {
        let mut manifest_finding =
            |line, message| finding(report, "L7", manifest, line, message, None);
        if protocol.name.is_empty() {
            manifest_finding(protocol.line, "[[protocol]] without a name".to_string());
            continue;
        }
        let name = &protocol.name;
        for (key, line) in &protocol.fields {
            if !declared.contains(key.as_str()) {
                manifest_finding(
                    *line,
                    format!(
                        "dangling claim: protocol `{name}` claims `{key}` but \
                         no scanned runtime struct declares it"
                    ),
                );
            }
        }
        let anchor = &protocol.anchor;
        let anchor_problem = match inputs.algorithm_src {
            _ if anchor.is_empty() => Some(format!("protocol `{name}` has no ALGORITHM.md anchor")),
            None => Some(format!(
                "protocol `{name}`: ALGORITHM.md is unreadable, anchor \
                 `{anchor}` cannot be verified"
            )),
            Some(doc) if !doc.contains(&format!("<a id=\"{anchor}\"")) => Some(format!(
                "protocol `{name}`: anchor `{anchor}` not found in \
                 ALGORITHM.md (expected `<a id=\"{anchor}\">` at the \
                 section heading)"
            )),
            Some(_) => None,
        };
        if let Some(message) = anchor_problem {
            manifest_finding(protocol.line, message);
        }
        for suite in &protocol.loom {
            if !(inputs.exists)(suite) {
                manifest_finding(
                    protocol.line,
                    format!("protocol `{name}`: loom suite `{suite}` does not exist"),
                );
            }
        }
        if protocol.loom.is_empty() && protocol.notes.is_empty() {
            manifest_finding(
                protocol.line,
                format!("protocol `{name}` has no loom suite and no notes justifying its absence"),
            );
        }

        // --- L8: stamps ---------------------------------------------------
        let mut stamp_finding =
            |line, message| finding(report, "L8", manifest, line, message, None);
        let unscanned: Vec<&(String, usize)> = protocol
            .files
            .iter()
            .filter(|(f, _)| !scan.files.contains_key(f))
            .collect();
        for (file, line) in &unscanned {
            stamp_finding(
                *line,
                format!(
                    "protocol `{name}` lists `{file}`, which does not exist \
                     under the runtime or field dirs; its stamp cannot be \
                     checked"
                ),
            );
        }
        let files = protocol.covered_files();
        if !unscanned.is_empty() || files.is_empty() {
            continue; // nothing to stamp, or a stamp that cannot be fresh
        }
        let suites = if protocol.loom.is_empty() {
            "none; re-check its notes".to_string()
        } else {
            protocol.loom.join(", ")
        };
        let fresh = manifest::stamp(scan, files.iter().copied());
        match &protocol.stamp {
            None => stamp_finding(
                protocol.line,
                format!(
                    "protocol `{name}` has no stamp — run `cargo run -p \
                     ft-lint -- --restamp` after verifying its loom suites \
                     ({suites}) still cover its files"
                ),
            ),
            Some((old, line)) if *old != fresh => stamp_finding(
                *line,
                format!(
                    "stale stamp for protocol `{name}` (stamped {old}, now \
                     {fresh}): protocol lines in {} changed — re-run its \
                     loom suites ({suites}), then `cargo run -p ft-lint -- \
                     --restamp`",
                    files.into_iter().collect::<Vec<_>>().join(", ")
                ),
            ),
            Some(_) => {}
        }
    }
}

/// Record a cross-file finding, downgrading to a waiver when the scanned
/// site carried one.
fn finding(
    report: &mut Report,
    rule: &'static str,
    file: &str,
    line: usize,
    message: String,
    waiver: Option<&String>,
) {
    match waiver {
        Some(reason) => report.waivers.push(Waiver {
            rule,
            file: file.to_string(),
            line,
            reason: reason.clone(),
        }),
        None => report.violations.push(Violation {
            rule,
            file: file.to_string(),
            line,
            message,
        }),
    }
}

/// Record a finding, downgrading it to a waiver when one applies.
fn emit(
    report: &mut Report,
    lines: &[Line],
    idx: usize,
    rule: &'static str,
    rel: &str,
    message: String,
) {
    if let Some(reason) = waiver_reason(lines, idx, rule) {
        report.waivers.push(Waiver {
            rule,
            file: rel.to_string(),
            line: idx + 1,
            reason,
        });
    } else {
        report.violations.push(Violation {
            rule,
            file: rel.to_string(),
            line: idx + 1,
            message,
        });
    }
}

/// The waiver reason for `rule` at line `idx`, if a well-formed
/// `ft-lint: allow(RULE) <reason>` comment covers it (same line or in the
/// comment block immediately above). A waiver without a reason is invalid
/// and does not suppress.
fn waiver_reason(lines: &[Line], idx: usize, rule: &str) -> Option<String> {
    let needle = format!("ft-lint: allow({rule})");
    covering_comments(lines, idx).find_map(|comment| {
        let at = comment.find(&needle)?;
        let reason = comment[at + needle.len()..].trim();
        (!reason.is_empty()).then(|| reason.to_string())
    })
}

/// All `Ordering::<Ident>` tokens on a code line.
fn ordering_tokens(code: &str) -> Vec<&str> {
    const KEY: &str = "Ordering::";
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find(KEY) {
        let at = start + pos + KEY.len();
        let end = code[at..]
            .char_indices()
            .find(|(_, c)| !c.is_alphanumeric() && *c != '_')
            .map(|(k, _)| at + k)
            .unwrap_or(code.len());
        if end > at {
            out.push(&code[at..end]);
        }
        start = end.max(at);
    }
    out
}

/// Recursively collect `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated (stable across platforms so
/// manifest entries and JSON output never contain backslashes).
fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// A relative `PathBuf` as a `/`-separated string.
fn path_str(path: &Path) -> String {
    path.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Is `rel` (a `/`-separated relative path) under any of `dirs`?
fn dir_match(rel: &str, dirs: &[PathBuf]) -> bool {
    dirs.iter().any(|d| {
        let d = path_str(d);
        rel == d || rel.starts_with(&format!("{d}/"))
    })
}

impl Report {
    /// Deterministic order: (file, line, rule) for violations and waivers
    /// alike. [`run`] calls this; CI artifact diffs stay stable.
    pub fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.waivers
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Human-readable diagnostics, one finding per line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let _ = writeln!(out, "{}:{}: {} {}", v.file, v.line, v.rule, v.message);
        }
        for w in &self.waivers {
            let _ = writeln!(
                out,
                "{}:{}: {} waived: {}",
                w.file, w.line, w.rule, w.reason
            );
        }
        let _ = writeln!(
            out,
            "ft-lint: {} file(s) scanned, {} violation(s), {} waiver(s)",
            self.files_scanned,
            self.violations.len(),
            self.waivers.len()
        );
        out
    }

    /// Machine-readable JSON (hand-rolled; no dependencies).
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = format!("{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                v.rule,
                esc(&v.file),
                v.line,
                esc(&v.message)
            );
        }
        out.push_str("\n  ],\n  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                if i == 0 { "" } else { "," },
                w.rule,
                esc(&w.file),
                w.line,
                esc(&w.reason)
            );
        }
        let _ = write!(
            out,
            "\n  ],\n  \"files_scanned\": {}\n}}\n",
            self.files_scanned
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(src: &str, ordering: bool, hot: bool) -> Report {
        let mut r = Report::default();
        lint_file("test.rs", src, ordering, hot, &mut r);
        r
    }

    #[test]
    fn l1_flags_bare_unsafe_and_accepts_safety() {
        let r = lint_str("fn f() { unsafe { g() } }\n", false, false);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "L1");

        let ok = "// SAFETY: g is sound here because reasons.\nfn f() { unsafe { g() } }\n";
        assert!(lint_str(ok, false, false).violations.is_empty());
    }

    #[test]
    fn l1_accepts_doc_safety_section_through_attrs() {
        let src = "/// Does a thing.\n///\n/// # Safety\n/// Caller upholds X.\n#[inline]\npub unsafe fn f() {}\n";
        assert!(lint_str(src, false, false).violations.is_empty());
    }

    #[test]
    fn l2_requires_and_honors_ord_tags() {
        let bad = "fn f(a: &A) { a.x.store(1, Ordering::Release); }\n";
        let r = lint_str(bad, true, false);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "L2");

        let ok = "fn f(a: &A) {\n    // ord: Release — publishes x to the reader's Acquire.\n    a.x.store(1, Ordering::Release);\n}\n";
        assert!(lint_str(ok, true, false).violations.is_empty());

        // SeqCst needs no tag; outside ordering dirs nothing is checked.
        assert!(lint_str(
            "fn f(a: &A) { a.x.store(1, Ordering::SeqCst); }",
            true,
            false
        )
        .violations
        .is_empty());
        assert!(lint_str(bad, false, false).violations.is_empty());
    }

    #[test]
    fn l2_tag_covers_contiguous_run_but_not_past_plain_statements() {
        let src = "fn f(a: &A) {\n    // ord: Acquire/Relaxed — cluster justified.\n    let x = a.x.load(Ordering::Acquire);\n    let y = a.y.load(Ordering::Relaxed);\n    let z = x + y;\n    a.x.store(z, Ordering::Release);\n}\n";
        let r = lint_str(src, true, false);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].line, 6);
    }

    #[test]
    fn l2_multiline_chain_stays_covered() {
        let src = "fn f(a: &A) {\n    // ord: AcqRel success / Relaxed failure — CAS publishes.\n    let won = a\n        .x\n        .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)\n        .is_ok();\n}\n";
        assert!(lint_str(src, true, false).violations.is_empty());
    }

    #[test]
    fn l3_flags_direct_import_and_facade_passes() {
        let mut r = Report::default();
        let scan = lint_file(
            "test.rs",
            "use std::sync::atomic::AtomicUsize;\n",
            false,
            false,
            &mut r,
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "L3");
        assert!(scan.uses_atomics, "L4 still sees the atomics");

        let mut r = Report::default();
        let scan = lint_file(
            "test.rs",
            "use ft_sync::atomic::AtomicUsize;\n",
            false,
            false,
            &mut r,
        );
        assert!(r.violations.is_empty());
        assert!(scan.uses_atomics);
    }

    #[test]
    fn l5_flags_unwrap_and_waiver_suppresses_with_reason() {
        let r = lint_str("fn f() { x().unwrap(); }\n", false, true);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "L5");

        let waived =
            "// ft-lint: allow(L5) unreachable: x is checked above.\nfn f() { x().unwrap(); }\n";
        let r = lint_str(waived, false, true);
        assert!(r.violations.is_empty());
        assert_eq!(r.waivers.len(), 1);
        assert_eq!(r.waivers[0].rule, "L5");

        // A reason-less waiver does not suppress.
        let bad = "// ft-lint: allow(L5)\nfn f() { x().unwrap(); }\n";
        assert_eq!(lint_str(bad, false, true).violations.len(), 1);
    }

    #[test]
    fn l6_untagged_fence_flagged_and_tagged_collected() {
        let bad = "fn f() { fence(Ordering::SeqCst); }\n";
        let r = lint_str(bad, false, false);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "L6");

        let mut r = Report::default();
        let scan = lint_file(
            "test.rs",
            "fn f() {\n    // sc: notify/registrant — pairs with the drainer.\n    fence(Ordering::SeqCst);\n}\n",
            false,
            false,
            &mut r,
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(scan.fences.len(), 1);
        assert_eq!(scan.fences[0].tag.protocol, "notify");
        assert_eq!(scan.fences[0].line, 3);
    }

    #[test]
    fn l9_flags_impurity_only_inside_regions() {
        let src = "fn cold() { let v = vec![1]; }\n// ft-lint: hot-path begin(demo)\nfn hot() {\n    let b = Box::new(1);\n    let g = m.lock();\n}\n// ft-lint: hot-path end(demo)\nfn cold2() { let s = format!(\"x\"); }\n";
        let r = lint_str(src, false, false);
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
        assert!(r.violations.iter().all(|v| v.rule == "L9"));
        assert_eq!(r.violations[0].line, 4, "Box::new inside the region");
        assert_eq!(r.violations[1].line, 5, ".lock() inside the region");
        assert!(r.violations[0].message.contains("demo"));
    }

    #[test]
    fn l9_word_tokens_respect_identifier_boundaries() {
        let src = "// ft-lint: hot-path begin(r)\nfn hot() {\n    let sleeping_workers = 3;\n    wake(sleeping_workers);\n}\n// ft-lint: hot-path end(r)\n";
        assert!(lint_str(src, false, false).violations.is_empty());
        let bad = "// ft-lint: hot-path begin(r)\nfn hot() {\n    thread::sleep(d);\n}\n// ft-lint: hot-path end(r)\n";
        let r = lint_str(bad, false, false);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].rule, "L9");
    }

    #[test]
    fn l9_marker_errors_are_violations() {
        let src = "// ft-lint: hot-path begin(a)\nfn f() {}\n";
        let r = lint_str(src, false, false);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, "L9");
        assert!(r.violations[0].message.contains("never closed"));
    }

    #[test]
    fn l9_waiver_suppresses_a_hot_path_hit() {
        let src = "// ft-lint: hot-path begin(r)\nfn hot() {\n    // ft-lint: allow(L9) recovery path only; measured cold.\n    let b = Box::new(1);\n}\n// ft-lint: hot-path end(r)\n";
        let r = lint_str(src, false, false);
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.waivers.len(), 1);
        assert_eq!(r.waivers[0].rule, "L9");
    }

    #[test]
    fn global_pass_pairs_fences_and_checks_claims() {
        // The stamp is FNV-1a's offset basis: a.rs has no protocol lines.
        let protocols = Protocols::parse(
            "[[protocol]]\nname = \"notify\"\nstamp = \"cbf29ce484222325\"\nanchor = \"notify-gate\"\nloom = [\"tests/loom_notify.rs\"]\nfields = [\"a.rs::S::flag\"]\nnotes = \"n\"\n",
        );
        let algorithm = "## Gate <a id=\"notify-gate\"></a>\n";
        let exists = |path: &str| path == "tests/loom_notify.rs";
        let inputs = GlobalInputs {
            protocols: &protocols,
            protocols_rel: "PROTOCOLS.toml",
            algorithm_src: Some(algorithm),
            exists: &exists,
        };

        // Paired fences + claimed field: clean.
        let mut scan = WorkspaceScan::default();
        scan.add(
            "a.rs",
            FileScan {
                fences: vec![
                    TaggedFence {
                        line: 3,
                        tag: ScTag {
                            protocol: "notify".into(),
                            side: "registrant".into(),
                        },
                        waiver: None,
                    },
                    TaggedFence {
                        line: 9,
                        tag: ScTag {
                            protocol: "notify".into(),
                            side: "drainer".into(),
                        },
                        waiver: None,
                    },
                ],
                fields: vec![ScannedField {
                    key: "a.rs::S::flag".into(),
                    line: 1,
                    waiver: None,
                }],
                ..FileScan::default()
            },
        );
        let mut r = Report::default();
        global_pass(&scan, &inputs, &mut r);
        assert!(r.violations.is_empty(), "{:?}", r.violations);

        // Lone side: unpaired. Unknown protocol: undeclared. Unclaimed
        // field and dangling claim both fire.
        let mut scan = WorkspaceScan::default();
        scan.add(
            "b.rs",
            FileScan {
                fences: vec![
                    TaggedFence {
                        line: 1,
                        tag: ScTag {
                            protocol: "notify".into(),
                            side: "registrant".into(),
                        },
                        waiver: None,
                    },
                    TaggedFence {
                        line: 2,
                        tag: ScTag {
                            protocol: "ghost".into(),
                            side: "x".into(),
                        },
                        waiver: None,
                    },
                ],
                fields: vec![ScannedField {
                    key: "b.rs::T::seq".into(),
                    line: 5,
                    waiver: None,
                }],
                ..FileScan::default()
            },
        );
        let mut r = Report::default();
        global_pass(&scan, &inputs, &mut r);
        let rules: Vec<(&str, usize)> = r.violations.iter().map(|v| (v.rule, v.line)).collect();
        assert!(
            rules.contains(&("L6", 1)) && rules.contains(&("L6", 2)),
            "unpaired + undeclared: {:?}",
            r.violations
        );
        assert!(
            rules.contains(&("L7", 5)),
            "unclaimed field: {:?}",
            r.violations
        );
        assert!(
            r.violations
                .iter()
                .any(|v| v.rule == "L7" && v.message.contains("dangling")),
            "dangling claim: {:?}",
            r.violations
        );
    }

    #[test]
    fn global_pass_checks_anchor_loom_and_freshness() {
        let atomics = |lines: &str| FileScan {
            uses_atomics: true,
            protocol_lines: lines.to_string(),
            ..FileScan::default()
        };
        let mut scan = WorkspaceScan::default();
        scan.add("x.rs", atomics("a.store(1, Ordering::SeqCst);\n"));
        scan.add("y.rs", atomics("a.store(2, Ordering::SeqCst);\n"));
        scan.add("z.rs", atomics("a.store(3, Ordering::SeqCst);\n"));
        let protocols = Protocols::parse(
            "[[protocol]]\nname = \"p\"\nanchor = \"absent\"\nloom = [\"nope.rs\"]\nfields = []\nfiles = [\"x.rs\"]\nnotes = \"\"\n\n[[protocol]]\nname = \"q\"\nstamp = \"dead\"\nanchor = \"absent\"\nloom = []\nfiles = [\"y.rs\", \"gone.rs\"]\nnotes = \"n\"\n\n[[protocol]]\nname = \"r\"\nstamp = \"dead\"\nanchor = \"absent\"\nloom = []\nfiles = [\"y.rs\"]\nnotes = \"n\"\n",
        );
        let inputs = GlobalInputs {
            protocols: &protocols,
            protocols_rel: "PROTOCOLS.toml",
            algorithm_src: Some("# no anchors here"),
            exists: &|_| false,
        };
        let mut r = Report::default();
        global_pass(&scan, &inputs, &mut r);
        let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("anchor `absent` not found")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("loom suite `nope.rs`")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("protocol `p` has no stamp")),
            "unstamped protocol: {msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("`gone.rs`, which does not exist")),
            "listed file missing: {msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("stale stamp for protocol `r`")),
            "stale protocol: {msgs:?}"
        );
        let l4: Vec<&str> = r
            .violations
            .iter()
            .filter(|v| v.rule == "L4")
            .map(|v| v.file.as_str())
            .collect();
        assert_eq!(l4, vec!["z.rs"], "x.rs and y.rs are covered");
        assert_eq!(
            r.violations.iter().filter(|v| v.rule == "L8").count(),
            3,
            "q's stale stamp goes unchecked while gone.rs is missing: {msgs:?}"
        );
    }

    #[test]
    fn rules_skip_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicUsize;\n    fn g() { unsafe { h() } }\n}\n";
        assert!(lint_str(src, true, true).violations.is_empty());
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = "fn f() { let s = \"unsafe Ordering::Relaxed\"; } // unsafe\n";
        assert!(lint_str(src, true, false).violations.is_empty());
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut r = Report::default();
        lint_file(
            "a.rs",
            "fn f() { unsafe { g(\"q\\\"\") } }\n",
            false,
            false,
            &mut r,
        );
        let json = r.render_json();
        assert!(json.contains("\"schema_version\": 2"));
        assert!(json.contains("\"rule\": \"L1\""));
        assert!(json.contains("\"files_scanned\": 0"));
    }

    #[test]
    fn report_sort_orders_by_file_line_rule() {
        let mut r = Report::default();
        for (rule, file, line) in [("L5", "b.rs", 2), ("L1", "a.rs", 9), ("L2", "a.rs", 9)] {
            r.violations.push(Violation {
                rule,
                file: file.into(),
                line,
                message: String::new(),
            });
        }
        r.sort();
        let order: Vec<(&str, usize, &str)> = r
            .violations
            .iter()
            .map(|v| (v.file.as_str(), v.line, v.rule))
            .collect();
        assert_eq!(
            order,
            vec![("a.rs", 9, "L1"), ("a.rs", 9, "L2"), ("b.rs", 2, "L5")]
        );
    }
}
