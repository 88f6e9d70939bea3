//! Fixture-based self-tests: each bad fixture must fail with exactly its
//! rule ID at the expected span, each good fixture must pass, and a waiver
//! comment must suppress (while staying reported as a waiver).

use ft_lint::manifest::{restamp_source, Protocols};
use ft_lint::{global_pass, lint_file, FileScan, GlobalInputs, Report, WorkspaceScan};
use std::path::Path;

/// One pass over a fixture file: its per-file findings and the scan the
/// cross-file pass consumes.
fn scan_fixture(name: &str, ordering: bool, hot: bool) -> (Report, FileScan) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let mut report = Report::default();
    let scan = lint_file(name, &src, ordering, hot, &mut report);
    (report, scan)
}

/// The per-file findings of one fixture file.
fn lint_fixture(name: &str, ordering: bool, hot: bool) -> Report {
    scan_fixture(name, ordering, hot).0
}

#[test]
fn bad_l1_missing_safety() {
    let r = lint_fixture("bad/l1_missing_safety.rs", false, false);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L1");
    assert_eq!(v.file, "bad/l1_missing_safety.rs");
    assert_eq!(v.line, 5, "span points at the unsafe block");
    assert!(r.waivers.is_empty());
}

#[test]
fn bad_l2_untagged_ordering() {
    let r = lint_fixture("bad/l2_untagged_ordering.rs", true, false);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L2");
    assert_eq!(v.line, 6, "span points at the untagged store");
    assert!(v.message.contains("Ordering::Release"));
}

#[test]
fn bad_l3_direct_atomic_import() {
    let r = lint_fixture("bad/l3_direct_atomic_import.rs", false, false);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L3");
    assert_eq!(v.line, 3, "span points at the import");
}

#[test]
fn bad_l4_unclaimed_atomics() {
    let name = "bad/l4_unclaimed_atomics.rs";
    let (r, scan) = scan_fixture(name, false, false);
    assert!(r.violations.is_empty(), "coverage is a cross-file rule");
    assert!(scan.uses_atomics);
    let mut ws = WorkspaceScan::default();
    ws.add(name, scan);

    let r = run_global(&ws, "", None, &[]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    let v = &r.violations[0];
    assert_eq!(v.rule, "L4");
    assert_eq!((v.file.as_str(), v.line), (name, 1));
    assert!(v.message.contains("PROTOCOLS.toml"), "{}", v.message);
    // The same file listed under a protocol's `files` is clean.
    let protocols = stamped(&format!("{COUNTER}files = [\"{name}\"]\n"), &ws);
    let r = run_global(&ws, &protocols, Some(COUNTER_ANCHOR), &[]);
    assert!(r.violations.is_empty(), "{}", r.render_human());
}

#[test]
fn bad_l5_unwrap_in_hot_path() {
    let r = lint_fixture("bad/l5_unwrap_in_hot_path.rs", false, true);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L5");
    assert_eq!(v.line, 4, "span points at the unwrap call");
    // Outside the hot-path dirs the same code is fine.
    let r = lint_fixture("bad/l5_unwrap_in_hot_path.rs", false, false);
    assert!(r.violations.is_empty());
}

#[test]
fn good_fixtures_are_clean() {
    for name in [
        "good/l1_safety_comment.rs",
        "good/l2_ord_tags.rs",
        "good/l3_facade_import.rs",
    ] {
        let r = lint_fixture(name, true, true);
        assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
        assert!(r.waivers.is_empty(), "{name}: {:?}", r.waivers);
    }
}

#[test]
fn waiver_suppresses_but_stays_reported() {
    let r = lint_fixture("good/l5_waived_unwrap.rs", false, true);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waivers.len(), 1);
    let w = &r.waivers[0];
    assert_eq!(w.rule, "L5");
    assert_eq!(w.line, 7, "span points at the waived unwrap");
    assert!(w.reason.contains("programming error") || !w.reason.is_empty());
}

#[test]
fn json_report_round_trips_rule_ids() {
    let r = lint_fixture("bad/l1_missing_safety.rs", false, false);
    let json = r.render_json();
    assert!(json.contains("\"rule\": \"L1\""));
    assert!(json.contains("\"file\": \"bad/l1_missing_safety.rs\""));
    assert!(json.contains("\"line\": 5"));
}

// ---------------------------------------------------------------------------
// Cross-file rules (L4, L6–L8)
// ---------------------------------------------------------------------------

/// Run [`global_pass`] over `scan` with a synthetic protocol manifest and
/// algorithm doc; `suites` are the loom suites that exist.
fn run_global(
    scan: &WorkspaceScan,
    protocols: &str,
    algorithm: Option<&str>,
    suites: &[&str],
) -> Report {
    let protocols = Protocols::parse(protocols);
    let exists = |rel: &str| suites.contains(&rel);
    let mut report = Report::default();
    global_pass(
        scan,
        &GlobalInputs {
            protocols: &protocols,
            protocols_rel: "docs/PROTOCOLS.toml",
            algorithm_src: algorithm,
            exists: &exists,
        },
        &mut report,
    );
    report.sort();
    report
}

/// `protocols` with every stamp fresh for `scan`, as `--restamp` writes it.
fn stamped(protocols: &str, scan: &WorkspaceScan) -> String {
    restamp_source(protocols, scan).0
}

/// The head of a `loom = []` fixture protocol; tests append `files` or
/// `fields` lines.
const COUNTER: &str =
    "[[protocol]]\nname = \"counter\"\nanchor = \"counter\"\nloom = []\nnotes = \"fixture\"\n";
const COUNTER_ANCHOR: &str = "## Counter <a id=\"counter\"></a>";

#[test]
fn bad_l6_untagged_fence() {
    let (r, scan) = scan_fixture("bad/l6_untagged_fence.rs", false, false);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L6");
    assert_eq!(v.line, 6, "span points at the fence call");
    assert!(v.message.contains("sc:"), "{}", v.message);
    // An untagged fence is reported locally, not collected for pairing.
    assert!(scan.fences.is_empty());
}

#[test]
fn good_l6_paired_fences_are_clean() {
    let name = "good/l6_paired_fences.rs";
    let (r, scan) = scan_fixture(name, false, false);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(scan.fences.len(), 2);

    let mut ws = WorkspaceScan::default();
    ws.add(name, scan);
    let protocols = format!(
        r#"
[[protocol]]
name = "handshake"
anchor = "handshake"
loom = []
fields = []
files = ["{name}"]
notes = "fixture protocol"
"#
    );
    let r = run_global(
        &ws,
        &stamped(&protocols, &ws),
        Some("## Handshake <a id=\"handshake\"></a>"),
        &[],
    );
    assert!(r.violations.is_empty(), "{}", r.render_human());
}

#[test]
fn bad_l6_unpaired_and_undeclared_protocols() {
    let name = "good/l6_paired_fences.rs";
    let (_, scan) = scan_fixture(name, false, false);
    // Keep only the registrant side: the protocol loses its partner.
    let mut lone = scan.clone();
    lone.fences.truncate(1);
    let mut ws = WorkspaceScan::default();
    ws.add(name, lone);

    let declared = format!(
        r#"
[[protocol]]
name = "handshake"
anchor = "handshake"
loom = []
fields = []
files = ["{name}"]
notes = "fixture protocol"
"#
    );
    let declared = stamped(&declared, &ws);
    let r = run_global(&ws, &declared, Some("<a id=\"handshake\">"), &[]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    assert_eq!(r.violations[0].rule, "L6");
    assert!(r.violations[0].message.contains("unpaired"));

    // Same scan against a manifest that never declares the protocol (nor
    // covers the file, so L4 fires too).
    let mut ws = WorkspaceScan::default();
    ws.add(name, scan);
    let r = run_global(&ws, "", None, &[]);
    assert_eq!(r.violations.len(), 3, "{}", r.render_human());
    assert_eq!(r.violations[0].rule, "L4");
    assert!(r.violations[1..]
        .iter()
        .all(|v| v.rule == "L6" && v.message.contains("not declared")));
}

#[test]
fn bad_l7_unclaimed_field_and_dangling_claim() {
    let name = "bad/l7_unclaimed_field.rs";
    let (r, scan) = scan_fixture(name, false, false);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(scan.fields.len(), 1);
    assert_eq!(
        scan.fields[0].key,
        "bad/l7_unclaimed_field.rs::Gate::in_flight"
    );

    // No protocol claims the field: unclaimed, and so the file is
    // uncovered too.
    let mut ws = WorkspaceScan::default();
    ws.add(name, scan);
    let r = run_global(&ws, "", None, &[]);
    assert_eq!(r.violations.len(), 2, "{}", r.render_human());
    assert_eq!((r.violations[0].rule, r.violations[0].line), ("L4", 1));
    let v = &r.violations[1];
    assert_eq!(v.rule, "L7");
    assert_eq!(v.file, name);
    assert_eq!(v.line, 7, "span points at the field declaration");
    assert!(v.message.contains("not claimed"));

    // A claim for a field nobody declares: dangling.
    let protocols = r#"
[[protocol]]
name = "gate"
anchor = "gate"
loom = []
fields = [
    "bad/l7_unclaimed_field.rs::Gate::in_flight",
    "bad/l7_unclaimed_field.rs::Gate::ghost",
]
notes = "fixture protocol"
"#;
    let protocols = stamped(protocols, &ws);
    let r = run_global(&ws, &protocols, Some("<a id=\"gate\">"), &[]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    let v = &r.violations[0];
    assert_eq!(v.rule, "L7");
    assert_eq!(v.file, "docs/PROTOCOLS.toml");
    assert!(v.message.contains("dangling claim"));
    assert!(v.message.contains("Gate::ghost"));
}

#[test]
fn bad_l7_anchor_loom_and_notes_checks() {
    let ws = WorkspaceScan::default();
    let protocols = r#"
[[protocol]]
name = "ghost"
anchor = "missing-anchor"
loom = ["crates/nowhere/tests/loom_ghost.rs"]
fields = []
notes = "fixture protocol"

[[protocol]]
name = "silent"
anchor = "present"
loom = []
fields = []
"#;
    let r = run_global(&ws, protocols, Some("<a id=\"present\">"), &[]);
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert_eq!(r.violations.len(), 3, "{}", r.render_human());
    assert!(r.violations.iter().all(|v| v.rule == "L7"));
    assert!(msgs.iter().any(|m| m.contains("anchor `missing-anchor`")));
    assert!(msgs.iter().any(|m| m.contains("does not exist")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("no loom suite and no notes")));
}

/// A workspace holding only the L8 fixture, and the `counter` protocol
/// listing it (unstamped).
fn counter_workspace() -> (WorkspaceScan, String) {
    let name = "good/l8_claimed_source.rs";
    let (_, scan) = scan_fixture(name, true, false);
    let mut ws = WorkspaceScan::default();
    ws.add(name, scan);
    (ws, format!("{COUNTER}files = [\"{name}\"]\n"))
}

#[test]
fn l8_fingerprint_freshness() {
    let (ws, unstamped) = counter_workspace();
    let fresh_src = stamped(&unstamped, &ws);
    let (fresh, stamp_line) = Protocols::parse(&fresh_src).protocols[0]
        .stamp
        .clone()
        .expect("restamp wrote a stamp");
    assert_eq!(stamp_line, 3, "the stamp goes right below the name");

    // Fresh stamp: clean.
    let r = run_global(&ws, &fresh_src, Some(COUNTER_ANCHOR), &[]);
    assert!(r.violations.is_empty(), "{}", r.render_human());

    // Stale stamp: flagged, pointing at the stamp line and naming the
    // protocol whose suites must be re-run.
    let stale = fresh_src.replace(&fresh, "0000000000000000");
    let r = run_global(&ws, &stale, Some(COUNTER_ANCHOR), &[]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    let v = &r.violations[0];
    assert_eq!(v.rule, "L8");
    assert_eq!(v.file, "docs/PROTOCOLS.toml");
    assert_eq!(v.line, 3, "span points at the stamp line");
    assert!(v.message.contains("stale stamp for protocol `counter`"));
    assert!(v.message.contains(&fresh));

    // Missing stamp: flagged.
    let r = run_global(&ws, &unstamped, Some(COUNTER_ANCHOR), &[]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    assert_eq!(r.violations[0].rule, "L8");
    assert!(r.violations[0].message.contains("--restamp"));

    // Listed file vanished: flagged.
    let gone = fresh_src.replace("good/l8_claimed_source.rs", "good/gone.rs");
    let r = run_global(&WorkspaceScan::default(), &gone, Some(COUNTER_ANCHOR), &[]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    assert_eq!(r.violations[0].rule, "L8");
    assert!(r.violations[0].message.contains("does not exist"));
}

#[test]
fn bad_l7_missing_suite_next_to_a_live_one() {
    let (ws, _) = counter_workspace();
    let model = "crates/steal/tests/loom_models.rs";
    let protocol = |loom: &str| {
        let src = format!(
            "[[protocol]]\nname = \"counter\"\nanchor = \"counter\"\nloom = [{loom}]\nfiles = [\"good/l8_claimed_source.rs\"]\n"
        );
        stamped(&src, &ws)
    };

    // Every named suite exists: clean.
    let r = run_global(
        &ws,
        &protocol(&format!("\"{model}\"")),
        Some(COUNTER_ANCHOR),
        &[model],
    );
    assert!(r.violations.is_empty(), "{}", r.render_human());

    // A stale suite name next to a live one: flagged, at the protocol.
    let loom = format!("\"{model}\", \"crates/steal/tests/loom_ghost.rs\"");
    let r = run_global(&ws, &protocol(&loom), Some(COUNTER_ANCHOR), &[model]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    let v = &r.violations[0];
    assert_eq!(v.rule, "L7");
    assert_eq!(v.file, "docs/PROTOCOLS.toml");
    assert_eq!(v.line, 1, "span points at the protocol");
    assert!(v.message.contains("loom_ghost.rs"), "{}", v.message);
    assert!(v.message.contains("does not exist"), "{}", v.message);
}

#[test]
fn bad_l9_impure_hot_path() {
    let r = lint_fixture("bad/l9_impure_hot_path.rs", false, false);
    assert_eq!(r.violations.len(), 3, "{:?}", r.violations);
    assert!(r.violations.iter().all(|v| v.rule == "L9"));
    let lines: Vec<usize> = r.violations.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![8, 9, 10], "Mutex type, .lock(), Box::new");
    // The vec! outside the region is not flagged.
    assert!(r.violations.iter().all(|v| v.line != 4));
}

#[test]
fn good_l9_pure_hot_path_with_waiver() {
    let r = lint_fixture("good/l9_pure_hot_path.rs", false, false);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waivers.len(), 1, "{:?}", r.waivers);
    let w = &r.waivers[0];
    assert_eq!(w.rule, "L9");
    assert_eq!(w.line, 13, "span points at the waived .to_vec()");
    assert!(w.reason.contains("diagnostics-only"));
}

#[test]
fn json_output_is_versioned_and_sorted() {
    let mut r = lint_fixture("bad/l9_impure_hot_path.rs", false, false);
    r.sort();
    let json = r.render_json();
    assert!(
        json.trim_start().starts_with("{\n  \"schema_version\": 2,"),
        "schema_version leads the document:\n{json}"
    );
    let lines: Vec<usize> = r.violations.iter().map(|v| v.line).collect();
    let mut sorted = lines.clone();
    sorted.sort_unstable();
    assert_eq!(lines, sorted);
}
