//! Fixture-based self-tests: each bad fixture must fail with exactly its
//! rule ID at the expected span, each good fixture must pass, and a waiver
//! comment must suppress (while staying reported as a waiver).

use ft_lint::{lint_file, Report};
use std::path::Path;

/// Lint one fixture file. `claimed` controls whether the fixture is listed
/// in the (synthetic) loom-coverage manifest, so L4 only fires when a test
/// wants it to.
fn lint_fixture(name: &str, ordering: bool, hot: bool, claimed: bool) -> Report {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let manifest = if claimed {
        vec![name.to_string()]
    } else {
        Vec::new()
    };
    let mut report = Report::default();
    lint_file(name, &src, ordering, hot, &manifest, &mut report);
    report
}

#[test]
fn bad_l1_missing_safety() {
    let r = lint_fixture("bad/l1_missing_safety.rs", false, false, true);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L1");
    assert_eq!(v.file, "bad/l1_missing_safety.rs");
    assert_eq!(v.line, 5, "span points at the unsafe block");
    assert!(r.waivers.is_empty());
}

#[test]
fn bad_l2_untagged_ordering() {
    let r = lint_fixture("bad/l2_untagged_ordering.rs", true, false, true);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L2");
    assert_eq!(v.line, 6, "span points at the untagged store");
    assert!(v.message.contains("Ordering::Release"));
}

#[test]
fn bad_l3_direct_atomic_import() {
    let r = lint_fixture("bad/l3_direct_atomic_import.rs", false, false, true);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L3");
    assert_eq!(v.line, 3, "span points at the import");
}

#[test]
fn bad_l4_unclaimed_atomics() {
    let r = lint_fixture("bad/l4_unclaimed_atomics.rs", false, false, false);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L4");
    assert!(v.message.contains("LOOM_COVERAGE"));
    // The same file claimed in the manifest is clean.
    let r = lint_fixture("bad/l4_unclaimed_atomics.rs", false, false, true);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
}

#[test]
fn bad_l5_unwrap_in_hot_path() {
    let r = lint_fixture("bad/l5_unwrap_in_hot_path.rs", false, true, true);
    assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    let v = &r.violations[0];
    assert_eq!(v.rule, "L5");
    assert_eq!(v.line, 4, "span points at the unwrap call");
    // Outside the hot-path dirs the same code is fine.
    let r = lint_fixture("bad/l5_unwrap_in_hot_path.rs", false, false, true);
    assert!(r.violations.is_empty());
}

#[test]
fn good_fixtures_are_clean() {
    for name in [
        "good/l1_safety_comment.rs",
        "good/l2_ord_tags.rs",
        "good/l3_facade_import.rs",
    ] {
        let r = lint_fixture(name, true, true, true);
        assert!(r.violations.is_empty(), "{name}: {:?}", r.violations);
        assert!(r.waivers.is_empty(), "{name}: {:?}", r.waivers);
    }
}

#[test]
fn waiver_suppresses_but_stays_reported() {
    let r = lint_fixture("good/l5_waived_unwrap.rs", false, true, true);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waivers.len(), 1);
    let w = &r.waivers[0];
    assert_eq!(w.rule, "L5");
    assert_eq!(w.line, 7, "span points at the waived unwrap");
    assert!(w.reason.contains("programming error") || !w.reason.is_empty());
}

#[test]
fn json_report_round_trips_rule_ids() {
    let r = lint_fixture("bad/l1_missing_safety.rs", false, false, true);
    let json = r.render_json();
    assert!(json.contains("\"rule\": \"L1\""));
    assert!(json.contains("\"file\": \"bad/l1_missing_safety.rs\""));
    assert!(json.contains("\"line\": 5"));
}

// ---------------------------------------------------------------------------
// PR 10: protocol-aware rules (L6–L9)
// ---------------------------------------------------------------------------

use ft_lint::manifest::{protocol_fingerprint, LoomManifest, Protocols};
use ft_lint::{global_pass, FileScan, GlobalInputs, WorkspaceScan};

/// Like [`lint_fixture`] but also returns the cross-file scan, for tests
/// that drive [`global_pass`] over synthetic manifests.
fn scan_fixture(name: &str, ordering: bool, hot: bool) -> (Report, FileScan) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    let manifest = vec![name.to_string()];
    let mut report = Report::default();
    let scan = ft_lint::lint_file(name, &src, ordering, hot, &manifest, &mut report);
    (report, scan)
}

/// Synthesize [`GlobalInputs`] from manifest/doc strings and a read map.
fn run_global(
    scan: &WorkspaceScan,
    protocols: &str,
    loom: &str,
    algorithm: Option<&str>,
    files: &[(&str, &str)],
) -> Report {
    let protocols = Protocols::parse(protocols);
    let loom = LoomManifest::parse(loom);
    let files: Vec<(String, String)> = files
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let read = move |rel: &str| -> Option<String> {
        files.iter().find(|(k, _)| k == rel).map(|(_, v)| v.clone())
    };
    let mut report = Report::default();
    global_pass(
        scan,
        &GlobalInputs {
            protocols: &protocols,
            protocols_rel: "docs/PROTOCOLS.toml",
            loom: &loom,
            loom_rel: "docs/LOOM_COVERAGE.toml",
            algorithm_src: algorithm,
            read: &read,
        },
        &mut report,
    );
    report.sort();
    report
}

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
    let (r, scan) = scan_fixture("good/l6_paired_fences.rs", false, false);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(scan.fences.len(), 2);

    let mut ws = WorkspaceScan::default();
    ws.add("good/l6_paired_fences.rs", scan);
    let protocols = r#"
[[protocol]]
name = "handshake"
anchor = "handshake"
loom = []
fields = []
notes = "fixture protocol"
"#;
    let r = run_global(
        &ws,
        protocols,
        "",
        Some("## Handshake <a id=\"handshake\"></a>"),
        &[],
    );
    assert!(r.violations.is_empty(), "{}", r.render_human());
}

#[test]
fn bad_l6_unpaired_and_undeclared_protocols() {
    let (_, scan) = scan_fixture("good/l6_paired_fences.rs", false, false);
    // Keep only the registrant side: the protocol loses its partner.
    let mut lone = scan.clone();
    lone.fences.truncate(1);
    let mut ws = WorkspaceScan::default();
    ws.add("good/l6_paired_fences.rs", lone);

    let declared = r#"
[[protocol]]
name = "handshake"
anchor = "handshake"
loom = []
fields = []
notes = "fixture protocol"
"#;
    let r = run_global(&ws, declared, "", Some("<a id=\"handshake\">"), &[]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    assert_eq!(r.violations[0].rule, "L6");
    assert!(r.violations[0].message.contains("unpaired"));

    // Same scan against a manifest that never declares the protocol.
    let mut ws = WorkspaceScan::default();
    ws.add("good/l6_paired_fences.rs", scan);
    let r = run_global(&ws, "", "", None, &[]);
    assert_eq!(r.violations.len(), 2, "{}", r.render_human());
    assert!(r
        .violations
        .iter()
        .all(|v| v.rule == "L6" && v.message.contains("not declared")));
}

#[test]
fn bad_l7_unclaimed_field_and_dangling_claim() {
    let (r, scan) = scan_fixture("bad/l7_unclaimed_field.rs", false, false);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(scan.fields.len(), 1);
    assert_eq!(
        scan.fields[0].key,
        "bad/l7_unclaimed_field.rs::Gate::in_flight"
    );

    // No protocol claims the field: unclaimed.
    let mut ws = WorkspaceScan::default();
    ws.add("bad/l7_unclaimed_field.rs", scan.clone());
    let r = run_global(&ws, "", "", None, &[]);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    let v = &r.violations[0];
    assert_eq!(v.rule, "L7");
    assert_eq!(v.file, "bad/l7_unclaimed_field.rs");
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
    let mut ws = WorkspaceScan::default();
    ws.add("bad/l7_unclaimed_field.rs", scan);
    let r = run_global(&ws, protocols, "", Some("<a id=\"gate\">"), &[]);
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
    let r = run_global(&ws, protocols, "", Some("<a id=\"present\">"), &[]);
    let msgs: Vec<&str> = r.violations.iter().map(|v| v.message.as_str()).collect();
    assert_eq!(r.violations.len(), 3, "{}", r.render_human());
    assert!(r.violations.iter().all(|v| v.rule == "L7"));
    assert!(msgs.iter().any(|m| m.contains("anchor `missing-anchor`")));
    assert!(msgs.iter().any(|m| m.contains("does not exist")));
    assert!(msgs
        .iter()
        .any(|m| m.contains("no loom suite and no notes")));
}

#[test]
fn l8_fingerprint_freshness() {
    let src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/good/l8_claimed_source.rs"),
    )
    .expect("fixture readable");
    let fresh = protocol_fingerprint(&src);
    let files = [("good/l8_claimed_source.rs", src.as_str())];
    let ws = WorkspaceScan::default();

    // Fresh fingerprint: clean.
    let loom = format!(
        "[[entry]]\npath = \"good/l8_claimed_source.rs\"\nfingerprint = \"{fresh}\"\nmodels = []\nnotes = \"fixture\"\n"
    );
    let r = run_global(&ws, "", &loom, None, &files);
    assert!(r.violations.is_empty(), "{}", r.render_human());

    // Stale fingerprint: flagged, pointing at the fingerprint line.
    let loom = "[[entry]]\npath = \"good/l8_claimed_source.rs\"\nfingerprint = \"0000000000000000\"\nmodels = []\nnotes = \"fixture\"\n";
    let r = run_global(&ws, "", loom, None, &files);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    let v = &r.violations[0];
    assert_eq!(v.rule, "L8");
    assert_eq!(v.file, "docs/LOOM_COVERAGE.toml");
    assert_eq!(v.line, 3, "span points at the fingerprint line");
    assert!(v.message.contains("stale fingerprint"));
    assert!(v.message.contains(&fresh));

    // Missing fingerprint: flagged.
    let loom =
        "[[entry]]\npath = \"good/l8_claimed_source.rs\"\nmodels = []\nnotes = \"fixture\"\n";
    let r = run_global(&ws, "", loom, None, &files);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    assert_eq!(r.violations[0].rule, "L8");
    assert!(r.violations[0].message.contains("--restamp"));

    // Claimed file vanished: flagged.
    let loom = "[[entry]]\npath = \"good/gone.rs\"\nfingerprint = \"0000000000000000\"\nmodels = []\nnotes = \"fixture\"\n";
    let r = run_global(&ws, "", loom, None, &files);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    assert_eq!(r.violations[0].rule, "L8");
    assert!(r.violations[0].message.contains("does not exist"));
}

#[test]
fn bad_l8_missing_model() {
    let src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/good/l8_claimed_source.rs"),
    )
    .expect("fixture readable");
    let fresh = protocol_fingerprint(&src);
    let model = "crates/steal/tests/loom_models.rs";
    let files = [
        ("good/l8_claimed_source.rs", src.as_str()),
        (model, "// a loom suite"),
    ];
    let ws = WorkspaceScan::default();
    let entry = |models: &str| {
        format!(
            "[[entry]]\npath = \"good/l8_claimed_source.rs\"\nfingerprint = \"{fresh}\"\nmodels = [{models}]\nnotes = \"fixture\"\n"
        )
    };

    // Every named model exists: clean.
    let r = run_global(&ws, "", &entry(&format!("\"{model}\"")), None, &files);
    assert!(r.violations.is_empty(), "{}", r.render_human());

    // A stale model name next to a live one: flagged, at the entry.
    let loom = entry(&format!(
        "\"{model}\", \"crates/steal/tests/loom_ghost.rs\""
    ));
    let r = run_global(&ws, "", &loom, None, &files);
    assert_eq!(r.violations.len(), 1, "{}", r.render_human());
    let v = &r.violations[0];
    assert_eq!(v.rule, "L8");
    assert_eq!(v.file, "docs/LOOM_COVERAGE.toml");
    assert_eq!(v.line, 1, "span points at the entry");
    assert!(v.message.contains("loom_ghost.rs"), "{}", v.message);
    assert!(v.message.contains("does not exist"), "{}", v.message);
}

#[test]
fn bad_l9_impure_hot_path() {
    let r = lint_fixture("bad/l9_impure_hot_path.rs", false, false, true);
    assert_eq!(r.violations.len(), 3, "{:?}", r.violations);
    assert!(r.violations.iter().all(|v| v.rule == "L9"));
    let lines: Vec<usize> = r.violations.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![8, 9, 10], "Mutex type, .lock(), Box::new");
    // The vec! outside the region is not flagged.
    assert!(r.violations.iter().all(|v| v.line != 4));
}

#[test]
fn good_l9_pure_hot_path_with_waiver() {
    let r = lint_fixture("good/l9_pure_hot_path.rs", false, false, true);
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.waivers.len(), 1, "{:?}", r.waivers);
    let w = &r.waivers[0];
    assert_eq!(w.rule, "L9");
    assert_eq!(w.line, 13, "span points at the waived .to_vec()");
    assert!(w.reason.contains("diagnostics-only"));
}

#[test]
fn json_output_is_versioned_and_sorted() {
    let mut r = lint_fixture("bad/l9_impure_hot_path.rs", false, false, true);
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
