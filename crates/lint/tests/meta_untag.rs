//! Meta-test: the protocol rules must catch a *real* regression, not just
//! synthetic fixtures. Copy the real `engine.rs` into a throwaway mini
//! workspace with programmatically generated manifests, verify the copy
//! lints clean, then delete one `// sc:` fence tag — exactly the edit a
//! careless refactor would make — and assert L6 fires at that fence.

use ft_lint::{manifest, run, Config};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// A unique, self-cleaning scratch workspace under the target dir (kept
/// out of `std::env::temp_dir()` so parallel checkouts never collide).
struct MiniWorkspace {
    root: PathBuf,
}

impl MiniWorkspace {
    fn new(tag: &str) -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/lint-meta")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create mini workspace");
        MiniWorkspace { root }
    }

    fn write(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).expect("mkdir");
        fs::write(path, contents).expect("write");
    }
}

impl Drop for MiniWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const ENGINE: &str = "crates/core/src/scheduler/engine.rs";

/// The mini manifest: both protocols the real engine.rs takes part in list
/// it under `files`, as `docs/PROTOCOLS.toml` does.
const PROTOCOLS: &str = "[[protocol]]\nname = \"notify-cells\"\nanchor = \"notify-cells\"\nloom = []\nfields = []\nfiles = [\"crates/core/src/scheduler/engine.rs\"]\nnotes = \"mini workspace: suites live in the real tree\"\n\n[[protocol]]\nname = \"task-desc\"\nanchor = \"figure-2-gate\"\nloom = []\nfields = []\nfiles = [\"crates/core/src/scheduler/engine.rs\"]\nnotes = \"mini workspace: suites live in the real tree\"\n";

/// Build a mini workspace holding the *real* engine.rs plus a manifest
/// stamped from its actual content by `manifest::restamp`, so the copy
/// starts provably clean under the full `run()` policy.
fn engine_workspace(tag: &str) -> (MiniWorkspace, String, Config) {
    let engine =
        fs::read_to_string(workspace_root().join(ENGINE)).expect("real engine.rs readable");

    let ws = MiniWorkspace::new(tag);
    ws.write(ENGINE, &engine);
    ws.write(
        "docs/ALGORITHM.md",
        "# Mini algorithm doc\n\n## Figure 2 <a id=\"figure-2-gate\"></a>\n\n## Notify cells <a id=\"notify-cells\"></a>\n",
    );
    ws.write("docs/PROTOCOLS.toml", PROTOCOLS);
    let config = mini_config(&ws.root);
    assert_eq!(manifest::restamp(&config).expect("stamp mini manifest"), 2);
    (ws, engine, config)
}

fn mini_config(root: &Path) -> Config {
    let mut config = Config::workspace(root);
    // Only core exists in the mini tree; missing dirs would error.
    config.runtime_dirs = vec![PathBuf::from("crates/core/src")];
    config.field_dirs = vec![PathBuf::from("crates/core/src")];
    config
}

#[test]
fn untagging_a_real_fence_trips_l6() {
    let (ws, engine, config) = engine_workspace("untag");

    // The pristine copy of the real file is clean under the full policy.
    let report = run(&config).expect("lint mini workspace");
    assert!(
        report.violations.is_empty(),
        "pristine engine.rs copy must lint clean:\n{}",
        report.render_human()
    );

    // A careless refactor drops the registrant-side protocol tag.
    let tag_line = "// sc: notify-cells/registrant";
    assert_eq!(
        engine.matches(tag_line).count(),
        1,
        "engine.rs carries exactly one registrant tag"
    );
    let fence_line = 1
        + engine
            .lines()
            .position(|l| l.trim() == tag_line)
            .expect("tag present")
        + 1; // tag line index -> 1-based line of the fence call below it
    let untagged: String = engine
        .lines()
        .filter(|l| l.trim() != tag_line)
        .collect::<Vec<_>>()
        .join("\n");
    ws.write(ENGINE, &untagged);

    let report = run(&config).expect("lint mutated workspace");
    let l6: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "L6")
        .collect();
    assert!(
        !l6.is_empty(),
        "deleting a fence tag must trip L6:\n{}",
        report.render_human()
    );
    // The untagged fence itself is flagged (one line up now that the tag
    // comment is gone), in the right file.
    assert!(
        l6.iter()
            .any(|v| { v.file == ENGINE && v.line == fence_line - 1 }),
        "expected an L6 hit at the untagged fence (line {}):\n{}",
        fence_line - 1,
        report.render_human()
    );
}

#[test]
fn editing_atomics_without_restamp_trips_l8() {
    let (ws, engine, config) = engine_workspace("stale");
    assert!(run(&config).expect("lint").violations.is_empty());

    // An ordering edit on a stamped line — exactly the change that must
    // force a re-run of the covering protocols' loom suites.
    let old = "let val = a.join().fetch_sub(1, Ordering::AcqRel) - 1;";
    assert_eq!(engine.matches(old).count(), 1);
    let edited = engine.replace(
        old,
        "let val = a.join().fetch_sub(1, Ordering::Release) - 1;",
    );
    ws.write(ENGINE, &edited);

    let report = run(&config).expect("lint mutated workspace");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.rule == "L8" && v.message.contains("stale stamp")),
        "editing an atomic line without --restamp must trip L8:\n{}",
        report.render_human()
    );
}

#[test]
fn dropping_engine_from_protocol_files_trips_l4() {
    let (ws, _, config) = engine_workspace("uncover");
    assert!(run(&config).expect("lint").violations.is_empty());

    // engine.rs declares no atomic field, so `files` is all that covers it.
    let stamped = fs::read_to_string(ws.root.join("docs/PROTOCOLS.toml")).expect("manifest");
    let uncovered: String = stamped
        .lines()
        .filter(|l| !l.starts_with("files = "))
        .map(|l| format!("{l}\n"))
        .collect();
    ws.write("docs/PROTOCOLS.toml", &uncovered);

    let report = run(&config).expect("lint uncovered workspace");
    let hits: Vec<(&str, &str, usize)> = report
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line))
        .collect();
    assert_eq!(
        hits,
        vec![("L4", ENGINE, 1)],
        "an uncovered atomics file must trip L4 (and a protocol covering no file needs no stamp):\n{}",
        report.render_human()
    );
}

#[test]
fn editing_a_fence_without_restamp_trips_l8_on_every_covering_protocol() {
    let (ws, engine, config) = engine_workspace("fence");
    assert!(run(&config).expect("lint").violations.is_empty());

    // Weaken the registrant's SC fence. Its `// ord:` tag still covers
    // the line, so only the stamps notice.
    let old = "notify-cells/registrant\n        fence(Ordering::SeqCst);";
    assert_eq!(engine.matches(old).count(), 1);
    let weakened = "notify-cells/registrant\n        fence(Ordering::AcqRel);";
    ws.write(ENGINE, &engine.replace(old, weakened));

    let manifest_src = fs::read_to_string(ws.root.join("docs/PROTOCOLS.toml")).expect("manifest");
    let stamp_lines: Vec<usize> = manifest_src
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with("stamp = "))
        .map(|(i, _)| i + 1)
        .collect();
    assert_eq!(stamp_lines.len(), 2, "{manifest_src}");

    let report = run(&config).expect("lint mutated workspace");
    let l8: Vec<(&str, usize)> = report.violations.iter().map(|v| (v.rule, v.line)).collect();
    assert_eq!(
        l8,
        stamp_lines.iter().map(|&l| ("L8", l)).collect::<Vec<_>>(),
        "each covering protocol's stamp goes stale, and nothing else fires:\n{}",
        report.render_human()
    );
    for protocol in ["notify-cells", "task-desc"] {
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.message.contains(&format!("protocol `{protocol}`"))),
            "the finding names `{protocol}`:\n{}",
            report.render_human()
        );
    }

    // Re-stamping (after re-running the named suites) clears it.
    assert_eq!(manifest::restamp(&config).expect("restamp"), 2);
    let report = run(&config).expect("lint restamped workspace");
    assert!(report.violations.is_empty(), "{}", report.render_human());
}
