//! The workspace must stay lint-clean: this test runs the real policy over
//! the real tree, so `cargo test` fails the moment a PR erodes the
//! SAFETY/ordering discipline — the same gate CI runs via
//! `cargo run -p ft-lint -- --deny`.

use ft_lint::{run, Config};
use std::fs;
use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_lint_clean() {
    let report = run(&Config::workspace(workspace_root())).expect("lint run");
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        report.render_human()
    );
    assert!(
        report.files_scanned > 20,
        "suspiciously few files scanned ({}) — runtime dirs moved?",
        report.files_scanned
    );
}

#[test]
fn no_l1_waivers_anywhere() {
    // Acceptance bar from the issue: every unsafe site has a real SAFETY
    // comment; waiving L1 is not an accepted escape hatch.
    let report = run(&Config::workspace(workspace_root())).expect("lint run");
    let l1: Vec<_> = report.waivers.iter().filter(|w| w.rule == "L1").collect();
    assert!(l1.is_empty(), "L1 must not be waived: {l1:?}");
}

#[test]
fn deny_mode_binary_exits_zero_on_workspace() {
    // Shell the actual binary, exactly as CI does.
    let out = Command::new(env!("CARGO_BIN_EXE_ft-lint"))
        .args(["--deny", "--json", "--root"])
        .arg(workspace_root())
        .output()
        .expect("spawn ft-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "ft-lint --deny failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("\"violations\": ["));
    assert!(stdout.contains("\"files_scanned\""));
}

#[test]
fn default_root_is_the_tree_the_command_runs_in() {
    // A tree with its own manifest and one bare `unsafe`, nested inside
    // this workspace: run from a subdirectory of it with no `--root`, the
    // binary must lint that tree (L1 fires), not the clean tree it was
    // built from, and name it as the scanned root.
    let tree = workspace_root().join(format!("target/lint-root-{}", std::process::id()));
    let _ = fs::remove_dir_all(&tree);
    fs::create_dir_all(tree.join("docs")).expect("mkdir");
    fs::create_dir_all(tree.join("crates/steal/src")).expect("mkdir");
    fs::write(tree.join("docs/PROTOCOLS.toml"), "").expect("write");
    let src = "pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    fs::write(tree.join("crates/steal/src/lib.rs"), src).expect("write");
    let out = Command::new(env!("CARGO_BIN_EXE_ft-lint"))
        .args(["--deny", "--json"])
        .current_dir(tree.join("crates/steal"))
        .output()
        .expect("spawn ft-lint");
    let root = tree.canonicalize().expect("tree exists");
    let _ = fs::remove_dir_all(&tree);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("\"rule\": \"L1\""), "{stdout}");
    let root_field = format!("\"root\": \"{}\"", root.display());
    assert!(stdout.contains(&root_field), "{stdout}");
}

#[test]
fn no_manifest_above_the_current_directory_is_an_error() {
    let fs_root = workspace_root().ancestors().last().expect("a root");
    let out = Command::new(env!("CARGO_BIN_EXE_ft-lint"))
        .arg("--deny")
        .current_dir(fs_root)
        .output()
        .expect("spawn ft-lint");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("docs/PROTOCOLS.toml"));
}
