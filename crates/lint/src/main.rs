//! `ft-lint` CLI.
//!
//! ```text
//! cargo run -p ft-lint --              # report findings (exit 0)
//! cargo run -p ft-lint -- --deny       # exit 1 on any violation (CI gate)
//! cargo run -p ft-lint -- --json      # machine-readable report on stdout
//! cargo run -p ft-lint -- --root X    # lint workspace rooted at X
//! cargo run -p ft-lint -- --restamp   # refresh PROTOCOLS.toml stamps
//! ```

use ft_lint::{manifest, run, Config};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut restamp = false;
    // Default root: the workspace this binary was built from, so
    // `cargo run -p ft-lint` works from any directory.
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--restamp" => restamp = true,
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("ft-lint: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: ft-lint [--deny] [--json] [--restamp] [--root <dir>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("ft-lint: unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = root.canonicalize().unwrap_or(root);
    let config = Config::workspace(root);
    if restamp {
        // Refresh stamps first so a combined `--restamp --deny` run lints
        // the freshly stamped manifest.
        match manifest::restamp(&config) {
            Ok(n) => eprintln!("ft-lint: restamped {n} protocol(s)"),
            Err(e) => {
                eprintln!("ft-lint: --restamp failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match run(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ft-lint: io error: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if deny && !report.violations.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
