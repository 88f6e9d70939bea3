//! The environment block recorded with every result, and the process's
//! own resource readings.
//!
//! A number from a 2-thread VM means nothing without the machine, the
//! toolchain and the load it was taken under, so every result file carries
//! them. Everything here degrades to `"unknown"` rather than failing: the
//! driver's checkout is not a git repository and `/proc` may be absent.

use crate::json::Json;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Worker threads per pool: `min(nproc, 4)`.
pub fn pool_threads() -> usize {
    nproc().min(4)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line a helper program prints, run from the benchmark's directory.
/// `git` is kept from searching above the repository root, so a checkout
/// that is not a repository reports `unknown` instead of a stranger's rev.
fn command_line(program: &str, args: &[&str]) -> String {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ceiling = here.parent().and_then(Path::parent).unwrap_or(here);
    Command::new(program)
        .args(args)
        .current_dir(here)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// 1-minute load average, if the platform exposes it.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Smallest non-zero step of `Instant` observed over a short probe, ns.
pub fn instant_resolution_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..2_000 {
        let a = Instant::now();
        let mut b = Instant::now();
        while b == a {
            b = Instant::now();
        }
        best = best.min(b.duration_since(a).as_nanos() as u64);
    }
    best
}

/// Whether a start-of-run load average makes the run suspect: more than
/// half the hardware threads were already busy.
pub fn is_noisy(load_start: Option<f64>) -> bool {
    load_start.is_some_and(|l| l > nproc() as f64 / 2.0)
}

/// The environment block taken at the start of a run; `load_end` and the
/// cycle counts are added by the caller when the run finishes.
pub fn block(seed: u64) -> Json {
    let load = load_average();
    Json::obj()
        .with(
            "git_rev",
            command_line("git", &["rev-parse", "--short", "HEAD"]),
        )
        .with("rustc", command_line("rustc", &["--version"]))
        .with("cpu_model", cpu_model())
        .with("nproc", nproc())
        .with("pool_threads", pool_threads())
        .with("seed", seed)
        .with("instant_resolution_ns", instant_resolution_ns())
        .with("load_start", load.map_or(Json::Null, Json::Num))
        .with("noisy", is_noisy(load))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_has_every_field_and_never_fails() {
        let b = block(7);
        for key in [
            "git_rev",
            "rustc",
            "cpu_model",
            "nproc",
            "pool_threads",
            "seed",
            "instant_resolution_ns",
            "load_start",
            "noisy",
        ] {
            assert!(b.get(key).is_some(), "missing {key}");
        }
        assert!(pool_threads() >= 1 && pool_threads() <= 4);
        assert!(instant_resolution_ns() > 0);
        assert!(!is_noisy(None));
        assert!(is_noisy(Some(nproc() as f64)));
    }
}
