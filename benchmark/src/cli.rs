//! Command line.
//!
//! ```text
//! ft-benchmark --workload W --seed N --seconds S --trace 0|1   one pass over one workload
//! ft-benchmark [--seed N] [--seconds S] [--repeat N] [--trace 0|1]
//!                                            every workload, each pass in its own process
//! ft-benchmark --smoke                       the same at toy size, in seconds
//! ft-benchmark --compare A.json B.json       judge B against A with the bounds
//! ```
//!
//! A single pass prints a table, writes its full result (with the
//! environment block) under `--out-dir` (default `benchmark/out/`), and
//! prints the contract's JSON object as the last line of stdout. Exit codes:
//! 0 success, 1 an operation failed its oracle, 2 usage or set-up error,
//! 3 the watchdog fired, 4 `--repeat` sets disagree or `--compare` found a
//! regression.

use crate::compare;
use crate::env;
use crate::json::Json;
use crate::measure::{combine, per_layer, run_shard, Outcome, Params, Shard, SHARDS};
use crate::spec::{DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::mpsc;
use std::time::Duration;

/// Longest a single pass may take before a watchdog ends it (the contract
/// allows 180 s).
const WATCHDOG_S: f64 = 170.0;

/// Longest `--seconds` accepted (the contract's `run_seconds` limit); a
/// pass that long still ends inside [`WATCHDOG_S`].
const MAX_SECONDS: f64 = 60.0;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    repeat: usize,
    /// Internal: measure one shard of an end-to-end pass and print its raw
    /// samples (what the pass's parent process runs [`SHARDS`] times).
    shard: Option<u64>,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: ft-benchmark [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20                   [--repeat N] [--smoke] [--out-dir DIR] | --compare A.json B.json",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        repeat: 1,
        shard: None,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if crate::spec::workload(&name).is_none() {
                    return Err(format!("unknown workload '{name}'"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= MAX_SECONDS) {
                    return Err(format!("--seconds {s} is outside (0, {MAX_SECONDS}]"));
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=100).contains(&n) {
                    return Err(format!("--repeat {n} is outside 1..=100"));
                }
                args.repeat = n;
            }
            "--shard" => {
                let i: u64 = value("a shard index")?
                    .parse()
                    .map_err(|e| format!("--shard: {e}"))?;
                if i >= SHARDS {
                    return Err(format!("--shard {i} is outside 0..{SHARDS}"));
                }
                args.shard = Some(i);
            }
            "--smoke" => args.smoke = true,
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--compare" => {
                let a = PathBuf::from(value("two result files")?);
                let b = PathBuf::from(value("two result files")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Run the program with `argv` (without the program name); returns the
/// exit code.
pub fn main(argv: Vec<String>) -> i32 {
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("error: {why}\n{}", usage());
            return 2;
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        run_compare(a, b)
    } else if let (Some(_), Some(index)) = (&args.workload, args.shard) {
        run_one_shard(&args, index)
    } else if args.workload.is_some() {
        run_single(&args)
    } else {
        run_all(&args)
    };
    result.unwrap_or_else(|why| {
        eprintln!("error: {why}");
        2
    })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(a: &Path, b: &Path) -> Result<i32, String> {
    let rows = compare::compare(
        &compare::samples(&read_json(a)?),
        &compare::samples(&read_json(b)?),
    );
    if rows.is_empty() {
        return Err("the two files share no end-to-end metric".to_string());
    }
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Unresolved)
        .count();
    println!(
        "{regressed} regressed, {unresolved} unresolved, {} compared",
        rows.len()
    );
    Ok(if regressed > 0 { 4 } else { 0 })
}

/// Run `f` under a watchdog: if it has not returned within `limit_s`, say
/// so and end the process (a wedged scheduler run cannot be cancelled).
fn with_watchdog<R>(limit_s: f64, f: impl FnOnce() -> R) -> R {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let dog = std::thread::spawn(move || {
        if done_rx.recv_timeout(Duration::from_secs_f64(limit_s))
            == Err(mpsc::RecvTimeoutError::Timeout)
        {
            eprintln!("error: pass still running after {limit_s} s — a run is wedged; giving up");
            std::process::exit(3);
        }
    });
    let out = f();
    // The watchdog wakes on the message or on the sender dropping.
    let _ = done_tx.send(());
    let _ = dog.join();
    out
}

fn params_of(args: &Args) -> Params {
    Params {
        workload: args
            .workload
            .clone()
            .expect("single-workload modes name a workload"),
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
    }
}

/// `--shard I`: measure one shard and print its raw samples as one line.
/// Failed operations are data here (the parent counts them), not an exit
/// code.
fn run_one_shard(args: &Args, index: u64) -> Result<i32, String> {
    let params = params_of(args);
    // A shard's fair share of the pass limit; a wedged run ends the shard,
    // and with it the pass.
    let limit = WATCHDOG_S / SHARDS as f64;
    let shard = with_watchdog(limit, || run_shard(&params, index, SHARDS))?;
    println!("{}", shard.to_json().to_line());
    Ok(0)
}

/// The end-to-end pass: [`SHARDS`] shards, one process each, run one after
/// the other, pooled.
fn end_to_end_in_shards(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workload = args
        .workload
        .as_deref()
        .expect("single-workload modes name a workload");
    let mut shards = Vec::with_capacity(SHARDS as usize);
    for index in 0..SHARDS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--shard", &index.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child; its stderr (panic messages of failed
        // operations, the watchdog) passes through.
        let out = cmd
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!(
                "shard {index} of {workload} ended with {}",
                out.status
            ));
        }
        let text = String::from_utf8(out.stdout).map_err(|e| format!("shard {index}: {e}"))?;
        let line = text
            .lines()
            .last()
            .ok_or_else(|| format!("shard {index} printed nothing"))?;
        shards.push(Shard::from_json(&Json::parse(line)?)?);
    }
    Ok(combine(&shards))
}

fn metrics_json(outcome: &Outcome, full: bool) -> Json {
    let mut metrics = Json::obj();
    for m in &outcome.metrics {
        let mut entry = Json::obj().with("value", m.value).with("unit", m.unit);
        if full {
            if let Some((q1, q3)) = m.quartiles {
                entry.set("q1", q1);
                entry.set("q3", q3);
            }
            entry.set("n", m.samples);
        }
        metrics.set(m.name, entry);
    }
    metrics
}

fn pass_name(trace: bool) -> &'static str {
    if trace {
        "per_layer"
    } else {
        "end_to_end"
    }
}

fn result_path(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(format!("result-{workload}-{}.json", pass_name(trace)))
}

fn run_single(args: &Args) -> Result<i32, String> {
    let workload = args.workload.clone().expect("checked by the caller");
    let trace = args.trace.unwrap_or(false);
    let mut envb = env::block(args.seed);
    if envb.get("noisy") == Some(&Json::Bool(true)) {
        println!("NOISY: load average at start exceeds half the hardware threads; treat this run with suspicion");
    }
    let outcome = if trace {
        let params = params_of(args);
        with_watchdog(WATCHDOG_S, || per_layer(&params))?
    } else {
        end_to_end_in_shards(args)?
    };

    println!(
        "{workload} · {} pass · seed {} · {} cycles · {} pool threads",
        pass_name(trace),
        args.seed,
        outcome.cycles,
        envb.get("pool_threads")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    );
    for m in &outcome.metrics {
        let spread = match m.quartiles {
            Some((q1, q3)) => format!("  [q1 {q1:.6}, q3 {q3:.6}, n={}]", m.samples),
            None => format!("  [n={}]", m.samples),
        };
        println!("  {:<40} {:>16.6} {}{spread}", m.name, m.value, m.unit);
    }
    if let Some((p, ms, n)) = outcome.latency_tail {
        println!("  instance latency tail: p{p} = {ms:.6} ms (highest percentile with ten samples beyond it, n={n})");
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<40} {:>16.6} ratio  ({} failed of {} operations)",
        "failed_frac", failed_frac, outcome.failed, outcome.attempted
    );
    for why in &outcome.failures {
        println!("  FAILED: {why}");
    }

    envb.set("cycles", outcome.cycles);
    envb.set(
        "load_end",
        env::load_average().map_or(Json::Null, Json::Num),
    );
    let full = Json::obj()
        .with("workload", workload.as_str())
        .with("pass", pass_name(trace))
        .with("smoke", args.smoke)
        .with("seconds", args.seconds)
        .with("env", envb)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("failed_frac", failed_frac)
        .with(
            "failures",
            outcome
                .failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .with("metrics", metrics_json(&outcome, true));
    let full = match outcome.latency_tail {
        Some((p, ms, n)) => full.with(
            "latency_tail",
            Json::obj()
                .with("percentile", p)
                .with("ms", ms)
                .with("n", n),
        ),
        None => full,
    };
    write_file(
        &result_path(&args.out_dir, &workload, trace),
        &full.to_line(),
    )?;
    if let Some(chrome) = &outcome.chrome_trace {
        let path = args.out_dir.join(format!("trace-{workload}.json"));
        write_file(&path, chrome)?;
        println!("  trace written to {}", path.display());
    }

    // The contract's result: the last line of stdout.
    let line = Json::obj()
        .with("correct", outcome.failed == 0)
        .with("attempted", outcome.attempted)
        .with("failed", outcome.failed)
        .with("metrics", metrics_json(&outcome, false));
    println!("{}", line.to_line());
    Ok(if outcome.failed == 0 { 0 } else { 1 })
}

/// Every workload, each pass in a process of its own (so `peak_rss_mb` and
/// allocator state belong to one workload), `--repeat` times over.
fn run_all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let passes: Vec<bool> = match args.trace {
        Some(t) => vec![t],
        None => vec![false, true],
    };
    let mut sets = Vec::with_capacity(args.repeat);
    let mut worst = 0;
    for rep in 0..args.repeat {
        let mut set = Json::obj();
        for w in &WORKLOADS {
            let mut entry = Json::obj();
            for &trace in &passes {
                println!(
                    "== set {}/{} · {} · {} ==",
                    rep + 1,
                    args.repeat,
                    w.name,
                    pass_name(trace)
                );
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out-dir")
                    .arg(&args.out_dir);
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let status = cmd
                    .status()
                    .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
                let code = status.code().unwrap_or(3);
                if code > 1 {
                    return Err(format!(
                        "{} pass of {} exited with {status}",
                        pass_name(trace),
                        w.name
                    ));
                }
                worst = worst.max(code);
                let result = read_json(&result_path(&args.out_dir, w.name, trace))?;
                for key in ["attempted", "failed", "env"] {
                    if let Some(v) = result.get(key) {
                        entry.set(&format!("{}_{key}", pass_name(trace)), v.clone());
                    }
                }
                entry.set(
                    pass_name(trace),
                    result.get("metrics").cloned().unwrap_or(Json::obj()),
                );
            }
            set.set(w.name, entry);
        }
        sets.push(set);
    }
    let doc = Json::obj()
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("smoke", args.smoke)
        .with("sets", sets);
    let path = args.out_dir.join("results.json");
    write_file(&path, &doc.to_line())?;
    println!("results written to {}", path.display());

    if args.repeat >= 2 && passes.contains(&false) {
        let all = compare::samples(&doc);
        let (ok, rows) = compare::agree(&compare::only_set(&all, 0), &compare::only_set(&all, 1));
        println!("agreement of set 1 (A) and set 2 (B), same code:");
        print!("{}", compare::render(&rows));
        if !ok {
            println!("DISAGREE: same-code sets differ by more than a bound");
            worst = worst.max(4);
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_contract_invocation() {
        let a = parse(&argv("--workload lu_tiles --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("lu_tiles"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, Some(true)));
        let d = parse(&[]).unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.repeat),
            (DEFAULT_SEED, RUN_SECONDS as f64, 1)
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--seconds 61",
            "--trace 2",
            "--repeat 0",
            "--compare only_one.json",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "accepted '{bad}'");
        }
        assert_eq!(main(argv("--frobnicate")), 2);
    }

    #[test]
    fn watchdog_lets_a_finished_pass_through() {
        assert_eq!(with_watchdog(5.0, || 7), 7);
    }
}
