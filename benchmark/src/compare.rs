//! `--compare A.json B.json`: judge one set of results against another with
//! the benchmark's own bounds.
//!
//! Per end-to-end metric × workload: both medians, how much worse `B` is
//! than `A` in the metric's own direction, the bound, and a verdict —
//! `regressed` when `B` is worse by more than the bound, `unresolved` when
//! runs of the *same* code (the sets inside either file, from `--repeat`)
//! already differ by more than the bound, `ok` otherwise. Unresolved wins
//! over regressed: a difference inside the noise is not evidence.

use crate::json::Json;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::median;
use std::collections::BTreeMap;

/// Values of every end-to-end metric × workload, one per set in the file.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Verdict on one metric × workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound, and the noise is smaller than that.
    Regressed,
    /// Same-code runs disagree by more than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One line of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median over `A`'s sets.
    pub a: f64,
    /// Median over `B`'s sets.
    pub b: f64,
    /// How much worse `B` is, as a share of `A` (negative: better).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Largest same-code spread seen in either file, `(max − min) / median`
    /// (0 when both files hold a single set).
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Pull the end-to-end values out of a result document: either a
/// `results.json` of the all-workloads mode (`sets`) or the result file of
/// a single end-to-end pass.
pub fn samples(doc: &Json) -> Samples {
    let mut out = Samples::new();
    let mut take = |workload: &str, metrics: &Json| {
        for (name, m) in metrics.fields() {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    };
    if let Some(sets) = doc.get("sets") {
        for set in sets.items() {
            for (workload, result) in set.fields() {
                if let Some(metrics) = result.get("end_to_end") {
                    take(workload, metrics);
                }
            }
        }
    } else if let (Some(workload), Some(metrics)) = (
        doc.get("workload").and_then(Json::as_str),
        doc.get("metrics"),
    ) {
        if doc.get("pass").and_then(Json::as_str) == Some("end_to_end") {
            take(workload, metrics);
        }
    }
    out
}

fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if xs.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (lo, hi) = xs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (hi - lo) / m.abs()
}

/// Compare `b` against `a`, in spec order; pairs missing from either side
/// are skipped.
pub fn compare(a: &Samples, b: &Samples) -> Vec<Row> {
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry bounds");
            let (ma, mb) = (median(xa), median(xb));
            let worse_by = m.better.worse_by(ma, mb);
            let spread = spread(xa).max(spread(xb));
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: key.0,
                metric: key.1,
                a: ma,
                b: mb,
                worse_by,
                bound,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// Render rows as an aligned table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7} {:>8}  {}\n",
        "workload", "metric", "A", "B", "worse by", "bound", "spread", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:<22} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>7.2}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            r.spread * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

/// Split a multi-set sample table into the table of set `index` alone.
pub fn only_set(all: &Samples, index: usize) -> Samples {
    all.iter()
        .filter_map(|(k, v)| v.get(index).map(|&x| (k.clone(), vec![x])))
        .collect()
}

/// Whether two same-code sets agree: neither is worse than the other by
/// more than the bound, on every metric × workload.
pub fn agree(first: &Samples, second: &Samples) -> (bool, Vec<Row>) {
    let rows = compare(first, second);
    let back = compare(second, first);
    let ok = rows
        .iter()
        .chain(back.iter())
        .all(|r| r.worse_by <= r.bound);
    (ok, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(values: &[(&str, &str, f64)]) -> Json {
        let mut set = Json::obj();
        for w in &WORKLOADS {
            let mut metrics = Json::obj();
            for &(workload, metric, value) in values {
                if workload == w.name {
                    metrics.set(metric, Json::obj().with("value", value).with("unit", "x"));
                }
            }
            set.set(w.name, Json::obj().with("end_to_end", metrics));
        }
        Json::obj().with("sets", vec![set])
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let a = samples(&doc(&[
            ("grid_wavefront", "tasks_per_s", 100.0),
            ("grid_wavefront", "ft_time_ratio", 1.10),
            ("lu_tiles", "instance_ms_p50", 50.0),
        ]));
        let b = samples(&doc(&[
            ("grid_wavefront", "tasks_per_s", 70.0), // 30 % lower: regressed
            ("grid_wavefront", "ft_time_ratio", 1.05), // lower is better: ok
            ("lu_tiles", "instance_ms_p50", 52.0),   // 4 % slower: within the bound
        ]));
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 3);
        let verdict = |metric: &str| rows.iter().find(|r| r.metric == metric).unwrap().verdict;
        assert_eq!(verdict("tasks_per_s"), Verdict::Regressed);
        assert_eq!(verdict("ft_time_ratio"), Verdict::Ok);
        assert_eq!(verdict("instance_ms_p50"), Verdict::Ok);
        assert!(render(&rows).contains("regressed"));
        assert!(!agree(&a, &b).0);
        assert!(agree(&a, &a).0);
    }

    #[test]
    fn noisy_same_code_sets_make_a_difference_unresolved() {
        let mut a = samples(&doc(&[("fanout_dag", "tasks_per_s", 100.0)]));
        a.get_mut(&("fanout_dag".to_string(), "tasks_per_s".to_string()))
            .unwrap()
            .push(70.0); // a second set of the same code, 35 % apart
        let b = samples(&doc(&[("fanout_dag", "tasks_per_s", 60.0)]));
        let rows = compare(&a, &b);
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
        assert_eq!(only_set(&a, 1).values().next().unwrap(), &vec![70.0]);
    }

    #[test]
    fn single_pass_result_files_are_accepted() {
        let file = Json::obj()
            .with("workload", "lu_tiles")
            .with("pass", "end_to_end")
            .with(
                "metrics",
                Json::obj().with("setup_s", Json::obj().with("value", 0.5)),
            );
        let s = samples(&file);
        assert_eq!(
            s[&("lu_tiles".to_string(), "setup_s".to_string())],
            vec![0.5]
        );
        let layers = Json::obj()
            .with("workload", "lu_tiles")
            .with("pass", "per_layer")
            .with(
                "metrics",
                Json::obj().with("bench.timer_ns", Json::obj().with("value", 20.0)),
            );
        assert!(samples(&layers).is_empty());
    }
}
