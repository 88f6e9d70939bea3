//! Trace-based guarantee oracle.
//!
//! Validates a recorded [`Trace`](super::Trace) against the six Section-IV
//! guarantees of the fault-tolerant scheduler, plus consistency between the
//! trace and the run's [`RunReport`]. The oracle replays the event log in
//! emission order and reconstructs what the scheduler's shared state *must*
//! have looked like; any divergence is reported as a [`Violation`].
//!
//! Per-guarantee checks (see `docs/ALGORITHM.md` for the guarantee text):
//!
//! * **G1 — each failure recovered at most once.** No duplicate
//!   `RecoveryStarted { key, new_life }`: one recovery per incarnation.
//! * **G2 — a recovered task is replaced by a fresh incarnation.** Life
//!   numbers per key increase strictly 1, 2, 3, …: every `RecoveryStarted`
//!   carries `new_life == current_max + 1`, and no event references a life
//!   the task never had.
//! * **G3 — notifications decrement the join counter exactly once.**
//!   `Notified { key, life, pred }` is unique per (task, incarnation,
//!   predecessor) within a reset epoch; repeats must surface as
//!   `DuplicateNotify`. In [`strict`](OracleMode::Strict) mode the oracle
//!   additionally requires that a `Computed { key, life }` is preceded by
//!   exactly `indegree + 1` notifications of that incarnation (the `+1` is
//!   the self-edge consumed at the end of `InitAndCompute`).
//! * **G4 — the notify array is reconstructed on recovery.** Consequence
//!   checked: in a run whose sink completed, every inserted task reaches
//!   `Completed` at its final incarnation, and every `Completed` has a
//!   matching earlier `Computed` of the same incarnation. Conversely, a run
//!   that *quiesced without completing its sink* lost a notification
//!   somewhere (tasks stranded mid-graph) and is flagged outright — this is
//!   the symptom a dropped notify-cell publish produces (PR 9).
//! * **G5 — a task whose input failed is reset and re-explored.** Every
//!   `Reset { key, … }` is preceded by a `FaultObserved` whose source is
//!   *another* task (the failed input).
//! * **G6 — failures during recovery are recovered.** Every
//!   `FaultObserved { source }` is followed by `RecoveryStarted` or
//!   `RecoverySuppressed` for that source, and every injected
//!   before/after-compute fault leads to at least one recovery of its task.
//!
//! Report cross-checks tie the counters to the event log: `computes` ==
//! #`Computed`, `recoveries` == #`RecoveryStarted`, `notifications` ==
//! #`Notified`, and so on — a scheduler that, say, silently skips the
//! bit-vector test changes these invariants and is caught. The per-task
//! fields are checked against N(A) counted from `Computed` events per key
//! (distinct keys, Σ (N(A) − 1), max N(A)), so a wrong re-execution count
//! is caught too.
//!
//! On failure, [`FailureReport`] serializes the offending run — seed, fault
//! plan, violations, and the full trace — as JSON so the exact interleaving
//! can be replayed from `(graph, fault plan, seed)`.

use super::{Event, TimedEvent};
use crate::graph::{Key, TaskGraph};
use crate::inject::{FaultSite, Phase};
use crate::metrics::RunReport;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};

/// How strictly to interpret the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// The trace came from the deterministic executor (`ft-det`): event
    /// emission order is the real execution order, so exact counting
    /// checks apply (e.g. a compute sees exactly `indegree + 1` prior
    /// notifications).
    Strict,
    /// The trace came from the multithreaded pool: emission order is a
    /// linearization that may interleave independent critical sections, so
    /// checks that depend on cross-thread ordering of *independent* events
    /// are relaxed. All uniqueness, pairing, and report checks still apply.
    Concurrent,
}

/// One guarantee violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check failed: "G1".."G6", "order", or "report".
    pub guarantee: &'static str,
    /// Human-readable description with the offending keys/lives.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.guarantee, self.message)
    }
}

/// Validate `events` (in emission order) against the six guarantees and
/// the run report. Returns every violation found (empty = trace passes).
pub fn check_trace(
    graph: &dyn TaskGraph,
    events: &[TimedEvent],
    report: &RunReport,
    mode: OracleMode,
) -> Vec<Violation> {
    let mut v: Vec<Violation> = Vec::new();
    let mut push = |guarantee: &'static str, message: String| {
        v.push(Violation { guarantee, message });
    };

    // Reconstructed state, keyed by task.
    let mut max_life: HashMap<Key, u64> = HashMap::new();
    let mut inserted: HashSet<Key> = HashSet::new();
    // G1: recoveries seen per (key, new_life).
    let mut recoveries_seen: HashSet<(Key, u64)> = HashSet::new();
    // G3: notifications seen per (key, life) in the current reset epoch.
    let mut notified: HashMap<(Key, u64), HashSet<Key>> = HashMap::new();
    // Computed/Completed incarnations.
    let mut computed: HashSet<(Key, u64)> = HashSet::new();
    let mut completed: HashSet<(Key, u64)> = HashSet::new();
    // G5/G6 bookkeeping.
    let mut observed_sources: Vec<(u64, Key)> = Vec::new(); // (seq, source) awaiting recovery/suppression
    let mut recovery_event_seqs: HashMap<Key, Vec<u64>> = HashMap::new(); // Started or Suppressed
                                                                          // Counters for report cross-checks.
    let mut n_computed = 0u64;
    let mut n_completed = 0u64;
    let mut n_notified = 0u64;
    let mut n_duplicate = 0u64;
    let mut n_injected = 0u64;
    let mut n_recov_started = 0u64;
    let mut n_recov_suppressed = 0u64;
    let mut n_reset = 0u64;
    let mut injected_eager: HashMap<Key, u64> = HashMap::new(); // before/after-compute fires per key
    let mut recoveries_per_key: HashMap<Key, u64> = HashMap::new();
    // N(A) as the trace shows it: `Computed` events per key.
    let mut computed_per_key: HashMap<Key, u64> = HashMap::new();

    for (i, te) in events.iter().enumerate() {
        if i > 0 && events[i - 1].seq >= te.seq {
            push(
                "order",
                format!("event #{i} has non-increasing seq {}", te.seq),
            );
        }
        match te.event {
            Event::Inserted { key } => {
                if !inserted.insert(key) {
                    push("order", format!("task {key} inserted twice"));
                }
                max_life.entry(key).or_insert(1);
            }
            Event::Notified { key, life, pred } => {
                n_notified += 1;
                // Life-vs-max-life checks are Strict-only: on a multithreaded
                // pool, a successor can observe (and notify) a recovered
                // incarnation between `replace_task`'s map CAS and the
                // recovering thread's `RecoveryStarted` emission, so the
                // trace can legally show `life > ml` transiently.
                let ml = *max_life.get(&key).unwrap_or(&0);
                if mode == OracleMode::Strict && (life == 0 || life > ml) {
                    push(
                        "G2",
                        format!("notification of {key} at life {life}, but max life is {ml}"),
                    );
                }
                let set = notified.entry((key, life)).or_default();
                if !set.insert(pred) {
                    push(
                        "G3",
                        format!(
                            "duplicate notification of {key} (life {life}) from pred {pred} \
                             decremented the join counter twice"
                        ),
                    );
                }
            }
            Event::DuplicateNotify { key, life, pred } => {
                n_duplicate += 1;
                // Absorbed duplicates are the mechanism working as intended;
                // nothing to check beyond the life being plausible.
                let ml = *max_life.get(&key).unwrap_or(&0);
                if mode == OracleMode::Strict && (life == 0 || life > ml) {
                    push(
                        "G2",
                        format!(
                            "duplicate notify of {key} from {pred} at life {life}, max is {ml}"
                        ),
                    );
                }
            }
            Event::Computed { key, life } => {
                n_computed += 1;
                *computed_per_key.entry(key).or_insert(0) += 1;
                let ml = *max_life.get(&key).unwrap_or(&0);
                if mode == OracleMode::Strict && (life == 0 || life > ml) {
                    push(
                        "G2",
                        format!("compute of {key} at life {life}, but max life is {ml}"),
                    );
                }
                if !computed.insert((key, life)) {
                    // A second compute of the same incarnation is only
                    // legal after a ResetNode re-exploration, which clears
                    // the per-epoch notification set below.
                    push(
                        "G3",
                        format!("task {key} computed twice at life {life} without a reset"),
                    );
                }
                if mode == OracleMode::Strict {
                    let need = graph.predecessors(key).len() + 1;
                    let got = notified.get(&(key, life)).map_or(0, |s| s.len());
                    if got != need {
                        push(
                            "G3",
                            format!(
                                "task {key} (life {life}) computed after {got} notifications; \
                                 expected indegree+1 = {need}"
                            ),
                        );
                    }
                }
            }
            Event::Completed { key, life } => {
                n_completed += 1;
                if !computed.contains(&(key, life)) {
                    push(
                        "G4",
                        format!("task {key} completed at life {life} without computing"),
                    );
                }
                completed.insert((key, life));
            }
            Event::Injected { key, phase } => {
                n_injected += 1;
                if phase != Phase::AfterNotify {
                    *injected_eager.entry(key).or_insert(0) += 1;
                }
            }
            Event::FaultObserved { source, .. } => {
                observed_sources.push((te.seq, source));
            }
            Event::RecoveryStarted { key, new_life } => {
                n_recov_started += 1;
                *recoveries_per_key.entry(key).or_insert(0) += 1;
                recovery_event_seqs.entry(key).or_default().push(te.seq);
                if !recoveries_seen.insert((key, new_life)) {
                    push(
                        "G1",
                        format!("task {key} recovered twice to the same life {new_life}"),
                    );
                }
                let ml = max_life.entry(key).or_insert(1);
                // Strict-only for the same reason as above: concurrent
                // emission can reorder two RecoveryStarted events of
                // adjacent lives (the CAS order is authoritative, the
                // emission order is not).
                if mode == OracleMode::Strict && new_life != *ml + 1 {
                    push(
                        "G2",
                        format!(
                            "recovery of {key} produced life {new_life}; expected a fresh \
                             incarnation with life {}",
                            *ml + 1
                        ),
                    );
                }
                *ml = (*ml).max(new_life);
            }
            Event::RecoverySuppressed { key, .. } => {
                n_recov_suppressed += 1;
                recovery_event_seqs.entry(key).or_default().push(te.seq);
            }
            Event::Reset { key, life } => {
                n_reset += 1;
                // G5: a reset must be caused by an observed fault in some
                // *other* task (the failed input).
                let caused = events[..i].iter().any(
                    |p| matches!(p.event, Event::FaultObserved { source, .. } if source != key),
                );
                if !caused {
                    push(
                        "G5",
                        format!(
                            "task {key} (life {life}) was reset with no prior fault observed \
                             in another task"
                        ),
                    );
                }
                // New epoch: the incarnation's bits and join counter were
                // restored, so the same predecessors may notify again.
                notified.remove(&(key, life));
                computed.remove(&(key, life));
            }
        }
    }

    // G6: every observed fault is followed by a recovery action for its
    // source (started or suppressed — both mean the failure was handled).
    for (seq, source) in &observed_sources {
        let handled = recovery_event_seqs
            .get(source)
            .is_some_and(|seqs| seqs.iter().any(|&s| s > *seq));
        if !handled {
            push(
                "G6",
                format!(
                    "fault in task {source} observed at seq {seq} but never recovered \
                     or suppressed afterwards"
                ),
            );
        }
    }
    // G6: eagerly-observed injections (before/after compute) always cause
    // at least one recovery of their task.
    for (key, fires) in &injected_eager {
        let recs = recoveries_per_key.get(key).copied().unwrap_or(0);
        if recs < *fires {
            push(
                "G6",
                format!(
                    "task {key} had {fires} eagerly-observed injected fault(s) but only \
                     {recs} recover(ies)"
                ),
            );
        }
    }

    // G4 consequence: in a successful run, every inserted task finished at
    // its final incarnation.
    if report.sink_completed {
        for &key in &inserted {
            let ml = *max_life.get(&key).unwrap_or(&1);
            if !completed.contains(&(key, ml)) {
                push(
                    "G4",
                    format!(
                        "run completed but task {key} never completed its final \
                         incarnation (life {ml})"
                    ),
                );
            }
        }
        let sink = graph.sink();
        if !inserted.contains(&sink) {
            push("report", format!("sink {sink} never inserted"));
        }
    } else {
        // The run returned (the pool quiesced: no task left running, no
        // pending work) yet the sink never completed. Some notification
        // was lost — the exact failure a broken notify-cell publish
        // produces (PR 9) — or the graph wedged some other way. A
        // correctly reconstructed notify array (G4) makes this impossible.
        push(
            "G4",
            format!(
                "run quiesced but sink {} never completed: a notification \
                 was lost (tasks stranded mid-graph)",
                graph.sink()
            ),
        );
    }

    // Report cross-checks: counters must equal what the trace shows.
    let mut cross = |name: &str, reported: u64, traced: u64| {
        if reported != traced {
            push(
                "report",
                format!("report.{name} = {reported} but the trace shows {traced}"),
            );
        }
    };
    cross("computes", report.computes, n_computed);
    cross("recoveries", report.recoveries, n_recov_started);
    cross(
        "recoveries_suppressed",
        report.recoveries_suppressed,
        n_recov_suppressed,
    );
    cross("resets", report.resets, n_reset);
    cross("notifications", report.notifications, n_notified);
    cross(
        "duplicate_notifications",
        report.duplicate_notifications,
        n_duplicate,
    );
    cross("injected", report.injected, n_injected);
    cross(
        "distinct_tasks_executed",
        report.distinct_tasks_executed,
        computed_per_key.len() as u64,
    );
    cross(
        "re_executions",
        report.re_executions,
        computed_per_key.values().map(|&n| n - 1).sum(),
    );
    cross(
        "max_executions_one_task",
        report.max_executions_one_task,
        computed_per_key.values().copied().max().unwrap_or(0),
    );
    if n_completed > n_computed {
        push(
            "report",
            format!("{n_completed} completions exceed {n_computed} computes"),
        );
    }

    v
}

/// Compare per-key results of an FT run against the sequential reference
/// (Theorem 1: same result with and without faults). `ft` and `reference`
/// look up the value each execution produced for a key.
pub fn check_result_equivalence<F, G>(keys: &[Key], ft: F, reference: G) -> Vec<Violation>
where
    F: Fn(Key) -> Option<u64>,
    G: Fn(Key) -> Option<u64>,
{
    let mut v = Vec::new();
    for &k in keys {
        let a = ft(k);
        let b = reference(k);
        if a != b {
            v.push(Violation {
                guarantee: "result",
                message: format!("task {k}: ft run produced {a:?}, reference produced {b:?}"),
            });
        }
    }
    v
}

/// Everything needed to reproduce and debug a failed oracle check:
/// `(graph label, fault plan, seed)` replays the schedule; the violations
/// and full trace say what went wrong.
pub struct FailureReport<'a> {
    /// Short description of the graph (shape parameters, generator seed).
    pub label: String,
    /// The `DetPool` schedule seed.
    pub seed: u64,
    /// The fault plan's sites with original budgets.
    pub sites: &'a [FaultSite],
    /// Violations found by the oracle.
    pub violations: &'a [Violation],
    /// Full event log.
    pub events: &'a [TimedEvent],
}

impl FailureReport<'_> {
    /// Serialize as JSON (hand-rolled; the workspace builds offline
    /// without serde).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"label\": {},\n", json_string(&self.label)));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str("  \"fault_plan\": [\n");
        let sites: Vec<String> = self
            .sites
            .iter()
            .map(|s| {
                format!(
                    "    {{\"key\": {}, \"phase\": \"{:?}\", \"fires\": {}}}",
                    s.key, s.phase, s.fires
                )
            })
            .collect();
        out.push_str(&sites.join(",\n"));
        out.push_str("\n  ],\n  \"violations\": [\n");
        let viols: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "    {{\"guarantee\": {}, \"message\": {}}}",
                    json_string(v.guarantee),
                    json_string(&v.message)
                )
            })
            .collect();
        out.push_str(&viols.join(",\n"));
        out.push_str("\n  ],\n  \"trace\": [\n");
        let evs: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "    {{\"seq\": {}, \"t_ns\": {}, \"event\": {}}}",
                    e.seq,
                    e.t_ns,
                    json_string(&format!("{:?}", e.event))
                )
            })
            .collect();
        out.push_str(&evs.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Write the report under `dir` as `<label>-seed<seed>.json`; returns
    /// the path. `dir` is created if missing.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let safe: String = self
            .label
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("{safe}-seed{}.json", self.seed));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path)
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::metrics::RunMetrics;

    /// 0 -> 1 chain.
    struct Chain;
    impl TaskGraph for Chain {
        fn sink(&self) -> Key {
            1
        }
        fn predecessors(&self, k: Key) -> Vec<Key> {
            if k == 1 {
                vec![0]
            } else {
                vec![]
            }
        }
        fn successors(&self, k: Key) -> Vec<Key> {
            if k == 0 {
                vec![1]
            } else {
                vec![]
            }
        }
        fn compute(
            &self,
            _: Key,
            _: &crate::graph::ComputeCtx<'_>,
        ) -> Result<(), crate::fault::Fault> {
            Ok(())
        }
    }

    fn ev(seq: u64, event: Event) -> TimedEvent {
        TimedEvent {
            seq,
            t_ns: seq,
            event,
        }
    }

    /// A minimal clean fault-free trace of the 0 -> 1 chain.
    fn clean_chain_trace() -> Vec<TimedEvent> {
        vec![
            ev(0, Event::Inserted { key: 1 }),
            ev(1, Event::Inserted { key: 0 }),
            ev(
                2,
                Event::Notified {
                    key: 0,
                    life: 1,
                    pred: 0,
                },
            ),
            ev(3, Event::Computed { key: 0, life: 1 }),
            ev(4, Event::Completed { key: 0, life: 1 }),
            ev(
                5,
                Event::Notified {
                    key: 1,
                    life: 1,
                    pred: 0,
                },
            ),
            ev(
                6,
                Event::Notified {
                    key: 1,
                    life: 1,
                    pred: 1,
                },
            ),
            ev(7, Event::Computed { key: 1, life: 1 }),
            ev(8, Event::Completed { key: 1, life: 1 }),
        ]
    }

    fn matching_report() -> RunReport {
        let m = RunMetrics::new();
        m.record_compute(0);
        m.record_compute(1);
        for _ in 0..3 {
            m.notifications.add(None);
        }
        let mut r = m.snapshot([]);
        r.sink_completed = true;
        r
    }

    #[test]
    fn clean_trace_passes() {
        let v = check_trace(
            &Chain,
            &clean_chain_trace(),
            &matching_report(),
            OracleMode::Strict,
        );
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn duplicate_decrement_is_g3() {
        let mut t = clean_chain_trace();
        // Same (key, life, pred) notified twice — the bit vector failed.
        t.insert(
            6,
            ev(
                5,
                Event::Notified {
                    key: 1,
                    life: 1,
                    pred: 0,
                },
            ),
        );
        let mut r = matching_report();
        r.notifications += 1;
        let v = check_trace(&Chain, &t, &r, OracleMode::Concurrent);
        assert!(v.iter().any(|v| v.guarantee == "G3"), "got {v:?}");
    }

    #[test]
    fn compute_with_missing_notification_is_g3_strict() {
        let t = vec![
            ev(0, Event::Inserted { key: 1 }),
            ev(1, Event::Inserted { key: 0 }),
            ev(
                2,
                Event::Notified {
                    key: 0,
                    life: 1,
                    pred: 0,
                },
            ),
            ev(3, Event::Computed { key: 0, life: 1 }),
            ev(4, Event::Completed { key: 0, life: 1 }),
            // Sink computes after only one of its two required notifies.
            ev(
                5,
                Event::Notified {
                    key: 1,
                    life: 1,
                    pred: 0,
                },
            ),
            ev(6, Event::Computed { key: 1, life: 1 }),
            ev(7, Event::Completed { key: 1, life: 1 }),
        ];
        let mut r = matching_report();
        r.notifications = 2;
        let v = check_trace(&Chain, &t, &r, OracleMode::Strict);
        assert!(v.iter().any(|v| v.guarantee == "G3"), "got {v:?}");
    }

    #[test]
    fn double_recovery_same_life_is_g1() {
        let mut t = clean_chain_trace();
        t.push(ev(
            9,
            Event::FaultObserved {
                source: 0,
                kind: FaultKind::Descriptor,
            },
        ));
        t.push(ev(
            10,
            Event::RecoveryStarted {
                key: 0,
                new_life: 2,
            },
        ));
        t.push(ev(
            11,
            Event::RecoveryStarted {
                key: 0,
                new_life: 2,
            },
        ));
        let mut r = matching_report();
        r.recoveries = 2;
        let v = check_trace(&Chain, &t, &r, OracleMode::Concurrent);
        assert!(v.iter().any(|v| v.guarantee == "G1"), "got {v:?}");
    }

    #[test]
    fn stale_incarnation_recovery_is_g2() {
        let mut t = clean_chain_trace();
        t.push(ev(
            9,
            Event::FaultObserved {
                source: 0,
                kind: FaultKind::Descriptor,
            },
        ));
        // Skips life 2: not a fresh incarnation. (Strict-only: emission
        // order around replace_task is not authoritative on a pool.)
        t.push(ev(
            10,
            Event::RecoveryStarted {
                key: 0,
                new_life: 3,
            },
        ));
        let mut r = matching_report();
        r.recoveries = 1;
        let v = check_trace(&Chain, &t, &r, OracleMode::Strict);
        assert!(v.iter().any(|v| v.guarantee == "G2"), "got {v:?}");
    }

    #[test]
    fn unexplained_reset_is_g5() {
        let mut t = clean_chain_trace();
        t.push(ev(9, Event::Reset { key: 1, life: 1 }));
        let mut r = matching_report();
        r.resets = 1;
        let v = check_trace(&Chain, &t, &r, OracleMode::Concurrent);
        assert!(v.iter().any(|v| v.guarantee == "G5"), "got {v:?}");
    }

    #[test]
    fn unhandled_fault_is_g6() {
        let mut t = clean_chain_trace();
        t.push(ev(
            9,
            Event::FaultObserved {
                source: 0,
                kind: FaultKind::Data,
            },
        ));
        let v = check_trace(&Chain, &t, &matching_report(), OracleMode::Concurrent);
        assert!(v.iter().any(|v| v.guarantee == "G6"), "got {v:?}");
    }

    #[test]
    fn quiesced_incomplete_run_is_g4() {
        // The trace itself is internally consistent, but the run returned
        // without completing the sink: a notification was lost.
        let mut r = matching_report();
        r.sink_completed = false;
        let v = check_trace(&Chain, &clean_chain_trace(), &r, OracleMode::Strict);
        assert!(v.iter().any(|v| v.guarantee == "G4"), "got {v:?}");
    }

    #[test]
    fn report_mismatch_is_caught() {
        let mut r = matching_report();
        r.computes += 5;
        let v = check_trace(&Chain, &clean_chain_trace(), &r, OracleMode::Strict);
        assert!(v.iter().any(|v| v.guarantee == "report"), "got {v:?}");
        // A wrong N(A) is caught even when `computes` and the distinct
        // count agree with the trace.
        type Tamper = fn(&mut RunReport);
        let tampered: [(&str, Tamper); 2] = [
            ("re_executions", |r| r.re_executions += 1),
            ("max_executions_one_task", |r| r.max_executions_one_task = 2),
        ];
        for (field, tamper) in tampered {
            let mut r = matching_report();
            tamper(&mut r);
            let v = check_trace(&Chain, &clean_chain_trace(), &r, OracleMode::Strict);
            assert!(
                v.iter()
                    .any(|v| v.guarantee == "report" && v.message.contains(field)),
                "{field}: got {v:?}"
            );
        }
    }

    #[test]
    fn result_equivalence_flags_divergence() {
        let v = check_result_equivalence(&[1, 2, 3], |k| Some(k as u64), |_| Some(1));
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.guarantee == "result"));
        let ok = check_result_equivalence(&[1, 2], |k| Some(k as u64), |k| Some(k as u64));
        assert!(ok.is_empty());
    }

    #[test]
    fn failure_report_json_roundtrips_fields() {
        let sites = [FaultSite {
            key: 7,
            phase: Phase::AfterCompute,
            fires: 2,
        }];
        let viols = [Violation {
            guarantee: "G3",
            message: "dup \"notify\"".into(),
        }];
        let evs = clean_chain_trace();
        let rep = FailureReport {
            label: "grid 4x4".into(),
            seed: 99,
            sites: &sites,
            violations: &viols,
            events: &evs,
        };
        let json = rep.to_json();
        assert!(json.contains("\"seed\": 99"));
        assert!(json.contains("\"AfterCompute\""));
        assert!(json.contains("dup \\\"notify\\\""));
        let dir = std::env::temp_dir().join("ft-oracle-test-dump");
        let _ = std::fs::remove_dir_all(&dir);
        let path = rep.write_to(&dir).unwrap();
        assert!(path.exists());
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("\"label\": \"grid 4x4\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
