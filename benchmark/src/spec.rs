//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds.
//!
//! This table is the single source of truth inside the program; the root
//! `BENCHMARK.json` must say the same thing, and `tests/contract.rs`
//! fails when the two drift apart.

/// Seconds one run measures when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Workload seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughputs, speed-ups).
    Higher,
    /// Smaller values are better (times, ratios over a baseline, memory).
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old` (negative
    /// when `new` is better).
    pub fn worse_by(self, old: f64, new: f64) -> f64 {
        if old == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (old - new) / old.abs(),
            Better::Lower => (new - old) / old.abs(),
        }
    }
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Full metric name (per-layer names carry their layer prefix).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The four workloads (names are normative).
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "grid_wavefront",
        why: "256x256 wavefront, in/out-degree 2, one hash per task: per-task scheduler cost (engine, task map, arena, deque)",
    },
    WorkloadSpec {
        name: "fanout_dag",
        why: "seeded 32x64 layered random DAG, degree ~32, zero work: per-edge notification cost, where the FT tax must show",
    },
    WorkloadSpec {
        name: "lu_tiles",
        why: "blocked LU n=960 b=48 under KeepLast(2): compute-bound, the paper's regime; scheduler changes predict no change here",
    },
    WorkloadSpec {
        name: "service_stream",
        why: "closed loop of 8 in-flight mixed instances through one GraphService: per-instance lifecycle, admission and wake-ups",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off, reported by every
/// workload. An *instance* is one graph execution: one `ft` run of a
/// one-shot workload, one submitted graph of `service_stream`.
pub const END_TO_END: [MetricSpec; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("tasks_per_s", "tasks/s", Higher, 0.20),
    e2e("base_tasks_per_s", "tasks/s", Higher, 0.25),
    e2e("ft_time_ratio", "ratio", Lower, 0.20),
    e2e("recovery_time_ratio", "ratio", Lower, 0.10),
    e2e("speedup_vs_seq", "ratio", Higher, 0.25),
    e2e("instances_per_s", "inst/s", Higher, 0.20),
    e2e("instance_ms_p50", "ms", Lower, 0.20),
    e2e("instance_ms_p90", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Per-layer metrics, reported by the `--trace 1` pass. None is gated.
pub const PER_LAYER: [MetricSpec; 60] = [
    layer("steal.deque.push_pop_ns", "ns", Lower),
    layer("steal.deque.steal_ns", "ns", Lower),
    layer("steal.deque.steals_per_ktask", "1/ktask", Lower),
    layer("steal.deque.failed_steal_frac", "ratio", Lower),
    layer("steal.injector.push_steal_ns", "ns", Lower),
    layer("steal.injector.batch_steal_ns_per_item", "ns", Lower),
    layer("steal.injector.steals_per_kinstance", "1/kinst", Lower),
    layer("steal.priority.push_steal_hot_ns", "ns", Lower),
    layer("steal.arena.alloc_ns", "ns", Lower),
    layer("steal.arena.new_drop_us", "us", Lower),
    layer("steal.job.new_run_ns", "ns", Lower),
    layer("steal.pool.spawn_roundtrip_us", "us", Lower),
    layer("steal.pool.latch_inc_dec_ns", "ns", Lower),
    layer("steal.pool.sleeps_per_ktask", "1/ktask", Lower),
    layer("steal.pool.nonwork_frac", "ratio", Lower),
    layer("steal.instance.root_wait_us", "us", Lower),
    layer("steal.instance.gate_acquire_release_ns", "ns", Lower),
    layer("cmap.map.insert_ns", "ns", Lower),
    layer("cmap.map.get_hit_ns", "ns", Lower),
    layer("cmap.map.get_miss_ns", "ns", Lower),
    layer("cmap.map.get_under_insert_ns", "ns", Lower),
    layer("cmap.map.replace_ns", "ns", Lower),
    layer("cmap.map.new_drop_us", "us", Lower),
    layer("core.bitvec.unset_ns", "ns", Lower),
    layer("core.bitvec.new_ns_64bit", "ns", Lower),
    layer("core.task.notify_inline_ns_per_edge", "ns", Lower),
    layer("core.task.notify_spill_ns_per_edge", "ns", Lower),
    layer("core.task.basedesc_new_ns", "ns", Lower),
    layer("core.task.ftdesc_new_ns", "ns", Lower),
    layer("core.blocks.publish_ns", "ns", Lower),
    layer("core.blocks.publish_evict_ns", "ns", Lower),
    layer("core.blocks.read_ns", "ns", Lower),
    layer("core.blocks.read_latest_ns", "ns", Lower),
    layer("core.blocks.read_under_publish_ns", "ns", Lower),
    layer("core.blocks.overwrite_faults_per_ktask", "1/ktask", Lower),
    layer("core.inject.fire_miss_ns", "ns", Lower),
    layer("core.inject.record_compute_ns", "ns", Lower),
    layer("core.engine.sched_ns_per_task", "ns", Lower),
    layer("core.engine.sched_ns_per_edge", "ns", Lower),
    layer("core.engine.graph_cb_ns_per_task", "ns", Lower),
    layer("core.engine.notifications_per_task", "count", Lower),
    layer("core.ft.tax_ns_per_task", "ns", Lower),
    layer("core.ft.tax_ns_per_edge", "ns", Lower),
    layer("core.ft.dup_notifications_per_ktask", "1/ktask", Lower),
    layer("core.recovery.reexec_per_fault", "count", Lower),
    layer("core.recovery.recoveries_per_fault", "count", Lower),
    layer("core.recovery.resets_per_fault", "count", Lower),
    layer("core.recovery.suppressed_frac", "ratio", Lower),
    layer("core.recovery.episode_us_p50", "us", Lower),
    layer("core.recovery.ns_per_reexec", "ns", Lower),
    layer("core.service.submit_us", "us", Lower),
    layer("core.service.empty_instance_us", "us", Lower),
    layer("core.service.instance_ms_p99", "ms", Lower),
    layer("core.service.rejected_frac", "ratio", Lower),
    layer("apps.lu.compute_us_per_task_p50", "us", Lower),
    layer("apps.lu.compute_frac", "ratio", Higher),
    layer("apps.lu.seq_s", "s", Lower),
    layer("bench.trace_overhead_ratio", "ratio", Lower),
    layer("bench.timer_ns", "ns", Lower),
    layer("bench.budget_coverage", "ratio", Higher),
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut seen = HashSet::new();
        let legal = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64 && legal(name, "_.-"), "bad name {name}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16 && legal(m.unit, "_/%.-"),
                "bad unit {}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }

    #[test]
    fn bounds_respect_the_contract() {
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics are gated");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn worse_by_is_direction_aware() {
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worse_by(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worse_by(100.0, 120.0) < 0.0);
        assert_eq!(Better::Lower.worse_by(0.0, 1.0), 0.0);
    }
}
