//! Graph service walkthrough: one resident worker pool serving a stream of
//! concurrent graph instances (epochs), one of them fault-planned.
//!
//! Each submission is its own engine — its own task-map namespace, metrics,
//! recovery table and completion latch — so the faulted tenant's localized
//! recovery never leaks into its co-resident neighbors, and every ticket
//! yields an independent per-instance report.
//!
//! Run with: `cargo run --example graph_service`

use ft_steal::pool::{Pool, PoolConfig};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use nabbit_ft::inject::{FaultPlan, FaultSite, Phase};
use nabbit_ft::scheduler::{FtScheduler, GraphService, ServiceConfig};
use std::sync::Arc;

/// n×n wavefront grid; every compute does a little real work.
struct Grid {
    n: i64,
}

impl TaskGraph for Grid {
    fn sink(&self) -> Key {
        self.n * self.n - 1
    }
    fn predecessors(&self, k: Key) -> Vec<Key> {
        let (i, j) = (k / self.n, k % self.n);
        let mut p = Vec::new();
        if i > 0 {
            p.push((i - 1) * self.n + j);
        }
        if j > 0 {
            p.push(i * self.n + (j - 1));
        }
        p
    }
    fn successors(&self, k: Key) -> Vec<Key> {
        let (i, j) = (k / self.n, k % self.n);
        let mut s = Vec::new();
        if i + 1 < self.n {
            s.push((i + 1) * self.n + j);
        }
        if j + 1 < self.n {
            s.push(i * self.n + (j + 1));
        }
        s
    }
    fn compute(&self, _k: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        let mut acc = 1u64;
        for i in 1..500u64 {
            acc = acc.wrapping_mul(i) ^ (acc >> 7);
        }
        std::hint::black_box(acc);
        Ok(())
    }
}

fn main() {
    // One resident pool for the whole program: no per-graph spin-up.
    let pool = Pool::new(PoolConfig::with_threads(4));
    let service = GraphService::with_config(&pool, ServiceConfig { max_in_flight: 8 });

    println!("== one resident pool, six concurrent graph instances ==\n");

    // Six tenants of varying size; tenant 3 gets a fault plan that fails
    // three of its tasks (one of them on two consecutive incarnations).
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let n = 6 + 2 * (i % 3);
            let graph = Arc::new(Grid { n }) as Arc<dyn TaskGraph>;
            let sched = if i == 3 {
                FtScheduler::with_plan(
                    graph,
                    Arc::new(FaultPlan::new([
                        FaultSite::once(0, Phase::BeforeCompute),
                        FaultSite::once(n + 1, Phase::AfterCompute),
                        FaultSite {
                            key: 2 * n,
                            phase: Phase::AfterNotify,
                            fires: 2,
                        },
                    ])),
                )
            } else {
                FtScheduler::new(graph)
            };
            let ticket = service.submit(&sched).expect("within in-flight budget");
            println!(
                "submitted instance {} ({n}x{n} wavefront{})",
                ticket.id(),
                if i == 3 { ", fault-planned" } else { "" }
            );
            ticket
        })
        .collect();

    println!(
        "\n{} instances in flight; waiting...\n",
        service.in_flight()
    );

    for ticket in tickets {
        let done = ticket.wait();
        let r = &done.report;
        assert!(r.sink_completed, "Lemma 3: every sink completes");
        println!(
            "instance {}: computes={} injected={} recoveries={} re-executed={} \
             elapsed={:?}",
            done.id, r.computes, r.injected, r.recoveries, r.re_executions, r.elapsed,
        );
        if r.injected == 0 {
            assert_eq!(r.recoveries, 0, "clean epochs never observe recovery");
        }
    }

    let stats = service.stats();
    println!(
        "\nservice totals: submitted={} completed={} rejected={} in-flight={}",
        stats.submitted, stats.completed, stats.rejected, stats.in_flight
    );
    assert_eq!(stats.in_flight, 0);
    println!("all instances completed on the shared pool; faults stayed in their epoch");
}
