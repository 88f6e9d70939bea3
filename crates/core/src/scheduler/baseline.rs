//! The baseline NABBIT scheduler — Figure 2, non-shaded portions only.
//!
//! [`BaselineScheduler`] is [`Engine<NoFt>`]: the shared traversal of
//! [`super::engine`] instantiated with a policy whose error type is
//! [`Infallible`] and whose descriptor is the FT-state-free
//! [`BaseDesc`]. After monomorphization every guard is a constant
//! `Ok(())` and every catch arm is uninhabited, so the compiled scheduler
//! contains no fault-tolerance branches or fields — the paper's "baseline
//! version includes no additional data structures or statements introduced
//! for fault tolerance".
//!
//! A compute that returns a fault panics: the baseline, like the paper's,
//! has no recovery path.

use super::engine::{Engine, FtPolicy};
use crate::bitvec::Clear;
use crate::fault::Fault;
use crate::graph::{Key, TaskGraph};
use crate::inject::Phase;
use crate::task::{BaseDesc, Status};
use crate::trace::Event;
use ft_steal::arena::ArenaRef;
use ft_steal::pool::Scope;
use std::convert::Infallible;
use std::sync::Arc;

/// The no-fault-tolerance policy: all guards pass, no probes, no recovery.
pub struct NoFt;

impl FtPolicy for NoFt {
    type Desc = BaseDesc;
    type Err = Infallible;

    fn make_desc(&self, graph: &dyn TaskGraph, key: Key, scratch: &mut Vec<Key>) -> BaseDesc {
        graph.predecessors_into(key, scratch);
        BaseDesc::new(key, scratch, graph.out_degree(key))
    }

    #[inline]
    fn emit(&self, _worker: Option<usize>, _event: Event) {}

    #[inline]
    fn check(_d: &BaseDesc) -> Result<(), Infallible> {
        Ok(())
    }

    #[inline]
    fn read_status(d: &BaseDesc) -> Result<Status, Infallible> {
        Ok(d.status())
    }

    #[inline]
    fn check_dependable(_b: &BaseDesc) -> Result<(), Infallible> {
        Ok(())
    }

    /// Every notification is a join unit of its own.
    #[inline]
    fn consume_notification(
        _engine: &Engine<Self>,
        _a: &BaseDesc,
        _key: Key,
        _pkey: Key,
        _ind: Option<usize>,
        _life: u64,
        _worker: Option<usize>,
    ) -> Result<Clear, Infallible> {
        Ok(Clear::Emptied)
    }

    #[inline]
    fn join_underflow_ok(&self) -> bool {
        false
    }

    #[inline]
    fn is_recovery_exec(_d: &BaseDesc) -> bool {
        false
    }

    #[inline]
    fn probe(
        _engine: &Engine<Self>,
        _a: &BaseDesc,
        _key: Key,
        _phase: Phase,
        _worker: Option<usize>,
    ) {
    }

    fn compute_error(_engine: &Engine<Self>, f: Fault) -> Infallible {
        panic!("baseline scheduler has no recovery path: {f}")
    }

    fn on_guard_fault(
        _engine: &Engine<Self>,
        _s: &Scope<'_>,
        _w: Option<usize>,
        f: Infallible,
        _key: Key,
        _life: u64,
    ) {
        match f {}
    }

    fn on_compute_fault(
        _engine: &Engine<Self>,
        _s: &Scope<'_>,
        _w: Option<usize>,
        _a: ArenaRef<BaseDesc>,
        _key: Key,
        _life: u64,
        f: Infallible,
    ) {
        match f {}
    }
}

/// The non-fault-tolerant NABBIT scheduler.
pub type BaselineScheduler = Engine<NoFt>;

impl Engine<NoFt> {
    /// Create a scheduler for `graph`. One scheduler instance = one run.
    pub fn new(graph: Arc<dyn TaskGraph>) -> Arc<Self> {
        Engine::with_policy(graph, NoFt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ComputeCtx;
    use crate::metrics::RunReport;
    use ft_steal::pool::{Pool, PoolConfig};
    use ft_sync::atomic::{AtomicU64, Ordering};
    use parking_lot::Mutex;
    use std::collections::HashSet;

    /// A 2-D wavefront grid graph: (i,j) depends on (i-1,j) and (i,j-1);
    /// sink is (n-1, n-1); key = i*n + j.
    struct Grid {
        n: i64,
        computed: Mutex<Vec<Key>>,
    }

    impl Grid {
        fn new(n: i64) -> Self {
            Grid {
                n,
                computed: Mutex::new(Vec::new()),
            }
        }
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
            let mut su = Vec::new();
            if i + 1 < self.n {
                su.push((i + 1) * self.n + j);
            }
            if j + 1 < self.n {
                su.push(i * self.n + (j + 1));
            }
            su
        }
        fn compute(&self, k: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
            self.computed.lock().push(k);
            Ok(())
        }
    }

    fn run_grid(n: i64, threads: usize) -> (Arc<Grid>, RunReport) {
        let g = Arc::new(Grid::new(n));
        let pool = Pool::new(PoolConfig::with_threads(threads));
        let sched = BaselineScheduler::new(Arc::clone(&g) as Arc<dyn TaskGraph>);
        let report = sched.run(&pool);
        (g, report)
    }

    #[test]
    fn executes_every_task_exactly_once() {
        let (g, report) = run_grid(16, 4);
        let order = g.computed.lock();
        assert_eq!(order.len(), 256);
        let unique: HashSet<_> = order.iter().collect();
        assert_eq!(unique.len(), 256, "no task executed twice");
        assert!(report.sink_completed);
        assert_eq!(report.computes, 256);
        assert_eq!(report.re_executions, 0);
    }

    #[test]
    fn respects_dependence_order() {
        let (g, _) = run_grid(8, 4);
        let order = g.computed.lock();
        let pos: std::collections::HashMap<Key, usize> =
            order.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        for &k in order.iter() {
            for p in g.predecessors(k) {
                assert!(pos[&p] < pos[&k], "pred {p} must precede {k}");
            }
        }
    }

    #[test]
    fn single_task_graph() {
        struct One(AtomicU64);
        impl TaskGraph for One {
            fn sink(&self) -> Key {
                0
            }
            fn predecessors(&self, _: Key) -> Vec<Key> {
                vec![]
            }
            fn successors(&self, _: Key) -> Vec<Key> {
                vec![]
            }
            fn compute(&self, _: Key, _: &ComputeCtx<'_>) -> Result<(), Fault> {
                self.0.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
        let g = Arc::new(One(AtomicU64::new(0)));
        let pool = Pool::new(PoolConfig::with_threads(2));
        let sched = BaselineScheduler::new(Arc::clone(&g) as _);
        let report = sched.run(&pool);
        assert!(report.sink_completed);
        assert_eq!(g.0.load(Ordering::Relaxed), 1);
        assert_eq!(sched.tasks_created(), 1);
    }

    #[test]
    fn chain_graph_sequential_dependences() {
        struct Chain {
            len: i64,
            acc: AtomicU64,
        }
        impl TaskGraph for Chain {
            fn sink(&self) -> Key {
                self.len - 1
            }
            fn predecessors(&self, k: Key) -> Vec<Key> {
                if k == 0 {
                    vec![]
                } else {
                    vec![k - 1]
                }
            }
            fn successors(&self, k: Key) -> Vec<Key> {
                if k == self.len - 1 {
                    vec![]
                } else {
                    vec![k + 1]
                }
            }
            fn compute(&self, k: Key, _: &ComputeCtx<'_>) -> Result<(), Fault> {
                // Monotone check: k-th task sees exactly k prior computes.
                let prev = self.acc.fetch_add(1, Ordering::SeqCst);
                assert_eq!(prev, k as u64, "chain executed out of order");
                Ok(())
            }
        }
        let g = Arc::new(Chain {
            len: 200,
            acc: AtomicU64::new(0),
        });
        let pool = Pool::new(PoolConfig::with_threads(4));
        let report = BaselineScheduler::new(Arc::clone(&g) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.computes, 200);
    }

    #[test]
    fn wide_fanin_graph() {
        // Sink depends on 500 sources: stresses the notify array and the
        // join counter contention path.
        struct Fan {
            width: i64,
        }
        impl TaskGraph for Fan {
            fn sink(&self) -> Key {
                self.width
            }
            fn predecessors(&self, k: Key) -> Vec<Key> {
                if k == self.width {
                    (0..self.width).collect()
                } else {
                    vec![]
                }
            }
            fn successors(&self, k: Key) -> Vec<Key> {
                if k == self.width {
                    vec![]
                } else {
                    vec![self.width]
                }
            }
            fn compute(&self, _: Key, _: &ComputeCtx<'_>) -> Result<(), Fault> {
                Ok(())
            }
        }
        let g = Arc::new(Fan { width: 500 });
        let pool = Pool::new(PoolConfig::with_threads(8));
        let report = BaselineScheduler::new(Arc::clone(&g) as _).run(&pool);
        assert!(report.sink_completed);
        assert_eq!(report.computes, 501);
    }

    #[test]
    fn repeated_runs_fresh_scheduler() {
        let pool = Pool::new(PoolConfig::with_threads(4));
        for _ in 0..3 {
            let g = Arc::new(Grid::new(10));
            let report = BaselineScheduler::new(Arc::clone(&g) as _).run(&pool);
            assert!(report.sink_completed);
            assert_eq!(report.computes, 100);
        }
    }
}
