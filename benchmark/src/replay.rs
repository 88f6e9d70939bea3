//! Layer replays: tight loops over each layer's public API, from outside.
//!
//! Each replay isolates one operation a scheduler run performs per task,
//! per edge or per instance, and reports the median over nine batches in
//! ns (or µs) per operation. Together with the operation counts per task
//! they form the budget of `bench.budget_coverage`: the column that should
//! sum to `core.engine.sched_ns_per_task`. Replays marked ‖ run one
//! competing thread, because the uncontended number is not the one a
//! 2-worker run pays.
//!
//! All replays are workload-independent; the traced pass of every workload
//! reports them so a per-layer result is complete on its own.

use crate::stats::median;
use ft_cmap::ShardedMap;
use ft_steal::arena::Arena;
use ft_steal::deque::{self, Steal};
use ft_steal::injector::Injector;
use ft_steal::instance::AdmissionGate;
use ft_steal::latch::CountLatch;
use ft_steal::pool::{Executor, Job, Pool, Scope, SpawnHost};
use ft_steal::priority::{PrioInjector, Priority};
use nabbit_ft::bitvec::AtomicBitVec;
use nabbit_ft::blocks::{BlockStore, Retention};
use nabbit_ft::fault::Fault;
use nabbit_ft::graph::{ComputeCtx, Key, TaskGraph};
use nabbit_ft::inject::{FaultPlan, Phase};
use nabbit_ft::metrics::RunMetrics;
use nabbit_ft::scheduler::{FtScheduler, GraphService};
use nabbit_ft::task::{BaseDesc, FtDesc, NotifyCells, Take};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per replay (the first, untimed-in-effect, warms caches and
/// is discarded).
pub const BATCHES: usize = 9;

/// Median ns per operation: `batch(ops)` performs `ops` operations and is
/// timed as a whole.
fn ns_per_op(ops: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(ops);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(ops);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Like [`ns_per_op`], with an untimed `setup` before every batch.
fn ns_per_op_fresh<S>(
    ops: u64,
    mut setup: impl FnMut() -> S,
    mut batch: impl FnMut(&mut S, u64),
) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    for i in 0..=BATCHES {
        let mut state = setup();
        let t = Instant::now();
        batch(&mut state, ops);
        let ns = t.elapsed().as_nanos() as f64 / ops as f64;
        if i > 0 {
            samples.push(ns);
        }
    }
    median(&samples)
}

/// A host that drops whatever is spawned into it: lets a replay run a
/// [`Job`] without a pool.
struct NullHost;

impl SpawnHost for NullHost {
    fn spawn_job(&self, job: Job) {
        drop(job);
    }
    fn num_threads(&self) -> usize {
        1
    }
    fn worker_index(&self) -> Option<usize> {
        None
    }
}

/// The smallest graph there is: one task, no edges.
struct OneTask;

impl TaskGraph for OneTask {
    fn sink(&self) -> Key {
        0
    }
    fn predecessors(&self, _key: Key) -> Vec<Key> {
        Vec::new()
    }
    fn predecessors_into(&self, _key: Key, out: &mut Vec<Key>) {
        out.clear();
    }
    fn successors(&self, _key: Key) -> Vec<Key> {
        Vec::new()
    }
    fn out_degree(&self, _key: Key) -> usize {
        0
    }
    fn compute(&self, _key: Key, _ctx: &ComputeCtx<'_>) -> Result<(), Fault> {
        Ok(())
    }
}

/// A scattered walk over `0..n` (`n` a power of two): defeats the
/// prefetcher without an RNG call per operation.
#[inline]
fn scatter(i: u64, n: u64) -> i64 {
    (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17 & (n - 1)) as i64
}

/// Element of the arena replays: the size of a task descriptor's fixed part.
type Cell128 = [u64; 16];

/// Run every replay. `ops` is the operation count of a cheap (tens of ns)
/// replay's batch; expensive replays scale it down. Returns
/// `(metric name, value)` pairs with full per-layer names.
pub fn run_all(pool: &Pool, ops: u64) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let micro = (ops / 64).max(16);
    let us = |ns: f64| ns / 1000.0;

    // ---- steal.deque ---------------------------------------------------
    let (w, _s) = deque::deque::<u64>();
    out.push((
        "steal.deque.push_pop_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                w.push(i);
                black_box(w.pop());
            }
        }),
    ));
    out.push(("steal.deque.steal_ns", contended_steal(ops / 4)));

    // ---- steal.injector / steal.priority -------------------------------
    let inj = Injector::<u64>::new();
    out.push((
        "steal.injector.push_steal_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                inj.push(i);
                black_box(inj.steal());
            }
        }),
    ));
    let (dest, _ds) = deque::deque::<u64>();
    out.push((
        "steal.injector.batch_steal_ns_per_item",
        ns_per_op(ops, |n| {
            // Fill, then drain by batch: the pattern of a worker picking up
            // a burst of external submissions.
            let mut left = n;
            while left > 0 {
                let burst = left.min(256);
                for i in 0..burst {
                    inj.push(i);
                }
                while let Some(v) = inj.steal_batch_and_pop(&dest) {
                    black_box(v);
                    while let Some(v) = dest.pop() {
                        black_box(v);
                    }
                }
                left -= burst;
            }
        }),
    ));
    let prio = PrioInjector::<u64>::new();
    out.push((
        "steal.priority.push_steal_hot_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                prio.push(i, Priority::High);
                black_box(prio.steal());
            }
        }),
    ));

    // ---- steal.arena ---------------------------------------------------
    out.push((
        "steal.arena.alloc_ns",
        ns_per_op_fresh(ops, Arena::<Cell128>::new, |arena, n| {
            for i in 0..n {
                black_box(arena.alloc([i; 16]));
            }
        }),
    ));
    out.push((
        "steal.arena.new_drop_us",
        us(ns_per_op(micro, |n| {
            for i in 0..n {
                let arena = Arena::<Cell128>::new();
                black_box(arena.alloc([i; 16]));
            }
        })),
    ));

    // ---- steal.job -----------------------------------------------------
    let host = NullHost;
    let scope = Scope::for_host(&host);
    out.push((
        "steal.job.new_run_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                // Three captured words: the shape of an engine job.
                let (a, b, c) = (i, i + 1, i + 2);
                black_box(Job::new(move |_s| {
                    black_box(a ^ b ^ c);
                }))
                .run(&scope);
            }
        }),
    ));

    // ---- steal.pool / steal.instance -----------------------------------
    out.push((
        "steal.pool.spawn_roundtrip_us",
        us(ns_per_op(micro, |n| {
            for _ in 0..n {
                pool.run_until_complete(|s| s.spawn(|_| {}));
            }
        })),
    ));
    let latch = CountLatch::new();
    latch.increment(); // sentinel: the pairs below never trip the latch
    out.push((
        "steal.pool.latch_inc_dec_ns",
        ns_per_op(ops, |n| {
            for _ in 0..n {
                latch.increment();
                black_box(latch.decrement());
            }
        }),
    ));
    out.push((
        "steal.instance.root_wait_us",
        us(ns_per_op(micro, |n| {
            for _ in 0..n {
                pool.submit_instance(Job::new(|_| {}), None).wait();
            }
        })),
    ));
    let gate = AdmissionGate::new(8);
    out.push((
        "steal.instance.gate_acquire_release_ns",
        ns_per_op(ops, |n| {
            for _ in 0..n {
                black_box(gate.try_acquire().is_ok());
                gate.release();
            }
        }),
    ));

    // ---- cmap.map ------------------------------------------------------
    const MAP_KEYS: u64 = 1 << 16;
    let map_ops = ops.min(MAP_KEYS);
    out.push((
        "cmap.map.insert_ns",
        ns_per_op_fresh(map_ops, ShardedMap::<u64>::new, |map, n| {
            for i in 0..n {
                black_box(map.insert_if_absent(i as i64, || i));
            }
        }),
    ));
    let map = ShardedMap::<u64>::new();
    for k in 0..MAP_KEYS {
        map.insert_if_absent(k as i64, || k);
    }
    out.push((
        "cmap.map.get_hit_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                black_box(map.get(scatter(i, MAP_KEYS)));
            }
        }),
    ));
    out.push((
        "cmap.map.get_miss_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                black_box(map.get(scatter(i, MAP_KEYS) + MAP_KEYS as i64));
            }
        }),
    ));
    out.push((
        "cmap.map.get_under_insert_ns",
        get_under_insert(&map, ops, MAP_KEYS),
    ));
    out.push((
        "cmap.map.replace_ns",
        ns_per_op(ops / 4, |n| {
            for i in 0..n {
                black_box(map.replace(scatter(i, MAP_KEYS), i));
            }
        }),
    ));
    out.push((
        "cmap.map.new_drop_us",
        us(ns_per_op(micro, |n| {
            for i in 0..n {
                let m = ShardedMap::<u64>::new();
                black_box(m.insert_if_absent(i as i64, || i));
            }
        })),
    ));

    // ---- core.bitvec ---------------------------------------------------
    // 33 bits: the fan-out DAG's 32 predecessors plus the self bit.
    let bits = AtomicBitVec::new_all_set(33);
    out.push((
        "core.bitvec.unset_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                let bit = (i % 33) as usize;
                if bit == 0 {
                    bits.set_all();
                }
                black_box(bits.unset(bit));
            }
        }),
    ));
    out.push((
        "core.bitvec.new_ns_64bit",
        ns_per_op(ops, |n| {
            for _ in 0..n {
                black_box(AtomicBitVec::new_all_set(black_box(64)));
            }
        }),
    ));

    // ---- core.task -----------------------------------------------------
    out.push((
        "core.task.notify_inline_ns_per_edge",
        notify_ns_per_edge(ops, 2),
    ));
    out.push((
        "core.task.notify_spill_ns_per_edge",
        notify_ns_per_edge(ops, 64),
    ));
    let preds: [Key; 2] = [1, 2];
    out.push((
        "core.task.basedesc_new_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                black_box(BaseDesc::new(i as Key, black_box(&preds), 2));
            }
        }),
    ));
    out.push((
        "core.task.ftdesc_new_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                black_box(FtDesc::new(i as Key, 1, black_box(&preds), 2));
            }
        }),
    ));

    // ---- core.blocks ---------------------------------------------------
    // Tables are copy-on-write and retired tables live until the store
    // drops, so batches are small, stores are fresh, and versions per block
    // stay in the range LU produces (≤ 8).
    const BLOCKS: usize = 1 << 12;
    let block_ops = (ops / 4).clamp(64, (BLOCKS * 8) as u64);
    let publish = |retention: Retention| {
        ns_per_op_fresh(
            block_ops,
            || BlockStore::<f64>::new(BLOCKS, retention),
            |store, n| {
                for i in 0..n as usize {
                    store.publish(i % BLOCKS, (i / BLOCKS) as u64, 1, Vec::new());
                }
            },
        )
    };
    out.push(("core.blocks.publish_ns", publish(Retention::KeepAll)));
    out.push((
        "core.blocks.publish_evict_ns",
        publish(Retention::KeepLast(2)),
    ));
    let store = BlockStore::<f64>::new(BLOCKS, Retention::KeepAll);
    for v in 0..4 {
        for b in 0..BLOCKS {
            store.publish(b, v, 1, vec![v as f64; 8]);
        }
    }
    out.push((
        "core.blocks.read_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                let b = scatter(i, BLOCKS as u64) as usize;
                black_box(store.read(b, i & 3).is_ok());
            }
        }),
    ));
    out.push((
        "core.blocks.read_latest_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                black_box(
                    store
                        .read_latest(scatter(i, BLOCKS as u64) as usize)
                        .is_ok(),
                );
            }
        }),
    ));
    out.push(("core.blocks.read_under_publish_ns", read_under_publish(ops)));

    // ---- core.inject ---------------------------------------------------
    let plan = FaultPlan::none();
    out.push((
        "core.inject.fire_miss_ns",
        ns_per_op(ops, |n| {
            for i in 0..n {
                black_box(plan.fire(black_box(i as Key), Phase::AfterCompute));
            }
        }),
    ));
    out.push((
        "core.inject.record_compute_ns",
        ns_per_op_fresh(ops.min(MAP_KEYS), RunMetrics::new, |metrics, n| {
            for i in 0..n {
                black_box(metrics.record_compute(i as Key));
            }
        }),
    ));

    // ---- core.service --------------------------------------------------
    let svc = GraphService::new(pool);
    let graph: Arc<dyn TaskGraph> = Arc::new(OneTask);
    let mut submit_ns = Vec::with_capacity(BATCHES);
    let mut instance_ns = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let (mut in_submit, batch_start) = (0u128, Instant::now());
        for _ in 0..micro {
            let engine = FtScheduler::new(Arc::clone(&graph));
            let t = Instant::now();
            let ticket = svc.submit(&engine);
            in_submit += t.elapsed().as_nanos();
            if let Ok(ticket) = ticket {
                black_box(ticket.wait().report.computes);
            }
        }
        submit_ns.push(in_submit as f64 / micro as f64);
        instance_ns.push(batch_start.elapsed().as_nanos() as f64 / micro as f64);
    }
    out.push(("core.service.submit_us", us(median(&submit_ns))));
    out.push(("core.service.empty_instance_us", us(median(&instance_ns))));

    // ---- bench ---------------------------------------------------------
    out.push((
        "bench.timer_ns",
        ns_per_op(ops, |n| {
            for _ in 0..n {
                black_box(Instant::now());
            }
        }),
    ));
    out
}

/// ‖ ns per successful steal while the owner keeps pushing.
fn contended_steal(ops: u64) -> f64 {
    let (w, s) = deque::deque::<u64>();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = 0u64;
            // ord: Relaxed — a stop flag; the scope join orders the rest.
            while !stop.load(Ordering::Relaxed) {
                if w.len() < 1024 {
                    w.push(i);
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let ns = ns_per_op(ops, |n| {
            let mut got = 0;
            while got < n {
                match s.steal() {
                    Steal::Success(v) => {
                        black_box(v);
                        got += 1;
                    }
                    Steal::Empty | Steal::Retry => std::hint::spin_loop(),
                }
            }
        });
        stop.store(true, Ordering::Relaxed);
        ns
    })
}

/// ‖ ns per hit while another thread inserts fresh keys into the same map.
fn get_under_insert(map: &ShardedMap<u64>, ops: u64, keys: u64) -> f64 {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut k = 2 * keys as i64;
            // ord: Relaxed — a stop flag; the scope join orders the rest.
            while !stop.load(Ordering::Relaxed) {
                map.insert_if_absent(k, || 0);
                k += 1;
            }
        });
        let ns = ns_per_op(ops, |n| {
            for i in 0..n {
                black_box(map.get(scatter(i, keys)));
            }
        });
        stop.store(true, Ordering::Relaxed);
        ns
    })
}

/// ‖ ns per `read_latest` while another thread publishes new versions of
/// the same blocks under `KeepLast(2)`.
fn read_under_publish(ops: u64) -> f64 {
    const BLOCKS: usize = 64;
    let store = BlockStore::<f64>::new(BLOCKS, Retention::KeepLast(2));
    for b in 0..BLOCKS {
        store.publish(b, 0, 1, vec![0.0; 8]);
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut i = BLOCKS;
            // ord: Relaxed — a stop flag; the scope join orders the rest.
            // Retired tables live until the store drops; the cap bounds
            // what a slow reader can make this writer accumulate.
            while !stop.load(Ordering::Relaxed) && i < (1 << 21) {
                store.publish(i % BLOCKS, (i / BLOCKS) as u64, 1, vec![i as f64; 8]);
                i += 1;
            }
        });
        let ns = ns_per_op(ops, |n| {
            for i in 0..n {
                black_box(store.read_latest(i as usize % BLOCKS).is_ok());
            }
        });
        stop.store(true, Ordering::Relaxed);
        ns
    })
}

/// ns per edge of the notification protocol on cells of out-degree
/// `degree`: claim + publish on the registrant side, scan + take on the
/// drainer side (cells with `degree ≤ 4` are inline, larger ones spill).
fn notify_ns_per_edge(ops: u64, degree: usize) -> f64 {
    let rounds = (ops / degree as u64).max(1);
    ns_per_op(rounds * degree as u64, |_| {
        for r in 0..rounds {
            let cells = NotifyCells::new(degree);
            for e in 0..degree {
                let slot = cells.claim();
                cells.publish(slot, (r as usize * degree + e) as Key);
            }
            for slot in 0..cells.len() {
                if let Take::Deliver(k) = cells.take_at(slot) {
                    black_box(k);
                }
            }
        }
    })
}
