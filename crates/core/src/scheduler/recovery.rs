//! The recovery routines of Figure 3, as inherent methods on
//! [`Engine<FtRecovery>`] — the catch blocks of the generic traversal
//! dispatch here through [`FtPolicy`]'s
//! `on_guard_fault` / `on_compute_fault` hooks.
//!
//! * `RecoverTaskOnce` / `IsRecovering` — Guarantee 1: each failure is
//!   recovered at most once, arbitrated through the recovery table `R`
//!   (key → most recent life whose recovery has been initiated).
//! * `RecoverTask` — Guarantee 2: rather than restoring status from a
//!   backup, the failed task is **replaced** by a fresh incarnation
//!   (life + 1) and processed as a newly created task; Guarantee 4: the
//!   notify array is reconstructed by traversing successors
//!   (`ReinitNotifyEntry`); Guarantee 6: failures during recovery restart
//!   the recovery loop with yet another incarnation.
//! * `ResetNode` — Guarantee 5 support: a task whose *input* failed resets
//!   its join counter and bit vector and re-traverses its predecessors.

use super::engine::{with_pred_scratch, Engine, FtPolicy};
use super::ft::FtRecovery;
use crate::fault::Fault;
use crate::graph::Key;
use crate::task::{FtDesc, Status};
use crate::trace::Event;
use ft_cmap::ShardedMap;
use ft_steal::arena::ArenaRef;
use ft_steal::pool::Scope;
use ft_sync::atomic::Ordering;

impl Engine<FtRecovery> {
    /// `RecoverTaskOnce(key, life)`.
    pub(super) fn recover_task_once(&self, s: &Scope<'_>, w: Option<usize>, key: Key, life: u64) {
        if !self.is_recovering(key, life) {
            self.recover_task(s, w, key);
        } else {
            self.suppressed(w, key, life);
        }
    }

    /// Account one observer that lost the recovery claim (Guarantee 1).
    fn suppressed(&self, w: Option<usize>, key: Key, life: u64) {
        // ord: Relaxed — statistics counter read at quiescence.
        self.metrics
            .recoveries_suppressed
            .fetch_add(1, Ordering::Relaxed);
        self.policy.emit(w, Event::RecoverySuppressed { key, life });
    }

    /// `IsRecovering(key, life)`: returns `false` exactly once per
    /// incarnation — for the thread that claims the recovery.
    ///
    /// Paper: insert `(key, life)` into `R` if absent (first failure ever on
    /// this task → caller recovers); otherwise CAS the stored life from
    /// `life − 1` to `life` (first observer of *this* incarnation's failure
    /// → caller recovers). Both arms are one atomic read-modify-write here.
    ///
    /// A failed task is observed by every successor that touches it, and
    /// all but one of them lose the claim, so the table is consulted
    /// lock-free first: a stored life that cannot be advanced to `life`
    /// answers "already recovering" exactly as the locked update would at
    /// that instant. Only a possible claim takes the shard lock.
    pub(super) fn is_recovering(&self, key: Key, life: u64) -> bool {
        let rtable = self
            .policy
            .rtable
            .get_or_init(|| ShardedMap::with_shards(64));
        if matches!(rtable.get(key), Some(stored) if stored + 1 != life) {
            return true;
        }
        rtable.update_cas(key, |cur| match cur {
            None => (Some(life), false),
            Some(&stored) if stored + 1 == life => (Some(life), false),
            Some(_) => (None, true),
        })
    }

    /// `ReplaceTask(key)`: atomically swap in a fresh incarnation with
    /// life + 1; returns it with its life number.
    ///
    /// The replacement descriptor lives in the same epoch arena as the one
    /// it supersedes; superseded incarnations stay allocated (handles to
    /// them may still be in flight) and are reclaimed with the epoch. The
    /// new incarnation links to the one it supersedes (`prev`) rather than
    /// copying its execution count: the superseded incarnation may still be
    /// computing (an input-error observer can recover a task mid-compute),
    /// and its count is read along the chain only at quiescence.
    pub(super) fn replace_task(&self, key: Key) -> (ArenaRef<FtDesc>, u64) {
        self.map.update_cas(key, |cur| {
            let prev = cur.copied();
            let life = prev.map_or(0, |d| d.life) + 1;
            let d = with_pred_scratch(|scratch| {
                self.graph.predecessors_into(key, scratch);
                let out = self.graph.out_degree(key);
                let mut desc = FtDesc::new(key, life, scratch, out);
                desc.prev = prev;
                self.arena.alloc(desc)
            });
            (Some(d), (d, life))
        })
    }

    /// `RecoverTask(key)`: replace the incarnation, rebuild the notify
    /// array from successors, and re-execute as if newly created. Errors
    /// during recovery restart the loop with the next incarnation
    /// (Guarantee 6), unless another thread already claimed that new
    /// failure.
    pub(super) fn recover_task(&self, s: &Scope<'_>, w: Option<usize>, key: Key) {
        loop {
            // ord: Relaxed — statistics counter read at quiescence.
            self.metrics.recoveries.fetch_add(1, Ordering::Relaxed);
            let (t, life) = self.replace_task(key);
            // ord: Release — the recovery mark must be visible to whoever
            // acquires the replacement descriptor via the block table.
            t.is_recovery.store(true, Ordering::Release);
            self.policy.emit(
                w,
                Event::RecoveryStarted {
                    key,
                    new_life: life,
                },
            );

            let attempt: Result<(), Fault> = (|| {
                // "traverse successors to recreate notify arr."
                for skey in self.graph.successors(key) {
                    if let Some((sd, slife)) = self.get_task(skey) {
                        self.reinit_notify_entry(s, w, t, key, sd, skey, slife)?;
                    }
                    // A successor not yet in the map registers itself when
                    // its own traversal reaches the new incarnation.
                }
                Ok(())
            })();

            match attempt {
                Ok(()) => {
                    self.spawn_job(s, move |this, s, w| {
                        this.init_and_compute(s, w, t, key, life)
                    });
                    return;
                }
                Err(f) => {
                    // "if (!IsRecovering(key, life)) success = false":
                    // we claim the new incarnation's failure and retry;
                    // otherwise someone else owns it and we are done.
                    self.policy.emit(
                        w,
                        Event::FaultObserved {
                            source: f.source,
                            kind: f.kind,
                        },
                    );
                    if self.is_recovering(key, life) {
                        self.suppressed(w, key, life);
                        return;
                    }
                }
            }
        }
    }

    /// `ReinitNotifyEntry(T, key, S, skey, slife)`: if successor `S` is
    /// still Visited and has not consumed `T`'s notification (its bit for
    /// `key` is set), register it in the new incarnation's notify cells.
    ///
    /// The fresh incarnation **is** the generation tag: `ReplaceTask`
    /// allocated `t` with empty cells, so stale registrations on the
    /// superseded descriptor are never cleared in place — they are simply
    /// left behind, and any late delivery from the old incarnation's drain
    /// is absorbed by `S`'s notification bits (Guarantee 3). Registration
    /// goes through the same lock-free claim/publish protocol as the hot
    /// path (claims past the out-degree capacity land in the overflow
    /// chain); `t` cannot be draining yet — its `InitAndCompute` is
    /// spawned only after this traversal finishes and its join counter
    /// still holds the self-notification.
    ///
    /// An error *in S* triggers S's own recovery and does not abort the
    /// traversal; an error *in T* propagates ("else throw") so
    /// `RecoverTask` restarts with a fresh incarnation.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn reinit_notify_entry(
        &self,
        s: &Scope<'_>,
        w: Option<usize>,
        t: ArenaRef<FtDesc>,
        key: Key,
        sd: ArenaRef<FtDesc>,
        skey: Key,
        slife: u64,
    ) -> Result<(), Fault> {
        let attempt: Result<(), Fault> = (|| {
            sd.check()?;
            // "ignore Computed and Completed tasks" — a corrupt status
            // byte in S counts as an error in S.
            if sd.try_status()? != Status::Visited {
                return Ok(());
            }
            let ind = sd
                .pred_index(key)
                .ok_or_else(|| Fault::descriptor(skey, slife))?;
            if sd.bits.get(ind) {
                t.check()?;
                // A corrupt status byte in T surfaces here and propagates
                // (error in T). Self-delivery cannot trigger — T is
                // Visited until its InitAndCompute runs — but if it ever
                // did, delivering to S here is the correct action.
                if self.register_notify(&t, skey)? {
                    self.notify_once(s, w, sd, skey, key, Some(ind), slife);
                }
            }
            Ok(())
        })();

        match attempt {
            Err(f) if f.source == skey => {
                self.policy.emit(
                    w,
                    Event::FaultObserved {
                        source: f.source,
                        kind: f.kind,
                    },
                );
                self.recover_task_once(s, w, skey, slife);
                Ok(())
            }
            other => other,
        }
    }

    /// `ResetNode(A, key, life)`: restore the join counter and bit vector,
    /// then re-explore predecessors via `InitAndCompute`. The join counter
    /// is restored *before* the bits so a racing notification cannot be
    /// lost (a word can only be emptied after one of its bits is re-set).
    pub(super) fn reset_node(
        &self,
        s: &Scope<'_>,
        w: Option<usize>,
        a: ArenaRef<FtDesc>,
        key: Key,
        life: u64,
    ) {
        // ord: Relaxed — statistics counter read at quiescence.
        self.metrics.resets.fetch_add(1, Ordering::Relaxed);
        self.policy.emit(w, Event::Reset { key, life });
        let attempt: Result<(), Fault> = (|| {
            a.check()?;
            a.reset_for_reexploration();
            Ok(())
        })();
        match attempt {
            Ok(()) => self.init_and_compute(s, w, a, key, life),
            Err(f) => {
                self.policy.emit(
                    w,
                    Event::FaultObserved {
                        source: f.source,
                        kind: f.kind,
                    },
                );
                self.recover_task_once(s, w, key, life);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ComputeCtx, TaskGraph};
    use crate::inject::FaultPlan;
    use crate::scheduler::FtScheduler;
    use std::sync::Arc;

    struct Tiny;
    impl TaskGraph for Tiny {
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
        fn compute(&self, _: Key, _: &ComputeCtx<'_>) -> Result<(), Fault> {
            Ok(())
        }
    }

    fn scheduler() -> Arc<FtScheduler> {
        FtScheduler::with_plan(Arc::new(Tiny), Arc::new(FaultPlan::none()))
    }

    #[test]
    fn is_recovering_claims_each_incarnation_once() {
        let sch = scheduler();
        // First failure on life 1: first caller claims.
        assert!(!sch.is_recovering(5, 1));
        assert!(sch.is_recovering(5, 1), "second observer suppressed");
        // Failure on the recovered incarnation (life 2).
        assert!(!sch.is_recovering(5, 2));
        assert!(sch.is_recovering(5, 2));
        // Stale observer of life 1 after the world moved on.
        assert!(sch.is_recovering(5, 1));
    }

    #[test]
    fn is_recovering_rejects_skipped_life() {
        let sch = scheduler();
        assert!(!sch.is_recovering(9, 1));
        // Life 3 arrives while R holds 1 (life 2 never failed): stored+1 != 3,
        // so the caller must not recover — some other path owns the chain.
        assert!(sch.is_recovering(9, 3));
    }

    #[test]
    fn replace_task_bumps_life() {
        let sch = scheduler();
        let (d1, l1, _) = sch.get_or_insert_task(0, None);
        assert_eq!(l1, 1);
        d1.poisoned.store(true, Ordering::Release);
        let (d2, l2) = sch.replace_task(0);
        assert_eq!(l2, 2);
        assert!(d2.check().is_ok(), "fresh incarnation is clean");
        assert_eq!(d2.try_status().unwrap(), Status::Visited);
        let (cur, l) = sch.get_task(0).unwrap();
        assert_eq!(l, 2);
        assert!(ArenaRef::ptr_eq(cur, d2));
        assert!(
            ArenaRef::ptr_eq(d2.prev.unwrap(), d1),
            "links what it replaced"
        );
        assert!(sch.owns_desc(d2), "incarnations live in the epoch arena");
    }

    #[test]
    fn replace_task_on_missing_key_creates_life_one() {
        let sch = scheduler();
        let (_, life) = sch.replace_task(42);
        assert_eq!(life, 1);
    }

    #[test]
    fn concurrent_is_recovering_single_claimant() {
        use ft_sync::atomic::AtomicUsize;
        let sch = scheduler();
        for life in 1..=10u64 {
            let claims = AtomicUsize::new(0);
            std::thread::scope(|ts| {
                for _ in 0..8 {
                    ts.spawn(|| {
                        if !sch.is_recovering(3, life) {
                            claims.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                }
            });
            assert_eq!(
                claims.load(Ordering::Relaxed),
                1,
                "exactly one claimant for life {life}"
            );
        }
    }
}
