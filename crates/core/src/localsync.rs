//! Single-node manager bypass (§V of the paper).
//!
//! "Samhita on a single node system can avoid contacting the manager for
//! synchronization and reduce the overhead associated with contacting the
//! manager during synchronization." When every compute thread shares one
//! cache-coherent node, lock and barrier handoffs can be a local atomic
//! operation instead of two fabric crossings plus manager service time.
//!
//! This module implements that optimization: a process-local synchronization
//! core shared by all compute threads of one system. The *consistency* side
//! of RegC is unchanged — flushes still travel to the memory servers, write
//! notices are still published and delivered — only the synchronization
//! *transport* is replaced, with [`crate::config::CostParams::local_sync_ns`]
//! charged per operation. Condition variables keep using the manager (they
//! are not on any benchmark's critical path).
//!
//! Virtual clocks combine exactly as the manager would combine them: a lock
//! grant never precedes the previous holder's release, and a barrier
//! releases at the maximum arrival clock.

use parking_lot::Mutex;
use samhita_regc::{FineUpdate, IntervalLog, NoticeSet};
use samhita_sched::{Scheduler, TaskRef};
use samhita_scl::SimTime;

struct LocalLock {
    held: bool,
    free_at: SimTime,
    /// Scheduler tasks blocked on this lock. The releaser wakes all of
    /// them at `free_at`; the scheduler's seeded virtual-time tie-break then
    /// decides the (reproducible) grant order.
    waiters: Vec<TaskRef>,
}

struct LocalBarrier {
    parties: u32,
    arrived: u32,
    epoch: u64,
    max_clock: SimTime,
    release_at: SimTime,
    /// Scheduler tasks blocked on this episode; the last arrival wakes all
    /// of them at the release time.
    waiters: Vec<TaskRef>,
}

struct Inner {
    intervals: IntervalLog,
    locks: Vec<LocalLock>,
    barriers: Vec<LocalBarrier>,
    stats: LocalSyncStats,
}

/// Handoff accounting for the local synchronization core — the bypass-mode
/// analogue of the manager's queue-wait counters. Purely observational:
/// reading or resetting it never moves a virtual clock.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalSyncStats {
    /// Lock grants handed out.
    pub acquires: u64,
    /// Grants that had to wait for the previous holder (`free_at > now`).
    pub contended_acquires: u64,
    /// Σ virtual time grants waited behind the previous holder's release
    /// (`free_at − now` over contended grants) — the local-sync equivalent
    /// of manager queue wait.
    pub handoff_wait_ns: u64,
}

/// Process-local synchronization core (one per system when
/// `manager_bypass` is enabled).
pub struct LocalSync {
    cost: SimTime,
    inner: Mutex<Inner>,
}

/// The scheduler task of the calling code: the only way to wait here.
fn current_task() -> TaskRef {
    Scheduler::current().expect("LocalSync can only block inside a scheduler task")
}

impl LocalSync {
    /// A core charging `cost_ns` per synchronization operation.
    pub fn new(cost_ns: u64) -> Self {
        LocalSync {
            cost: SimTime::from_ns(cost_ns),
            inner: Mutex::new(Inner {
                intervals: IntervalLog::new(),
                locks: Vec::new(),
                barriers: Vec::new(),
                stats: LocalSyncStats::default(),
            }),
        }
    }

    /// Create a lock, returning its id. Ids are shared with the manager's
    /// id space by construction: the system creates every sync object in
    /// both places so handles stay interchangeable.
    pub fn create_lock(&self) -> u32 {
        let mut g = self.inner.lock();
        g.locks.push(LocalLock { held: false, free_at: SimTime::ZERO, waiters: Vec::new() });
        (g.locks.len() - 1) as u32
    }

    /// Create a barrier over `parties` threads, returning its id.
    pub fn create_barrier(&self, parties: u32) -> u32 {
        assert!(parties >= 1, "barrier over zero parties");
        let mut g = self.inner.lock();
        g.barriers.push(LocalBarrier {
            parties,
            arrived: 0,
            epoch: 0,
            max_clock: SimTime::ZERO,
            release_at: SimTime::ZERO,
            waiters: Vec::new(),
        });
        (g.barriers.len() - 1) as u32
    }

    /// Acquire `lock`, publishing `pages` as this thread's flush interval.
    /// Parks the calling scheduler task until the lock is free. Returns the
    /// virtual grant time plus the merged unseen write notices.
    pub fn acquire(
        &self,
        lock: u32,
        tid: u32,
        now: SimTime,
        pages: Vec<u64>,
        updates: Vec<FineUpdate>,
        last_seen: u64,
    ) -> (SimTime, NoticeSet, u64) {
        let mut g = self.inner.lock();
        g.intervals.publish(tid, pages, updates);
        // The releaser wakes every waiter at its free_at, and the seeded
        // virtual-time tie-break decides who re-acquires first. Losers (and
        // barging fresh arrivals that run earlier in virtual time) simply
        // re-register and park again.
        while g.locks[lock as usize].held {
            let task = current_task();
            g.locks[lock as usize].waiters.push(task.clone());
            drop(g);
            task.park();
            g = self.inner.lock();
        }
        let l = &mut g.locks[lock as usize];
        l.held = true;
        let at = now.max(l.free_at) + self.cost;
        let free_at = l.free_at;
        g.stats.acquires += 1;
        if free_at > now {
            g.stats.contended_acquires += 1;
            g.stats.handoff_wait_ns += (free_at - now).as_ns();
        }
        let notices = g.intervals.merged_since(last_seen, tid);
        let watermark = g.intervals.watermark();
        (at, notices, watermark)
    }

    /// Handoff accounting so far.
    pub fn stats(&self) -> LocalSyncStats {
        self.inner.lock().stats
    }

    /// Reset the handoff accounting between runs.
    pub fn reset_stats(&self) {
        self.inner.lock().stats = LocalSyncStats::default();
    }

    /// Release `lock` at virtual time `now`, publishing `pages`.
    pub fn release(
        &self,
        lock: u32,
        tid: u32,
        now: SimTime,
        pages: Vec<u64>,
        updates: Vec<FineUpdate>,
    ) {
        let mut g = self.inner.lock();
        g.intervals.publish(tid, pages, updates);
        let l = &mut g.locks[lock as usize];
        assert!(l.held, "release of an unheld lock");
        l.held = false;
        l.free_at = now + self.cost;
        let free_at = l.free_at;
        let waiters = std::mem::take(&mut l.waiters);
        drop(g);
        for w in waiters {
            w.wake_at(free_at.as_ns());
        }
    }

    /// Publish a final flush interval without any synchronization (thread
    /// departure).
    pub fn publish_final(&self, tid: u32, pages: Vec<u64>, updates: Vec<FineUpdate>) {
        self.inner.lock().intervals.publish(tid, pages, updates);
    }

    /// Enter `barrier` at virtual time `now`, publishing `pages`. Parks the
    /// calling scheduler task until all parties arrive. Returns the virtual
    /// release time plus the merged unseen write notices.
    pub fn barrier_wait(
        &self,
        barrier: u32,
        tid: u32,
        now: SimTime,
        pages: Vec<u64>,
        updates: Vec<FineUpdate>,
        last_seen: u64,
    ) -> (SimTime, NoticeSet, u64) {
        let mut g = self.inner.lock();
        g.intervals.publish(tid, pages, updates);
        let idx = barrier as usize;
        let my_epoch = g.barriers[idx].epoch;
        let mut released = Vec::new();
        {
            let b = &mut g.barriers[idx];
            b.max_clock = b.max_clock.max(now);
            b.arrived += 1;
            if b.arrived == b.parties {
                b.release_at = b.max_clock + self.cost;
                b.epoch += 1;
                b.arrived = 0;
                b.max_clock = SimTime::ZERO;
                released = std::mem::take(&mut b.waiters);
            }
        }
        if g.barriers[idx].epoch == my_epoch {
            // Not released yet: wait for the epoch to advance. The epoch
            // re-check absorbs spurious wake-ups (a fabric delivery
            // targeting this task while it waits here).
            let task = current_task();
            while g.barriers[idx].epoch == my_epoch {
                g.barriers[idx].waiters.push(task.clone());
                drop(g);
                task.park();
                g = self.inner.lock();
            }
        } else {
            // Last arrival: release everyone and continue without yielding
            // (its own return time is the release time anyway).
            let release_ns = g.barriers[idx].release_at.as_ns();
            drop(g);
            for w in released {
                w.wake_at(release_ns);
            }
            g = self.inner.lock();
        }
        let at = g.barriers[idx].release_at;
        let notices = g.intervals.merged_since(last_seen, tid);
        let watermark = g.intervals.watermark();
        (at, notices, watermark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samhita_regc::PageRun;
    use std::sync::atomic::Ordering;

    #[test]
    fn lock_grant_never_precedes_previous_release() {
        let s = LocalSync::new(100);
        let l = s.create_lock();
        let (at1, _, _) = s.acquire(l, 0, SimTime::from_ns(1000), vec![], vec![], 0);
        assert_eq!(at1, SimTime::from_ns(1100));
        s.release(l, 0, SimTime::from_ns(5000), vec![1], vec![]);
        // A thread whose clock is behind the release still sees a grant
        // after the release.
        let (at2, notices, wm) = s.acquire(l, 1, SimTime::from_ns(2000), vec![], vec![], 0);
        assert_eq!(at2, SimTime::from_ns(5100 + 100));
        assert_eq!(notices.runs, vec![PageRun { first_page: 1, len: 1, writer: 0 }]);
        assert_eq!(wm, 1);
    }

    /// Run `body(tid)` for `tid in 0..n` as coroutine tasks of a fresh
    /// scheduler, all ready at virtual time zero.
    fn run_tasks<T: Send>(n: u32, body: impl Fn(u32) -> T + Sync) -> Vec<T> {
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let body = &body;
        host.run_coroutines((0..n).map(|tid| (sched.register_ready(0), move || body(tid))))
    }

    #[test]
    fn barrier_releases_at_max_clock_across_threads() {
        let s = LocalSync::new(50);
        let b = s.create_barrier(4);
        let times = run_tasks(4, |tid| {
            let now = SimTime::from_ns(1000 * (tid as u64 + 1));
            s.barrier_wait(b, tid, now, vec![tid as u64], vec![], 0).0
        });
        assert!(times.iter().all(|&t| t == SimTime::from_ns(4050)), "{times:?}");
    }

    #[test]
    fn barrier_delivers_all_notices_once_per_episode() {
        let s = LocalSync::new(50);
        let b = s.create_barrier(2);
        let pages = [vec![20], vec![10, 11]];
        let first = run_tasks(2, |tid| {
            s.barrier_wait(b, tid, SimTime::ZERO, pages[tid as usize].clone(), vec![], 0)
        });
        // Each is sent the other's pages, as one run, and not its own.
        let theirs = [
            PageRun { first_page: 10, len: 2, writer: 1 },
            PageRun { first_page: 20, len: 1, writer: 0 },
        ];
        for ((_, notices, wm), theirs) in first.iter().zip(theirs) {
            assert_eq!(notices.runs, vec![theirs]);
            assert_eq!(*wm, 2);
        }
        // Second episode: carrying the watermark forward yields only new
        // notices.
        let second = run_tasks(2, |tid| {
            let pages = if tid == 0 { vec![30] } else { vec![] };
            s.barrier_wait(b, tid, SimTime::ZERO, pages, vec![], 2)
        });
        let sent: Vec<_> = second.iter().map(|(_, notices, _)| notices.runs.clone()).collect();
        assert_eq!(sent, [vec![], vec![PageRun { first_page: 30, len: 1, writer: 0 }]]);
    }

    /// Holders give the baton away inside the critical section, so every
    /// other task gets to run — and to barge — while the lock is held.
    #[test]
    fn mutual_exclusion_holds_across_yields() {
        let s = LocalSync::new(10);
        let l = s.create_lock();
        let inside = std::sync::atomic::AtomicBool::new(false);
        let entries = run_tasks(8, |tid| {
            let me = current_task();
            for i in 0..100u64 {
                let (at, _, _) = s.acquire(l, tid, SimTime::from_ns(i), vec![], vec![], 0);
                assert!(!inside.swap(true, Ordering::Relaxed), "two tasks inside the section");
                me.yield_until(at.as_ns() + 5);
                inside.store(false, Ordering::Relaxed);
                s.release(l, tid, at + SimTime::from_ns(5), vec![], vec![]);
            }
            100u64
        });
        assert_eq!(entries.iter().sum::<u64>(), 800);
        assert_eq!(s.stats().acquires, 800);
    }

    #[test]
    #[should_panic(expected = "unheld lock")]
    fn release_unheld_panics() {
        let s = LocalSync::new(10);
        let l = s.create_lock();
        s.release(l, 0, SimTime::ZERO, vec![], vec![]);
    }
}
