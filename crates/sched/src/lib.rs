//! Deterministic virtual-time scheduler.
//!
//! Under this scheduler **exactly one simulated task runs at a time**: the
//! scheduler hands control to the unique task with the globally minimal
//! `(virtual_time, tie_break, task_id)` key among those ready to run. The
//! tie-break is a seeded `splitmix64` hash of the task id, so ties at equal
//! virtual time resolve the same way in every run with the same seed —
//! and differently across seeds, which is what makes schedule-sensitivity
//! testable.
//!
//! This is a *conservative* discrete-event design: a task yields with a
//! candidate virtual time (the earliest instant at which it could next
//! act), and the scheduler only grants the minimal candidate. Because a
//! task granted at time `g` holds the smallest candidate, every message any
//! other task may later send is stamped `>= g`; the granted task can
//! therefore safely consume anything with effective time `<= g`.
//! Candidates may be *under*-estimates (that only changes which
//! deterministic order is picked, never causality); they must never be
//! over-estimates.
//!
//! Tasks come in three kinds, and the pick policy cannot tell them apart:
//!
//! * **Thread tasks** (the host) own an OS thread that sleeps in
//!   `std::thread::park` until a pick lands on it. The pick files the
//!   grant's candidate time in the task table, under the scheduler lock.
//! * **Inline service tasks** (the manager, memory servers) own no thread:
//!   they are a step callback `FnMut(granted) -> Next`. When a pick lands
//!   on one, whichever thread is giving up the baton runs the step itself,
//!   with the scheduler lock released, stores the returned state and picks
//!   again.
//! * **Coroutine tasks** (compute threads) own a stack but no thread: a
//!   pick that lands on one switches the dispatching thread onto that stack,
//!   and the coroutine's next `yield_until` / `park` switches back with the
//!   state to file — an inline step that can block in the middle. They are
//!   made and driven by [`TaskRef::run_coroutines`]; only a thread task ever
//!   runs the pick loop.
//!
//! Only a pick that lands on a *different thread task* wakes another OS
//! thread; only that unpark follows the unlock, so the woken thread never
//! runs into the lock. A pick that lands back on the yielding task returns
//! directly. [`Scheduler::grants`] counts picks, [`Scheduler::handoffs`]
//! the subset that crossed OS threads.
//!
//! A panic inside a step *poisons* the scheduler: the dispatching thread
//! unwinds with the original payload and every thread blocked on a baton
//! wakes and panics with the original message, so a failing service fails
//! the run instead of hanging it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod coro;

use parking_lot::{Mutex, MutexGuard};
use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, Thread};

/// `splitmix64` — the canonical 64-bit finalizer used to derive a
/// reproducible per-task tie-break from the scheduler seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Where a task stands with respect to the baton.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Holds (or has been granted and will imminently take) the baton.
    Running,
    /// Wants the baton no earlier than the contained virtual time.
    Ready(u64),
    /// Blocked with no wake-up scheduled; some other task must `wake_at` it.
    Parked,
    /// Finished; never schedulable again.
    Done,
}

/// What an inline service task wants after one step, and what a blocking
/// coroutine hands its dispatcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Next {
    /// Run again no earlier than this virtual time (merged by minimum with
    /// nothing: wakes posted while the step ran were ignored, exactly as
    /// for a Running thread task, so the step must account for everything
    /// it has been sent).
    At(u64),
    /// Sleep until some task posts a [`TaskRef::wake_at`].
    Park,
    /// Retire; the step is never called again.
    Done,
}

/// An inline service task's body: called with the grant's candidate time.
pub type Step = Box<dyn FnMut(u64) -> Next + Send>;

/// How a granted task gets to run.
enum Runner {
    /// On its own OS thread, last seen blocking as `thread`; `grant` holds
    /// the candidate time of a pick it has not yet taken.
    Thread { grant: Option<u64>, thread: Option<Thread> },
    /// On the dispatching thread; `None` while a dispatch has the step out.
    Inline(Option<Step>),
    /// On the dispatching thread, on its own stack, bound to
    /// [`Scheduler::current`] as the handle beside it; `None` while it runs
    /// and once it has retired (the stack goes with it).
    Coro(Option<(coro::Coroutine, TaskRef)>),
}

struct Task {
    state: TaskState,
    /// Seeded tie-break, fixed at registration.
    tie: u64,
    runner: Runner,
}

struct Inner {
    tasks: Vec<Task>,
    /// Min-heap of `(candidate, tie, id)` keys with lazy invalidation: every
    /// `Ready(at)` task has an entry carrying exactly its `at`, and an entry
    /// is live iff its task is still `Ready` at that time. Retired tasks stay
    /// in `tasks` (ids are indices) but cost a pick nothing.
    ready: BinaryHeap<Reverse<(u64, u64, usize)>>,
    /// The task currently holding (or granted) the baton, if any.
    running: Option<usize>,
    /// Picks made so far. Observability only: never consulted by the pick
    /// policy.
    grants: u64,
    /// The candidate time of the latest pick, for the deadlock report.
    last_at: u64,
    /// Heap entries popped so far, stale ones included: what picking costs.
    #[cfg(test)]
    probes: u64,
    /// Picks that landed on a thread task other than the dispatching one.
    handoffs: u64,
    /// The message of the step panic that poisoned this scheduler.
    poison: Option<String>,
}

/// The deterministic scheduler: a shared registry of tasks plus the single
/// global pick policy. Create one per simulated run via [`Scheduler::new`].
pub struct Scheduler {
    seed: u64,
    inner: Mutex<Inner>,
}

thread_local! {
    static CURRENT: RefCell<Option<TaskRef>> = const { RefCell::new(None) };
}

impl Scheduler {
    /// A fresh scheduler whose tie-breaks derive from `seed`.
    pub fn new(seed: u64) -> Arc<Scheduler> {
        Arc::new(Scheduler {
            seed,
            inner: Mutex::new(Inner {
                tasks: Vec::new(),
                ready: BinaryHeap::new(),
                running: None,
                grants: 0,
                last_at: 0,
                #[cfg(test)]
                probes: 0,
                handoffs: 0,
                poison: None,
            }),
        })
    }

    /// The seed the tie-breaks derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total picks so far — a measure of how often the machine
    /// context-switched in virtual time. Purely observational.
    pub fn grants(&self) -> u64 {
        self.inner.lock().grants
    }

    /// The subset of [`Scheduler::grants`] that woke a different OS thread
    /// (picks that ran an inline service or landed back on the yielding
    /// task are free). Purely observational.
    pub fn handoffs(&self) -> u64 {
        self.inner.lock().handoffs
    }

    /// The task the calling code runs as: a coroutine body sees its own
    /// task, an OS thread the task it [`TaskRef::start`]ed (until that task
    /// exits). Plain threads see `None`.
    pub fn current() -> Option<TaskRef> {
        CURRENT.with(|c| c.borrow().clone())
    }

    fn register(self: &Arc<Self>, state: TaskState, step: Option<Step>) -> TaskRef {
        let runner = match step {
            Some(step) => Runner::Inline(Some(step)),
            None => Runner::Thread { grant: None, thread: None },
        };
        let mut inner = self.inner.lock();
        let id = inner.tasks.len();
        let tie = splitmix64(self.seed ^ (id as u64 + 1));
        if state == TaskState::Running {
            assert!(inner.running.is_none(), "two tasks registered Running");
            inner.running = Some(id);
        }
        inner.tasks.push(Task { state: TaskState::Parked, tie, runner });
        inner.file(id, state);
        TaskRef { sched: self.clone(), id }
    }

    /// Register the calling context as the task that currently holds the
    /// baton (the host). Exactly one task may be Running at registration.
    pub fn register_running(self: &Arc<Self>) -> TaskRef {
        self.register(TaskState::Running, None)
    }

    /// Register a task ready to run no earlier than virtual time `at`.
    pub fn register_ready(self: &Arc<Self>, at: u64) -> TaskRef {
        self.register(TaskState::Ready(at), None)
    }

    /// Register a task blocked until somebody wakes it.
    pub fn register_parked(self: &Arc<Self>) -> TaskRef {
        self.register(TaskState::Parked, None)
    }

    /// Register an inline service task, parked until somebody wakes it.
    /// Whenever a pick lands on it, the dispatching thread calls `step`
    /// with the grant's candidate time and files the returned [`Next`].
    /// The step must not block on this scheduler. The returned handle is
    /// for [`TaskRef::wake_at`] only.
    pub fn register_service(self: &Arc<Self>, step: Step) -> TaskRef {
        self.register(TaskState::Parked, Some(step))
    }

    /// Pick until control leaves the calling thread or comes back to it.
    /// Called with `running` cleared; `me` is the caller's own task if it
    /// intends to keep waiting for the baton. Inline services and coroutines
    /// picked along the way run right here, lock released. Returns
    /// `Some(at)` if a pick landed on `me` (the caller holds the baton
    /// again, no hand-off); `None` if another thread task was granted or
    /// nothing is Ready (the machine quiesces until the suspended host
    /// resumes).
    fn dispatch<'a>(&'a self, mut inner: MutexGuard<'a, Inner>, me: Option<usize>) -> Option<u64> {
        loop {
            debug_assert!(inner.running.is_none());
            let prof = samhita_prof::enter(samhita_prof::Phase::SchedStep);
            let (at, id) = inner.pick()?;
            inner.grants += 1;
            inner.last_at = at;
            inner.running = Some(id);
            let task = &mut inner.tasks[id];
            task.state = TaskState::Running;
            let next = match &mut task.runner {
                Runner::Thread { .. } if me == Some(id) => return Some(at),
                Runner::Thread { grant, thread } => {
                    let stale = grant.replace(at);
                    debug_assert!(stale.is_none(), "granted twice without an intervening block");
                    let thread = thread.clone();
                    inner.handoffs += 1;
                    // Wake with the lock released: the woken thread's first
                    // move is to take it. The phase guard ends before the
                    // wake-up, which the OS may answer by running the woken
                    // thread first.
                    drop(inner);
                    drop(prof);
                    if let Some(thread) = thread {
                        thread.unpark();
                    }
                    return None;
                }
                Runner::Inline(step) => {
                    let mut step = step.take().expect("inline task picked while running");
                    drop(inner);
                    drop(prof);
                    let next = match panic::catch_unwind(AssertUnwindSafe(|| step(at))) {
                        Ok(next) => next,
                        Err(payload) => {
                            self.poison(payload.as_ref());
                            panic::resume_unwind(payload);
                        }
                    };
                    inner = self.inner.lock();
                    inner.tasks[id].runner = Runner::Inline(Some(step));
                    next
                }
                Runner::Coro(co) => {
                    let (mut co, bound) = co.take().expect("coroutine picked while running");
                    drop(inner);
                    drop(prof);
                    // The binding moves into `CURRENT` for the run and back
                    // out afterwards; the dispatcher's own (the host has
                    // none) is restored around it.
                    let outer = CURRENT.with(|c| c.replace(Some(bound)));
                    let next = co.resume(at);
                    let bound = CURRENT.with(|c| c.replace(outer)).expect("binding outlives run");
                    // A finished coroutine is dropped — its stack unmapped —
                    // right here, before the lock is taken again.
                    let suspended = (next != Next::Done).then_some((co, bound));
                    inner = self.inner.lock();
                    inner.tasks[id].runner = Runner::Coro(suspended);
                    next
                }
            };
            inner.file(id, next.into());
            inner.running = None;
        }
    }

    /// Record a step panic and wake every thread blocked on a baton so it
    /// can fail too (see [`TaskRef::block`]).
    fn poison(&self, payload: &(dyn Any + Send)) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "inline service step panicked".to_string());
        let mut inner = self.inner.lock();
        inner.poison = Some(msg);
        let sleepers: Vec<Thread> = inner
            .tasks
            .iter()
            .filter_map(|t| match &t.runner {
                Runner::Thread { thread, .. } => thread.clone(),
                Runner::Inline(_) | Runner::Coro(_) => None,
            })
            .collect();
        drop(inner);
        for thread in sleepers {
            thread.unpark();
        }
    }

    /// Lock the registry, failing the caller if a step panic poisoned it.
    fn lock_live(&self) -> MutexGuard<'_, Inner> {
        let inner = self.inner.lock();
        if let Some(msg) = &inner.poison {
            let msg = msg.clone();
            drop(inner);
            panic!("{msg}");
        }
        inner
    }
}

impl From<Next> for TaskState {
    fn from(next: Next) -> TaskState {
        match next {
            Next::At(t) => TaskState::Ready(t),
            Next::Park => TaskState::Parked,
            Next::Done => TaskState::Done,
        }
    }
}

impl Inner {
    /// Store task `id`'s new state, queueing it if that is `Ready`.
    fn file(&mut self, id: usize, state: TaskState) {
        let task = &mut self.tasks[id];
        task.state = state;
        if let TaskState::Ready(at) = state {
            self.ready.push(Reverse((at, task.tie, id)));
        }
    }

    /// The Ready task with the minimal `(candidate, tie, id)` key, removed
    /// from the queue along with the stale entries in front of it.
    fn pick(&mut self) -> Option<(u64, usize)> {
        #[cfg(test)]
        let oracle = self.pick_by_scan();
        let mut picked = None;
        while let Some(Reverse((at, _, id))) = self.ready.pop() {
            #[cfg(test)]
            {
                self.probes += 1;
            }
            if self.tasks[id].state == TaskState::Ready(at) {
                picked = Some((at, id));
                break;
            }
        }
        #[cfg(test)]
        assert_eq!(picked, oracle, "the ready heap and the linear scan disagree");
        picked
    }

    /// The pick policy's definition, kept as the oracle every test-build
    /// pick is compared against: scan every task ever registered.
    #[cfg(test)]
    fn pick_by_scan(&self) -> Option<(u64, usize)> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (id, t) in self.tasks.iter().enumerate() {
            if let TaskState::Ready(at) = t.state {
                let key = (at, t.tie, id);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(at, _, id)| (at, id))
    }
}

impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Scheduler")
            .field("seed", &self.seed)
            .field("tasks", &inner.tasks.len())
            .field("running", &inner.running)
            .finish()
    }
}

/// A handle on one registered task. Clonable and sharable: wake-ups arrive
/// from whichever task is currently running.
#[derive(Clone)]
pub struct TaskRef {
    sched: Arc<Scheduler>,
    id: usize,
}

impl fmt::Debug for TaskRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskRef").field("id", &self.id).finish()
    }
}

impl TaskRef {
    /// This task's registration index (also the final tie-break key).
    pub fn id(&self) -> usize {
        self.id
    }

    /// What identifies this task to the coroutine it may be running on.
    fn owner(&self) -> (usize, usize) {
        (Arc::as_ptr(&self.sched) as usize, self.id)
    }

    /// Make this registered, never-started task run as coroutine `co`.
    fn attach(&self, co: coro::Coroutine) {
        let mut inner = self.sched.inner.lock();
        let runner = &mut inner.tasks[self.id].runner;
        assert!(
            matches!(runner, Runner::Thread { thread: None, .. }),
            "only a fresh task can become a coroutine"
        );
        *runner = Runner::Coro(Some((co, self.clone())));
    }

    /// Sleep until this task's baton is granted; returns the grant's
    /// candidate time. Panics with the original message if a step panic
    /// poisons the scheduler meanwhile.
    fn block(&self) -> u64 {
        let me = thread::current();
        loop {
            // Take the grant or tell granters (and a poisoner) whom to
            // unpark, both under the lock a grant is filed under: a grant
            // filed later finds this thread and unparks it.
            let mut inner = self.sched.lock_live();
            if let Runner::Thread { grant, thread } = &mut inner.tasks[self.id].runner {
                if let Some(at) = grant.take() {
                    return at;
                }
                if thread.as_ref().map(Thread::id) != Some(me.id()) {
                    *thread = Some(me.clone());
                }
            }
            drop(inner);
            thread::park();
        }
    }

    /// First block of a newly spawned OS thread: wait for the first baton
    /// grant, bind this task to the calling thread (so [`Scheduler::current`]
    /// finds it), and return the grant's virtual-time candidate.
    pub fn start(&self) -> u64 {
        let at = self.block();
        CURRENT.with(|c| *c.borrow_mut() = Some(self.clone()));
        at
    }

    /// Make this task schedulable no earlier than virtual time `t`. Merging
    /// is by minimum: an already-Ready task keeps the earlier of the two
    /// candidates; Running and Done tasks ignore wakes (a Running task will
    /// re-announce its own candidate when it next yields). Never hands the
    /// baton directly — only the scheduler pick does that.
    pub fn wake_at(&self, t: u64) {
        let mut inner = self.sched.inner.lock();
        match inner.tasks[self.id].state {
            TaskState::Parked => inner.file(self.id, TaskState::Ready(t)),
            // The entry for `c` goes stale and is skipped when it surfaces.
            TaskState::Ready(c) if t < c => inner.file(self.id, TaskState::Ready(t)),
            TaskState::Ready(_) | TaskState::Running | TaskState::Done => {}
        }
    }

    /// Give up the baton asking for `next`, let the minimal candidate run,
    /// and come back when a pick lands here again. A coroutine hands `next`
    /// to its dispatcher, which files it and goes on picking; a thread task
    /// files it and runs the pick loop itself.
    fn relinquish(&self, next: Next) -> u64 {
        if let Some(at) = coro::yield_now(self.owner(), next) {
            return at;
        }
        let mut inner = self.sched.lock_live();
        assert_eq!(inner.running, Some(self.id), "only the running task can yield or park");
        inner.file(self.id, next.into());
        inner.running = None;
        match self.sched.dispatch(inner, Some(self.id)) {
            Some(at) => at,
            None => self.block(),
        }
    }

    /// Give up the baton until virtual time `t`, let the minimal-candidate
    /// task run, and continue once re-granted (without touching a baton if
    /// this task stays minimal). Returns the grant's candidate: the caller
    /// may consume anything with effective time `<=` that value.
    pub fn yield_until(&self, t: u64) -> u64 {
        self.relinquish(Next::At(t))
    }

    /// Block with no wake-up scheduled; some other task must [`wake_at`]
    /// this one. Returns the grant's candidate time once re-granted.
    ///
    /// [`wake_at`]: TaskRef::wake_at
    pub fn park(&self) -> u64 {
        self.relinquish(Next::Park)
    }

    /// Release the baton and run whatever is Ready — inline steps and
    /// coroutines, on the calling thread — until nothing is, or until a pick
    /// lands on another thread task, which then carries on while the caller
    /// is off doing real (non-simulated) work. Pair with [`resume`].
    ///
    /// Between `suspend` and `resume` the host must not send or receive on
    /// the simulated fabric.
    ///
    /// [`resume`]: TaskRef::resume
    pub fn suspend(&self) {
        let mut inner = self.sched.lock_live();
        inner.tasks[self.id].state = TaskState::Parked;
        if inner.running == Some(self.id) {
            inner.running = None;
            self.sched.dispatch(inner, None);
        }
    }

    /// Re-acquire the baton after a [`suspend`]. Idempotent: a no-op if
    /// this task already runs. The task queues at `u64::MAX`, so every
    /// pending finite-candidate event drains before the host proceeds; on a
    /// quiescent machine the pick lands straight back here.
    ///
    /// [`suspend`]: TaskRef::suspend
    pub fn resume(&self) {
        let mut inner = self.sched.lock_live();
        if inner.running == Some(self.id) {
            // Discard a grant issued while this task was parked by
            // `suspend`: it is already running again.
            if let Runner::Thread { grant, .. } = &mut inner.tasks[self.id].runner {
                *grant = None;
            }
            return;
        }
        inner.file(self.id, TaskState::Ready(u64::MAX));
        if inner.running.is_some() {
            drop(inner);
        } else if self.sched.dispatch(inner, Some(self.id)).is_some() {
            return;
        }
        self.block();
    }

    /// Retire this task. If it held the baton the next minimal candidate is
    /// granted. Unbinds [`Scheduler::current`] when called on the calling
    /// thread's own task. Safe to call for a task that never started, and
    /// on a poisoned scheduler (where it only retires). A suspended
    /// coroutine is abandoned: its stack is unmapped without running the
    /// destructors of the frames on it. (A coroutine retires itself by
    /// returning from its body, never through this.)
    pub fn exit(&self) {
        assert!(!coro::running_as(self.owner()), "a coroutine retires by returning");
        let mut inner = self.sched.inner.lock();
        let task = &mut inner.tasks[self.id];
        task.state = TaskState::Done;
        let abandoned = match &mut task.runner {
            Runner::Coro(co) => co.take(),
            Runner::Thread { .. } | Runner::Inline(_) => None,
        };
        if inner.running == Some(self.id) && inner.poison.is_none() {
            inner.running = None;
            self.sched.dispatch(inner, None);
        } else {
            drop(inner);
        }
        drop(abandoned);
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            if cur.as_ref().is_some_and(|t| t.owner() == self.owner()) {
                *cur = None;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    /// Workers yield at distinct virtual times; the recorded order must be
    /// exactly ascending-by-candidate regardless of spawn order.
    #[test]
    fn grants_follow_virtual_time_order() {
        let sched = Scheduler::new(1);
        let host = sched.register_running();
        let order = Arc::new(Mutex::new(Vec::new()));
        // Register in reverse so registration order != virtual-time order.
        let tasks: Vec<TaskRef> = (0..4).map(|i| sched.register_ready(100 - i * 10)).collect();
        let mut joins = Vec::new();
        for (i, task) in tasks.iter().enumerate() {
            let task = task.clone();
            let order = order.clone();
            joins.push(thread::spawn(move || {
                let granted = task.start();
                order.lock().push((i, granted));
                task.exit();
            }));
        }
        host.suspend();
        for j in joins {
            j.join().unwrap();
        }
        host.resume();
        assert_eq!(*order.lock(), vec![(3, 70), (2, 80), (1, 90), (0, 100)]);
    }

    /// Equal candidates: order is fixed per seed, and some seed pair orders
    /// them differently (the tie-break is really seeded, not id order).
    #[test]
    fn ties_break_by_seed_reproducibly() {
        let run = |seed: u64| {
            let sched = Scheduler::new(seed);
            let host = sched.register_running();
            let order = Arc::new(Mutex::new(Vec::new()));
            let tasks: Vec<TaskRef> = (0..6).map(|_| sched.register_ready(42)).collect();
            let mut joins = Vec::new();
            for (i, task) in tasks.iter().enumerate() {
                let task = task.clone();
                let order = order.clone();
                joins.push(thread::spawn(move || {
                    task.start();
                    order.lock().push(i);
                    task.exit();
                }));
            }
            host.suspend();
            for j in joins {
                j.join().unwrap();
            }
            host.resume();
            let o = order.lock().clone();
            o
        };
        assert_eq!(run(7), run(7), "same seed must give the same tie order");
        assert!(
            (0..32u64).any(|s| run(s) != run(s + 32)),
            "some seed pair must order ties differently"
        );
    }

    /// A parked task woken by a running one resumes at the wake's time; the
    /// waker keeps running until it yields past that time.
    #[test]
    fn park_wake_handoff_carries_virtual_time() {
        let sched = Scheduler::new(3);
        let host = sched.register_running();
        let a = sched.register_ready(0);
        let b = sched.register_parked();
        let log = Arc::new(Mutex::new(Vec::new()));

        let (la, lb) = (log.clone(), log.clone());
        let (a2, b2) = (a.clone(), b.clone());
        let ta = thread::spawn(move || {
            let g = a2.start();
            la.lock().push(("a-start", g));
            b2.wake_at(500);
            let g = a2.yield_until(900);
            la.lock().push(("a-resume", g));
            a2.exit();
        });
        let tb = thread::spawn(move || {
            let g = b.start();
            lb.lock().push(("b-start", g));
            b.exit();
        });
        host.suspend();
        ta.join().unwrap();
        tb.join().unwrap();
        host.resume();
        assert_eq!(
            *log.lock(),
            vec![("a-start", 0), ("b-start", 500), ("a-resume", 900)],
            "the wake must run at 500, before a's 900 candidate"
        );
    }

    /// yield_until may re-grant the caller when it stays minimal.
    #[test]
    fn yield_can_regrant_self() {
        let sched = Scheduler::new(9);
        let host = sched.register_running();
        let a = sched.register_ready(0);
        let _parked = sched.register_parked();
        let t = thread::spawn(move || {
            let g0 = a.start();
            let g1 = a.yield_until(10);
            a.exit();
            (g0, g1)
        });
        host.suspend();
        let (g0, g1) = t.join().unwrap();
        host.resume();
        assert_eq!((g0, g1), (0, 10));
    }

    /// resume() is idempotent and drains pending work first.
    #[test]
    fn resume_waits_for_ready_tasks_and_is_idempotent() {
        let sched = Scheduler::new(11);
        let host = sched.register_running();
        let done = Arc::new(AtomicUsize::new(0));
        let workers: Vec<TaskRef> = (0..3).map(|i| sched.register_ready(i * 5)).collect();
        let mut joins = Vec::new();
        for w in &workers {
            let w = w.clone();
            let done = done.clone();
            joins.push(thread::spawn(move || {
                w.start();
                done.fetch_add(1, Ordering::SeqCst);
                w.exit();
            }));
        }
        host.suspend();
        host.resume(); // must wait for (or outlast) the three workers
        assert_eq!(done.load(Ordering::SeqCst), 3, "resume must drain finite candidates first");
        host.resume(); // idempotent: already running
        for j in joins {
            j.join().unwrap();
        }
    }

    /// current() binds on start and unbinds on exit; alien threads see None.
    #[test]
    fn current_is_bound_per_thread() {
        assert!(Scheduler::current().is_none());
        let sched = Scheduler::new(5);
        let host = sched.register_running();
        let a = sched.register_ready(0);
        let t = thread::spawn(move || {
            assert!(Scheduler::current().is_none());
            a.start();
            let cur = Scheduler::current().expect("bound after start");
            assert_eq!(cur.id(), a.id());
            a.exit();
            assert!(Scheduler::current().is_none(), "unbound after exit");
        });
        host.suspend();
        t.join().unwrap();
        host.resume();
        assert!(Scheduler::current().is_none(), "host thread never bound");
    }

    /// A pick may land on a thread task before its OS thread exists: the
    /// grant waits in the table, and the thread takes it on `start`.
    #[test]
    fn a_grant_filed_before_the_thread_exists_is_taken_on_start() {
        let sched = Scheduler::new(6);
        let host = sched.register_running();
        let a = sched.register_ready(42);
        host.suspend();
        assert!(matches!(
            sched.inner.lock().tasks[a.id()].runner,
            Runner::Thread { grant: Some(42), thread: None }
        ));
        let t = thread::spawn(move || {
            let g = a.start();
            a.exit();
            g
        });
        assert_eq!(within(60, move || t.join().unwrap()), 42);
        host.resume();
    }

    /// A wake targeting a Running or Done task is ignored; a second wake at
    /// an earlier time lowers a Ready candidate.
    #[test]
    fn wake_merging_rules() {
        let sched = Scheduler::new(13);
        let host = sched.register_running();
        let a = sched.register_parked();
        a.wake_at(100);
        a.wake_at(40); // earlier wake wins
        a.wake_at(70); // later wake ignored
        let a2 = a.clone();
        let t = thread::spawn(move || {
            let g = a2.start();
            a2.exit();
            g
        });
        host.suspend();
        assert_eq!(t.join().unwrap(), 40);
        host.resume();
        a.wake_at(0); // Done: ignored, must not panic or grant
    }

    /// Run `f` on its own thread and fail (rather than hang the suite) if
    /// it does not finish in time — a lost wake-up shows up as a timeout.
    pub(crate) fn within<T: Send + 'static>(
        secs: u64,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(secs)).expect("scheduler test timed out")
    }

    /// The scripted task of `inline_and_thread_tasks_grant_alike`: what it
    /// does after a grant at `g` (`None` = finish).
    fn script(g: u64) -> Option<Next> {
        match g {
            10_000.. => None,
            g if g % 3 == 0 => Some(Next::Park),
            g => Some(Next::At(g + 7)),
        }
    }

    /// One scripted task among four workers that keep waking it, run once
    /// as a thread task and once as an inline service: the pick policy
    /// cannot tell, so every grant — who, and at what time — is the same.
    #[test]
    fn inline_and_thread_tasks_grant_alike() {
        let run = |seed: u64, inline: bool| {
            let sched = Scheduler::new(seed);
            let host = sched.register_running();
            let log = Arc::new(Mutex::new(Vec::new()));
            let workers: Vec<TaskRef> = (0..4).map(|i| sched.register_ready(i * 5)).collect();
            let mut joins = Vec::new();
            let scripted = if inline {
                let log = log.clone();
                sched.register_service(Box::new(move |g| {
                    log.lock().push((4, g));
                    script(g).unwrap_or(Next::Done)
                }))
            } else {
                let task = sched.register_parked();
                let (t, log) = (task.clone(), log.clone());
                joins.push(thread::spawn(move || {
                    let mut g = t.start();
                    loop {
                        log.lock().push((4, g));
                        g = match script(g) {
                            Some(Next::At(at)) => t.yield_until(at),
                            Some(_) => t.park(),
                            None => break t.exit(),
                        };
                    }
                }));
                task
            };
            let worker_joins: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(i, w)| {
                    let (scripted, log) = (scripted.clone(), log.clone());
                    thread::spawn(move || {
                        let mut now = w.start();
                        for _ in 0..6 {
                            log.lock().push((i, now));
                            scripted.wake_at(now + 4);
                            now = w.yield_until(now + 9);
                        }
                        w.exit();
                    })
                })
                .collect();
            host.suspend();
            for j in worker_joins {
                j.join().unwrap();
            }
            host.resume();
            scripted.wake_at(10_000);
            host.yield_until(u64::MAX);
            for j in joins {
                j.join().unwrap();
            }
            let log = log.lock().clone();
            (log, sched.grants())
        };
        for seed in 0..8 {
            let (as_thread, as_service) = within(60, move || (run(seed, false), run(seed, true)));
            assert!(as_thread.0.iter().filter(|(who, _)| *who == 4).count() > 8);
            assert_eq!(as_thread, as_service, "seed {seed}");
        }
    }

    /// A yield whose picks land on an inline service and then back on the
    /// yielding task never leaves its OS thread: no baton, no hand-off.
    #[test]
    fn self_pick_and_inline_steps_stay_on_the_yielding_thread() {
        let sched = Scheduler::new(2);
        let me = sched.register_running();
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let seen = ran_on.clone();
        let svc = sched.register_service(Box::new(move |g| {
            seen.lock().push((g, thread::current().id()));
            Next::Park
        }));
        for round in 0..100u64 {
            svc.wake_at(round * 10 + 1);
            assert_eq!(me.yield_until(round * 10 + 5), round * 10 + 5);
        }
        let ran_on = ran_on.lock();
        assert_eq!(ran_on.len(), 100);
        assert!(ran_on.iter().all(|&(_, id)| id == thread::current().id()));
        assert_eq!(ran_on[7].0, 71, "the step sees its wake time");
        assert_eq!(sched.grants(), 200);
        assert_eq!(sched.handoffs(), 0);
    }

    /// Two thread tasks pass the baton back and forth 10⁵ times through
    /// `wake_at` + `park`; a single lost wake-up would park both forever.
    #[test]
    fn ping_pong_loses_no_wakeup() {
        const ROUNDS: u64 = 100_000;
        let handoffs = within(120, || {
            let sched = Scheduler::new(7);
            let a = sched.register_running();
            let b = sched.register_parked();
            let (a2, b2) = (a.clone(), b.clone());
            let peer = thread::spawn(move || {
                let mut g = b2.start();
                for i in 0..ROUNDS {
                    assert_eq!(g, i, "each grant carries its wake time");
                    a2.wake_at(i);
                    if i + 1 < ROUNDS {
                        g = b2.park();
                    }
                }
                b2.exit();
            });
            for i in 0..ROUNDS {
                b.wake_at(i);
                assert_eq!(a.park(), i);
            }
            peer.join().unwrap();
            sched.handoffs()
        });
        assert_eq!(handoffs, 2 * ROUNDS);
    }

    /// A panicking step fails the thread that ran it with the original
    /// payload and every thread blocked on a baton with the same message.
    #[test]
    fn step_panic_poisons_blocked_tasks() {
        let messages = within(60, || {
            let sched = Scheduler::new(4);
            let host = sched.register_running();
            let svc = sched.register_service(Box::new(|g| panic!("step exploded at {g}")));
            let blocked = sched.register_ready(0);
            let runner = sched.register_ready(1);
            let joins = [
                // Parks for good at 0; sleeps on its baton from then on.
                thread::spawn(move || {
                    blocked.start();
                    svc.wake_at(2);
                    blocked.park();
                }),
                // Yields past the service's wake time, so runs its step.
                thread::spawn(move || {
                    runner.start();
                    runner.yield_until(10);
                }),
            ];
            host.suspend();
            let messages: Vec<String> = joins
                .into_iter()
                .map(|j| {
                    let payload = j.join().expect_err("both tasks must fail");
                    payload.downcast_ref::<String>().cloned().unwrap_or_default()
                })
                .collect();
            // Retiring is still allowed; taking the baton back is not.
            host.exit();
            messages
        });
        assert_eq!(messages, vec!["step exploded at 2"; 2]);
    }

    /// A seeded random workload of wakes, yields and service steps over
    /// three hundred tasks. Every pick in a test build is compared against
    /// the linear scan (see `Inner::pick`), so this drives the ready heap
    /// through stale entries, lowered candidates, duplicates and ties and
    /// fails on the first pick that differs.
    #[test]
    fn heap_picks_match_the_linear_scan() {
        for seed in 0..4u64 {
            let sched = Scheduler::new(seed);
            let me = sched.register_running();
            let steps = Arc::new(AtomicUsize::new(0));
            let mut rng = seed;
            let mut next = move || {
                rng = splitmix64(rng);
                rng >> 8
            };
            let mut services: Vec<TaskRef> = Vec::new();
            for i in 0..300u64 {
                if i % 3 == 0 {
                    // A thread task nobody starts, at a time the driver
                    // never reaches: an entry that sits deep in the heap.
                    sched.register_ready(u64::MAX - next() % 1000);
                    continue;
                }
                let (steps, mut state) = (steps.clone(), seed ^ i);
                services.push(sched.register_service(Box::new(move |g| {
                    steps.fetch_add(1, Ordering::Relaxed);
                    state = splitmix64(state);
                    match state % 3 {
                        0 => Next::Park,
                        _ => Next::At(g + state % 50),
                    }
                })));
            }
            let mut now = 0;
            for _ in 0..5_000 {
                for _ in 0..next() % 4 {
                    let target = &services[next() as usize % services.len()];
                    target.wake_at(now + next() % 40);
                }
                now = me.yield_until(now + next() % 25);
            }
            assert!(steps.load(Ordering::Relaxed) > 5_000, "services must have been picked");
        }
    }

    /// Retired tasks stay in the table, but a pick never looks at them: two
    /// hundred regions on one scheduler each cost exactly what the first did.
    #[test]
    fn pick_cost_is_flat_across_regions() {
        let sched = Scheduler::new(3);
        let host = sched.register_running();
        let probes = || sched.inner.lock().probes;
        let mut per_region = Vec::new();
        for _ in 0..200 {
            let before = probes();
            host.run_coroutines((0..8u64).map(|i| {
                let task = sched.register_ready(i);
                (task.clone(), move || (0..5).fold(i, |now, _| task.yield_until(now + 10)))
            }));
            per_region.push(probes() - before);
        }
        assert_eq!(sched.inner.lock().tasks.len(), 1 + 200 * 8);
        assert!(per_region[0] >= 8 * 6, "every grant pops an entry");
        assert!(per_region.iter().all(|&p| p == per_region[0]), "{per_region:?}");
    }
}
