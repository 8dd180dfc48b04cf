//! Stackful coroutines: the runner that lets a compute task block through
//! the ordinary [`TaskRef`] calls without owning an OS thread.
//!
//! A coroutine is a body plus a private `mmap`ed stack. The dispatcher
//! [`resume`]s it by saving its own callee-saved registers and stack
//! pointer and loading the coroutine's; the coroutine gives control back
//! ([`yield_now`]) the same way, leaving a [`Next`] for the dispatcher to
//! file. Nothing else moves: both sides run on one OS thread, so a switch
//! costs a dozen instructions instead of a futex pair.
//!
//! This is the only module in the crate that contains `unsafe`. The rules
//! the rest of the crate (and its callers) keep:
//!
//! * A coroutine is only ever resumed by the OS thread that first resumed
//!   it ([`Coroutine::resume`] asserts it). Frames on its stack may
//!   therefore hold `!Send` values and cached thread-local addresses.
//! * No lock guard is held across a switch — the scheduler drops its own
//!   before resuming, and a blocking call drops the caller's before
//!   yielding — so the lock owner is always the code that is running.
//! * A coroutine that is dropped unfinished is **abandoned**: its stack is
//!   unmapped without running the destructors of the frames on it, which
//!   leaks whatever they owned. Only a failed region does that (see
//!   [`TaskRef::run_coroutines`]).
//! * Overflowing the 1 MiB stack lands on the guard page below it: the
//!   process dies of `SIGSEGV` at an address just under a coroutine stack
//!   (std's "stack overflow" message covers only the thread's own stack).
//!
//! [`resume`]: Coroutine::resume

#[cfg(not(all(unix, target_arch = "x86_64")))]
compile_error!(
    "samhita-sched switches coroutines with hand-written unix x86_64 assembly; \
     port `switch`, the initial frame in `Coroutine::new` and the mmap flags in \
     crates/sched/src/coro.rs to this target"
);

use std::any::Any;
use std::cell::Cell;
use std::ffi::c_void;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;

use parking_lot::Mutex;

use crate::{Next, TaskRef};

/// Usable bytes per coroutine stack. Mapped `MAP_NORESERVE`, so only the
/// pages a body actually touches are ever backed; compute kernels recurse a
/// few frames deep, debug builds included.
const STACK_BYTES: usize = 1 << 20;
/// The inaccessible page below each stack (x86_64 pages are 4 KiB).
const GUARD_BYTES: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE: i32 = 2;
#[cfg(target_os = "linux")]
const MAP_ANON_NORESERVE: i32 = 0x20 | 0x4000;
#[cfg(not(target_os = "linux"))]
const MAP_ANON_NORESERVE: i32 = 0x1000 | 0x40;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// One stack mapping: a guard page, then [`STACK_BYTES`] growing down
/// towards it.
struct Stack {
    base: *mut u8,
}

impl Stack {
    const LEN: usize = GUARD_BYTES + STACK_BYTES;

    fn new() -> Stack {
        // SAFETY: an anonymous private mapping at a kernel-chosen address
        // aliases nothing; the result is checked before use.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                Self::LEN,
                PROT_READ_WRITE,
                MAP_PRIVATE | MAP_ANON_NORESERVE,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a coroutine stack failed: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack { base: base.cast() };
        // SAFETY: the first page of the mapping just created, which nothing
        // has touched yet.
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(rc == 0, "mprotect of a guard page failed: {}", std::io::Error::last_os_error());
        stack
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u8 {
        // SAFETY: `base + LEN` is the end of the mapping this value owns.
        unsafe { self.base.add(Self::LEN) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the mapping `new` created, unmapped once. No code
        // is running on it: a coroutine cannot drop its own `Coroutine`,
        // which the dispatcher holds while the coroutine runs.
        unsafe { munmap(self.base.cast(), Self::LEN) };
    }
}

/// What the two sides of a switch share. Heap-allocated so its address is
/// stable while the owning [`Coroutine`] moves in and out of the task table.
struct Link {
    /// `Arc::as_ptr` of the owning scheduler and the task id: identity only.
    owner: (usize, usize),
    /// The coroutine's saved stack pointer while it is suspended.
    co_sp: Cell<*mut u8>,
    /// The dispatcher's saved stack pointer while the coroutine runs.
    host_sp: Cell<*mut u8>,
    /// Dispatcher → coroutine: the grant's candidate time.
    granted: Cell<u64>,
    /// Coroutine → dispatcher: the state to file.
    yielded: Cell<Next>,
    /// The body, until the first resume takes it.
    body: Cell<Option<Box<dyn FnOnce() + Send>>>,
}

thread_local! {
    /// The link of the coroutine running on this OS thread, null on a
    /// thread's own stack. Saved and restored around each resume, so a
    /// coroutine may itself drive a nested scheduler.
    static ACTIVE: Cell<*const Link> = const { Cell::new(ptr::null()) };
}

/// An address unique to the calling OS thread for as long as it lives.
fn thread_token() -> usize {
    ACTIVE.with(|a| a as *const Cell<*const Link> as usize)
}

/// Save the callee-saved registers and the stack pointer of the running
/// context in `*save`, load those stored under `to`, and return into that
/// context — from its own earlier call of `switch`, or into [`entry`] for a
/// fresh stack. The System V ABI makes every other register the caller's to
/// save, so the compiler has already spilled what it needs. The MXCSR and
/// x87 control words are not switched: no code in this workspace changes
/// them from the process default.
///
/// # Safety
/// `save` must be writable, and `to` must be a stack pointer stored by an
/// earlier `switch` on this OS thread (or built by [`Coroutine::new`]) whose
/// context has not been resumed since.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First frame of every coroutine: run the body, report `Done`, leave for
/// good. `extern "C"`, so a panic that escaped the body would abort rather
/// than unwind into a frame that does not exist.
extern "C" fn entry() -> ! {
    // SAFETY: `resume` pointed `ACTIVE` at this coroutine's link before it
    // switched here, and the link outlives every run of the coroutine.
    let link = unsafe { &*ACTIVE.with(Cell::get) };
    let body = link.body.take().expect("a fresh coroutine still has its body");
    body();
    link.yielded.set(Next::Done);
    // SAFETY: `host_sp` was stored by the `resume` that is running us. No
    // frame on this stack holds anything to drop any more (`body` was
    // consumed), so the dispatcher may unmap it.
    unsafe { switch(link.co_sp.as_ptr(), link.host_sp.get()) };
    std::process::abort() // a finished coroutine is never resumed
}

/// A suspended (or not yet started) coroutine.
pub(crate) struct Coroutine {
    /// Owned; freed in `drop`. Raw because the running coroutine reads it
    /// through `ACTIVE` while this value moves around on the dispatcher side.
    link: *mut Link,
    /// [`thread_token`] of the thread that first resumed this coroutine.
    home: Option<usize>,
    _stack: Stack,
}

// SAFETY: the body is `Send`, and so is the bookkeeping around it (an owned
// heap link and an owned mapping). Once the body has run, the frames on the
// stack may hold thread-bound values; `resume` refuses to run them anywhere
// but on the first thread, and dropping from another thread only unmaps them
// without running any of their code.
unsafe impl Send for Coroutine {}

impl Coroutine {
    /// A coroutine that will run `body` for task `owner` when first resumed.
    ///
    /// # Safety
    /// `body`'s lifetime has been erased: the caller must drop the returned
    /// value (finished or not) before anything `body` borrows goes away.
    unsafe fn new(owner: (usize, usize), body: Box<dyn FnOnce() + Send>) -> Coroutine {
        let stack = Stack::new();
        // The frame a `switch` expects to find: six callee-saved registers
        // (zero), then the address it returns to. One more slot, a null
        // return address for `entry`, ends backtraces and puts `entry`'s
        // first instruction at `rsp ≡ 8 (mod 16)`, as after a `call`.
        let frame: [usize; 8] = [0, 0, 0, 0, 0, 0, entry as *const () as usize, 0];
        // SAFETY: the top 64 bytes of a fresh 1 MiB mapping, 16-aligned.
        let sp = unsafe {
            let sp = stack.top().sub(size_of_val(&frame));
            sp.cast::<[usize; 8]>().write(frame);
            sp
        };
        let link = Box::into_raw(Box::new(Link {
            owner,
            co_sp: Cell::new(sp),
            host_sp: Cell::new(ptr::null_mut()),
            granted: Cell::new(0),
            yielded: Cell::new(Next::Park),
            body: Cell::new(Some(body)),
        }));
        Coroutine { link, home: None, _stack: stack }
    }

    /// Run the coroutine, granted at `at`, until it next gives control
    /// back; returns the state it asked for.
    ///
    /// # Panics
    /// Panics if called from an OS thread other than the one that first
    /// resumed this coroutine.
    pub(crate) fn resume(&mut self, at: u64) -> Next {
        let here = thread_token();
        assert_eq!(
            *self.home.get_or_insert(here),
            here,
            "a coroutine task must be driven by one OS thread for its whole life"
        );
        // SAFETY: `link` is live until `drop`.
        let link = unsafe { &*self.link };
        link.granted.set(at);
        let outer = ACTIVE.with(|a| a.replace(link));
        // SAFETY: `co_sp` is the initial frame or was stored by the
        // coroutine's last `yield_now`, on this thread (checked above), and
        // `&mut self` rules out a second resume of the same context.
        unsafe { switch(link.host_sp.as_ptr(), link.co_sp.get()) };
        ACTIVE.with(|a| a.set(outer));
        link.yielded.get()
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // SAFETY: allocated by `Box::into_raw` in `new`, freed only here.
        // This also drops a body that never started.
        drop(unsafe { Box::from_raw(self.link) });
    }
}

/// The link of the coroutine the calling code runs on, if that coroutine
/// is task `owner`'s.
fn active(owner: (usize, usize)) -> Option<&'static Link> {
    let link = ACTIVE.with(Cell::get);
    // SAFETY: a non-null `ACTIVE` is the link of the coroutine whose stack
    // this call is on; its dispatcher keeps it alive for the whole run, and
    // the reference does not outlive the caller's use of it on that stack.
    unsafe { link.as_ref() }.filter(|link| link.owner == owner)
}

/// Whether the calling code runs on the coroutine of task `owner`.
pub(crate) fn running_as(owner: (usize, usize)) -> bool {
    active(owner).is_some()
}

/// If the calling code runs on the coroutine of task `owner`: give control
/// back to the dispatcher, asking it to file `next`, and return the
/// candidate time of the grant that resumes the caller. `None` (and nothing
/// happens) anywhere else.
pub(crate) fn yield_now(owner: (usize, usize), next: Next) -> Option<u64> {
    let link = active(owner)?;
    link.yielded.set(next);
    // SAFETY: `host_sp` was stored by the `resume` that is running us.
    unsafe { switch(link.co_sp.as_ptr(), link.host_sp.get()) };
    Some(link.granted.get())
}

/// Retires a region's tasks when the region ends, however it ends. A task
/// that already finished is unaffected; one that did not has its coroutine
/// abandoned (see the module docs), which is what makes erasing the bodies'
/// lifetime sound.
struct Region(Vec<TaskRef>);

impl Drop for Region {
    fn drop(&mut self) {
        for task in &self.0 {
            task.exit();
        }
    }
}

impl TaskRef {
    /// Run one region: turn each `(task, body)` into a coroutine on `task`
    /// (registered by the caller, not yet started), drive them all from the
    /// calling thread until nothing is Ready, take the baton back
    /// ([`TaskRef::resume`]) and return the bodies' results in order. `self`
    /// is the host task and must hold the baton; besides the host, the
    /// scheduler's other live tasks must be inline services.
    ///
    /// Bodies may borrow from the caller, as with `std::thread::scope`, and
    /// block through any [`TaskRef`] call on their own task.
    /// [`Scheduler::current`](crate::Scheduler::current) names that task
    /// inside a body.
    ///
    /// # Panics
    /// A region fails instead of hanging. If a body panicked, the first
    /// such payload is re-raised once the others have finished or blocked
    /// for good. If bodies are left blocked with nothing Ready, panics with
    /// `deadlock:`, their indices and the last granted virtual time. Either
    /// way (and when an inline step panics, which unwinds through here with
    /// the step's payload) the unfinished bodies are abandoned: their
    /// frames' destructors never run.
    pub fn run_coroutines<'env, T, B>(
        &self,
        bodies: impl IntoIterator<Item = (TaskRef, B)>,
    ) -> Vec<T>
    where
        T: Send + 'env,
        B: FnOnce() -> T + Send + 'env,
    {
        let bodies: Vec<(TaskRef, B)> = bodies.into_iter().collect();
        let results: Vec<Mutex<Option<T>>> = bodies.iter().map(|_| Mutex::new(None)).collect();
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        // Declared after what the bodies borrow, so dropped before it.
        let mut region = Region(Vec::with_capacity(bodies.len()));
        for ((task, body), result) in bodies.into_iter().zip(&results) {
            let first_panic = &first_panic;
            let body: Box<dyn FnOnce() + Send + '_> =
                Box::new(move || match panic::catch_unwind(AssertUnwindSafe(body)) {
                    Ok(value) => *result.lock() = Some(value),
                    Err(payload) => {
                        first_panic.lock().get_or_insert(payload);
                    }
                });
            // SAFETY: only the lifetime bound changes. The coroutine is
            // owned by `task`'s table entry, and `region` retires every
            // task it lists before this frame — and so before `'env`, the
            // result slots and `first_panic` — can go away.
            let co = unsafe {
                let body: Box<dyn FnOnce() + Send + 'static> = std::mem::transmute(body);
                Coroutine::new(task.owner(), body)
            };
            region.0.push(task.clone());
            task.attach(co);
        }
        self.suspend();
        let panicked = first_panic.lock().take();
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        let blocked: Vec<usize> =
            (0..results.len()).filter(|&i| results[i].lock().is_none()).collect();
        assert!(
            blocked.is_empty(),
            "deadlock: tasks {blocked:?} are blocked and nothing is ready to run; \
             last grant at {} ns",
            self.sched.inner.lock().last_at
        );
        drop(region);
        self.resume();
        results.into_iter().map(|slot| slot.into_inner().expect("checked above")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::within;
    use crate::{splitmix64, Scheduler};
    use std::hint::black_box;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    type Log = Mutex<Vec<(usize, u64)>>;

    /// One worker of the random program: forty seeded choices among
    /// yielding, waking a random peer first, and parking (the ticker wakes
    /// parked workers). Logs every grant it runs under.
    fn worker(i: usize, seed: u64, tasks: &[TaskRef], log: &Log, left: &AtomicUsize) {
        let me = &tasks[i];
        let mut rng = seed ^ (i as u64) << 32;
        let mut now = 0;
        for _ in 0..40 {
            log.lock().push((i, now));
            rng = splitmix64(rng);
            let r = rng >> 8;
            now = match rng % 4 {
                0 => me.yield_until(now + 1 + r % 20),
                1 => {
                    tasks[r as usize % tasks.len()].wake_at(now + r % 15);
                    me.yield_until(now + 1 + r % 7)
                }
                2 => me.park(),
                _ => me.yield_until(now),
            };
        }
        left.fetch_sub(1, Ordering::Relaxed);
    }

    /// The last task: wakes everybody every ten virtual nanoseconds until
    /// the workers are done, so no park lasts forever.
    fn ticker(tasks: &[TaskRef], log: &Log, left: &AtomicUsize) {
        let (me, workers) = tasks.split_last().expect("at least the ticker");
        let mut now = 0;
        while left.load(Ordering::Relaxed) > 0 {
            log.lock().push((workers.len(), now));
            for w in workers {
                w.wake_at(now + 3);
            }
            now = me.yield_until(now + 10);
        }
    }

    /// (a) The same seeded program on thread tasks and on coroutines: the
    /// pick policy cannot tell, so who is granted, when, and how many picks
    /// it takes are identical — and the coroutine run never leaves the
    /// host's OS thread.
    #[test]
    fn thread_tasks_and_coroutines_grant_alike() {
        const WORKERS: usize = 5;
        let run = |seed: u64, coroutines: bool| {
            let sched = Scheduler::new(seed);
            let host = sched.register_running();
            let tasks: Vec<TaskRef> = (0..=WORKERS).map(|_| sched.register_ready(0)).collect();
            let (log, left) = (Log::default(), AtomicUsize::new(WORKERS));
            let (tasks, log, left) = (&tasks[..], &log, &left);
            let program = |i: usize| match i {
                WORKERS => ticker(tasks, log, left),
                _ => worker(i, seed, tasks, log, left),
            };
            if coroutines {
                host.run_coroutines(
                    tasks.iter().enumerate().map(|(i, t)| (t.clone(), move || program(i))),
                );
                assert_eq!(sched.handoffs(), 0);
            } else {
                thread::scope(|s| {
                    for (i, task) in tasks.iter().enumerate() {
                        s.spawn(move || {
                            task.start();
                            program(i);
                            task.exit();
                        });
                    }
                    host.suspend();
                });
                host.resume();
            }
            let grants = (log.lock().clone(), sched.grants());
            grants
        };
        for seed in 0..8 {
            let (on_threads, on_coroutines) =
                within(60, move || (run(seed, false), run(seed, true)));
            assert!(on_threads.0.len() > 40 * WORKERS);
            assert_eq!(on_threads, on_coroutines, "seed {seed}");
        }
    }

    /// (b) An inline step that panics while coroutines are suspended fails
    /// the driver with the step's own payload.
    #[test]
    fn step_panic_fails_the_driver_with_its_message() {
        let sched = Scheduler::new(4);
        let host = sched.register_running();
        let svc = sched.register_service(Box::new(|g| panic!("step exploded at {g}")));
        let (parks, yields) = (sched.register_ready(0), sched.register_ready(1));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            host.run_coroutines([
                (
                    parks.clone(),
                    Box::new(|| {
                        svc.wake_at(2);
                        parks.park();
                    }) as Box<dyn FnOnce() + Send>,
                ),
                (
                    yields.clone(),
                    Box::new(|| {
                        yields.yield_until(10);
                    }),
                ),
            ])
        }));
        let payload = outcome.expect_err("the region must fail");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("step exploded at 2")
        );
    }

    /// (c) A body can recurse through well over 256 KiB of frames — in a
    /// debug build, where they are at their largest — and block at the
    /// bottom of them.
    #[test]
    fn deep_recursion_fits_the_stack() {
        fn descend(depth: usize, task: &TaskRef) -> usize {
            let pad = black_box([depth as u8; 1024]);
            if depth == 0 {
                return task.yield_until(7) as usize;
            }
            descend(depth - 1, task) + pad[depth % 1024] as usize - (depth as u8) as usize
        }
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let task = sched.register_ready(0);
        let got = host.run_coroutines([(task.clone(), || descend(300, &task))]);
        assert_eq!(got, vec![7]);
    }

    fn vm_size_kib() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find_map(|l| l.strip_prefix("VmSize:"))?;
        line.trim().trim_end_matches("kB").trim().parse().ok()
    }

    /// (d) Twenty thousand coroutines come and go on one scheduler: every
    /// `mmap` succeeds and the address space does not grow, because a stack
    /// is unmapped when its task retires, not when the scheduler drops.
    #[test]
    fn retired_stacks_are_unmapped() {
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let mut after_first_region = None;
        for _ in 0..200 {
            let sum: u64 = host
                .run_coroutines((0..100u64).map(|i| {
                    let task = sched.register_ready(i);
                    (task.clone(), move || task.yield_until(i + 1))
                }))
                .into_iter()
                .sum();
            assert_eq!(sum, (1..=100).sum());
            after_first_region = after_first_region.or(vm_size_kib());
        }
        // Leaked stacks would be 20 GiB; the slack is for whatever the
        // tests running beside this one map meanwhile.
        if let (Some(first), Some(last)) = (after_first_region, vm_size_kib()) {
            assert!(last < first + (1 << 20), "VmSize grew from {first} to {last} KiB");
        }
    }

    /// (e) The first frame is laid out as the ABI promises a callee: code
    /// that spills SSE registers with aligned stores (float formatting)
    /// behind a `dyn FnOnce` call does not fault.
    #[test]
    fn initial_frame_is_abi_aligned() {
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let format: Box<dyn FnOnce() -> String + Send> =
            Box::new(|| format!("{:.3} {:e}", black_box(2.0f64).sqrt(), black_box(1.5e300f64)));
        let got = host.run_coroutines([(sched.register_ready(0), format)]);
        assert_eq!(got, vec!["1.414 1.5e300".to_string()]);
    }

    /// Sets its flag when dropped.
    struct Flag<'a>(&'a AtomicBool);

    impl Drop for Flag<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    /// Bodies that block with nobody left to wake them fail the region by
    /// name, and are abandoned rather than unwound.
    #[test]
    fn blocked_bodies_are_a_reported_deadlock() {
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let tasks: Vec<TaskRef> = (0..3).map(|i| sched.register_ready(i * 10)).collect();
        let dropped = AtomicBool::new(false);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            host.run_coroutines(tasks.iter().enumerate().map(|(i, task)| {
                let dropped = &dropped;
                (task.clone(), move || {
                    let _flag = Flag(dropped);
                    if i != 1 {
                        task.park();
                    }
                })
            }))
        }));
        let payload = outcome.expect_err("the region must fail");
        let message = payload.downcast_ref::<String>().expect("a formatted message");
        assert!(message.starts_with("deadlock: tasks [0, 2] "), "{message}");
        assert!(message.ends_with("last grant at 20 ns"), "{message}");
        assert!(dropped.load(Ordering::Relaxed), "task 1 finished and dropped its flag");
        dropped.store(false, Ordering::Relaxed);
        drop(sched);
        assert!(!dropped.load(Ordering::Relaxed), "abandoned frames never run their destructors");
    }

    /// A panicking body fails the region with its own payload even though a
    /// sibling is left waiting for it forever.
    #[test]
    fn body_panic_is_reraised_with_its_payload() {
        let sched = Scheduler::new(0);
        let host = sched.register_running();
        let (waits, fails) = (sched.register_ready(0), sched.register_ready(5));
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            host.run_coroutines([
                (
                    waits.clone(),
                    Box::new(|| {
                        waits.park();
                    }) as Box<dyn FnOnce() + Send>,
                ),
                (fails.clone(), Box::new(|| panic::panic_any(42u32))),
            ])
        }));
        assert_eq!(outcome.expect_err("the region must fail").downcast_ref::<u32>(), Some(&42));
    }

    /// A body may drive a scheduler of its own: the inner region's
    /// coroutines run nested on the outer coroutine's stack.
    #[test]
    fn regions_nest() {
        let outer = Scheduler::new(1);
        let host = outer.register_running();
        let task = outer.register_ready(0);
        let got = host.run_coroutines([(task.clone(), || {
            let inner = Scheduler::new(2);
            let inner_host = inner.register_running();
            let a = inner.register_ready(3);
            let inner_sum: u64 =
                inner_host.run_coroutines([(a.clone(), || a.yield_until(9))]).into_iter().sum();
            assert_eq!(Scheduler::current().map(|t| t.id()), Some(task.id()));
            inner_sum + task.yield_until(100)
        })]);
        assert_eq!(got, vec![109]);
    }
}
