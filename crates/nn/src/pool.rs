//! The process-wide kernel worker pool behind [`crate::backend::Parallel`].
//!
//! `available_parallelism() - 1` long-lived helper threads start on the
//! first fanned-out kernel call and live for the rest of the process. A
//! call publishes its fixed block partition as a [`Job`]; blocks are
//! claimed one at a time through an atomic counter, so every block runs
//! exactly once, on whichever thread claims it.
//!
//! **Caller-drains rule.** The calling thread claims and runs blocks
//! itself until none are left. It then waits only for blocks a helper has
//! already claimed, never for a helper to *start*. So a call completes even
//! when every helper is busy elsewhere: concurrent callers (silo threads
//! training side by side, serve tenants) cannot deadlock and never queue
//! behind one another, and a block that itself calls a kernel just becomes
//! a caller too.
//!
//! Helpers only take cores that callers are not already using: a call
//! accepts at most as many helpers as there are cores left after counting
//! every thread that called into the pool within the last millisecond.
//! Two silo threads training side by side on a 2-core host therefore run
//! their kernels inline, as they would with one worker each, instead of
//! being preempted by a helper working for the other.
//!
//! An idle helper spins briefly for the next job, then parks on a condition
//! variable. A panic in a block is caught where it happens and re-raised
//! on the job's caller once all of the job's claimed blocks are done; the
//! pool stays usable.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, Thread, ThreadId};
use std::time::{Duration, Instant};

/// How long an idle helper spins for the next job before it parks. Kernel
/// calls in a training step come tens of microseconds apart; a parked
/// helper costs a futex wake-up per call.
const HELPER_SPIN: Duration = Duration::from_micros(50);

/// A thread that called into the pool this recently counts as busy on a
/// core of its own: silo threads training side by side call every few
/// hundred microseconds.
const RECENT: Duration = Duration::from_millis(1);

/// Spin iterations a caller waits for helper-claimed blocks before it
/// parks until the last one finishes.
const CALLER_SPINS: u32 = 1 << 12;

type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// One published call: block indices `0..blocks`, claimed through `next`.
struct Job {
    /// The caller's block function with its lifetime erased. It is only
    /// called for a claimed index below `blocks`, and the caller does not
    /// return before every claimed block has finished, so it outlives
    /// every call.
    task: *const Task<'static>,
    blocks: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    caller: Thread,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `task` points at a `Sync` closure that stays alive while any
// thread can still call it (see the field docs); all other fields are
// thread-safe.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs blocks until none are left. A helper wakes the
    /// caller when it finishes the job's last block.
    fn drain(&self, helper: bool) {
        loop {
            // The claim publishes no data: the task and its inputs reached
            // this thread through the queue lock.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.blocks {
                return;
            }
            // SAFETY: `i` is a claimed block, so the caller is still
            // waiting and `task` is alive (see `Job::task`).
            let task = unsafe { &*self.task };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                lock(&self.panic).get_or_insert(payload);
            }
            // Release: publishes the block's writes to the caller, whose
            // Acquire load of `done` in `run` pairs with it.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.blocks && helper {
                self.caller.unpark();
            }
        }
    }
}

/// Published jobs, each with the number of helpers that may still join
/// it; the number of helpers parked waiting for one; and the threads that
/// called [`run`] within the last [`RECENT`], each with its latest call.
struct Queue {
    jobs: Vec<(Arc<Job>, usize)>,
    parked: usize,
    recent: Vec<(ThreadId, Instant)>,
}

impl Queue {
    /// Takes a helper seat on the oldest job that has one and still has
    /// unclaimed blocks.
    fn claim(&mut self) -> Option<Arc<Job>> {
        let (job, seats) = self
            .jobs
            .iter_mut()
            .find(|(job, seats)| *seats > 0 && job.next.load(Ordering::Relaxed) < job.blocks)?;
        *seats -= 1;
        Some(job.clone())
    }
}

struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Bumped on every publish, so spinning helpers notice new work
    /// without taking the lock. Only a hint: helpers claim jobs under the
    /// lock.
    epoch: AtomicU64,
    helpers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Locks `m`, ignoring poison: no code that can panic runs while one of
/// this module's locks is held (blocks run unlocked, under
/// `catch_unwind`), and every update under them is a single step.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pool, starting its helpers on first use.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let want = thread::available_parallelism().map_or(1, |n| n.get()) - 1;
        // Each helper blocks in `pool()` until this initialiser returns.
        let helpers = (0..want)
            .take_while(|i| {
                thread::Builder::new()
                    .name(format!("silofuse-kernel-{i}"))
                    .spawn(|| helper_loop(pool()))
                    .is_ok()
            })
            .count();
        Pool {
            queue: Mutex::new(Queue { jobs: Vec::new(), parked: 0, recent: Vec::new() }),
            wake: Condvar::new(),
            epoch: AtomicU64::new(0),
            helpers,
        }
    })
}

/// A helper's life: claim a seat, drain the job, spin briefly for the
/// next one, park. It never returns and never panics (blocks are caught),
/// so the helpers are left detached for the life of the process.
fn helper_loop(pool: &'static Pool) {
    let mut queue = lock(&pool.queue);
    loop {
        if let Some(job) = queue.claim() {
            drop(queue);
            job.drain(true);
            drop(job);
            let seen = pool.epoch.load(Ordering::Relaxed);
            let start = Instant::now();
            while pool.epoch.load(Ordering::Relaxed) == seen && start.elapsed() < HELPER_SPIN {
                std::hint::spin_loop();
            }
            queue = lock(&pool.queue);
            continue;
        }
        queue.parked += 1;
        queue = pool.wake.wait(queue).unwrap_or_else(PoisonError::into_inner);
        queue.parked -= 1;
    }
}

/// Helper threads in the pool (starting it if needed).
#[cfg(test)]
pub(crate) fn helpers() -> usize {
    pool().helpers
}

#[cfg(test)]
thread_local! {
    /// Calls this thread made into [`run`]; lets tests check which
    /// backends bypass the pool.
    pub(crate) static RUN_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs `task(i)` once for every block `i` in `0..blocks`, on the calling
/// thread and at most `threads - 1` pool helpers, and returns when all
/// blocks are done. A panic in any block is re-raised here.
pub(crate) fn run(threads: usize, blocks: usize, task: &Task<'_>) {
    #[cfg(test)]
    RUN_CALLS.with(|c| c.set(c.get() + 1));
    let pool = pool();
    let me = thread::current();
    let now = Instant::now();
    let mut queue = lock(&pool.queue);
    queue.recent.retain(|&(id, at)| id != me.id() && now.duration_since(at) < RECENT);
    queue.recent.push((me.id(), now));
    let seats = helper_seats(threads, blocks, pool.helpers, queue.recent.len());
    if seats == 0 {
        drop(queue);
        return (0..blocks).for_each(task);
    }
    publish_and_drain(pool, queue, seats, blocks, task);
}

/// Helper seats for a call on `threads` threads over `blocks` blocks, in a
/// pool of `helpers` helpers that `callers` threads (this one included)
/// called recently. Helpers only take the cores no recently active caller
/// runs on: on a host that concurrent callers already fill, a helper would
/// only preempt one of them.
fn helper_seats(threads: usize, blocks: usize, helpers: usize, callers: usize) -> usize {
    let free_cores = (helpers + 1).saturating_sub(callers);
    threads.saturating_sub(1).min(blocks.saturating_sub(1)).min(free_cores)
}

/// [`run`] with `seats` helper seats, whatever the recent callers: lets
/// tests make a helper take part.
#[cfg(test)]
pub(crate) fn run_with_seats(seats: usize, blocks: usize, task: &Task<'_>) {
    let pool = pool();
    publish_and_drain(pool, lock(&pool.queue), seats, blocks, task);
}

/// Publishes a job with `seats` helper seats, drains it on the calling
/// thread, waits for the helper-claimed blocks and re-raises a block panic.
fn publish_and_drain(
    pool: &Pool,
    mut queue: MutexGuard<'_, Queue>,
    seats: usize,
    blocks: usize,
    task: &Task<'_>,
) {
    // SAFETY: only the lifetime is erased; see `Job::task`.
    let task: *const Task<'static> =
        unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
    let job = Arc::new(Job {
        task,
        blocks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        caller: thread::current(),
        panic: Mutex::new(None),
    });
    queue.jobs.push((job.clone(), seats));
    pool.epoch.fetch_add(1, Ordering::Relaxed);
    if queue.parked > 0 {
        pool.wake.notify_all();
    }
    drop(queue);
    job.drain(false);
    lock(&pool.queue).jobs.retain(|(j, _)| !Arc::ptr_eq(j, &job));
    let mut spins = 0;
    while job.done.load(Ordering::Acquire) < blocks {
        if spins < CALLER_SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            thread::park();
        }
    }
    let payload = lock(&job.panic).take();
    if let Some(payload) = payload {
        panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::helper_seats;

    #[test]
    fn helpers_take_only_the_cores_no_recent_caller_uses() {
        // 2 cores (1 helper): a lone caller gets the helper, a second
        // recent caller leaves no core for it.
        assert_eq!(helper_seats(2, 8, 1, 1), 1);
        assert_eq!(helper_seats(2, 8, 1, 2), 0);
        // Capped by the thread count and by the blocks beyond the
        // caller's first.
        assert_eq!(helper_seats(4, 8, 15, 1), 3);
        assert_eq!(helper_seats(16, 3, 15, 1), 2);
        assert_eq!(helper_seats(16, 64, 15, 6), 10);
        assert_eq!(helper_seats(1, 64, 15, 1), 0);
    }
}
