//! Client-side parallel I/O runtime.
//!
//! BlobSeer clients store and fetch pages "in parallel" and write all
//! metadata tree nodes "in parallel" (paper Algorithms 1, 2 and 4). The
//! paper's prototype does this with asynchronous RPC; within this
//! in-process reproduction the equivalent is a small fork-join thread
//! pool. Each client (or engine) owns a [`ThreadPool`]; operations
//! submit batches of independent items and wait for all of them.
//!
//! The pool is deliberately minimal: FIFO dispatch over a crossbeam
//! channel, no work stealing.
//!
//! ## The caller joins its own fork-join
//!
//! A batch of `n` items is one shared **cursor** over `0..n`, not a
//! partition handed away. [`parallel_map`] boxes at most
//! `min(pool.threads(), n − 1)` *helpers* onto the pool, then the
//! calling thread claims indices from the same cursor as the helpers
//! do and runs them itself. It returns as soon as all `n` results are
//! present, and the only thing it ever blocks for is an index a helper
//! has **already claimed** — work that is running right now. A helper
//! that has not woken yet is never waited for: by the time it does wake
//! the cursor is exhausted and it returns at once.
//!
//! Why: in-process items are often microseconds long (an in-memory
//! page store, a checksum of a few KiB), while handing a job to a
//! parked worker and parking the caller until it answers costs a futex
//! wake-up each way — on a shared virtual host, tens of microseconds
//! for which the caller's core sat idle. With the caller working, a
//! batch of cheap items finishes on the calling thread before any
//! helper is scheduled, and a batch of expensive ones still spreads
//! over every worker. How much runs where is decided by who is awake,
//! not by a tuning knob.
//!
//! Consequences worth knowing:
//!
//! * results land in a preallocated slot per index — order is index
//!   order by construction;
//! * every item runs even when another fails ([`try_parallel`]), and a
//!   panic in any item, on a helper or on the caller, reaches the
//!   caller (helpers catch it, so pool workers survive);
//! * calling [`parallel_map`] from a job running on the same pool
//!   cannot deadlock (the caller needs no free worker to make
//!   progress) — BlobSeer relies on it: pipelined completion stages run
//!   on the engine's one pool and fan their page I/O out to it;
//! * [`ThreadPool::jobs_dispatched`] counts boxed helpers — at most one
//!   per worker per batch, however many items the batch has.

mod pool;

pub use pool::ThreadPool;

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::Mutex;

/// One fork-join batch, shared by the caller and its helpers.
struct Batch<T, F> {
    f: F,
    /// Next unclaimed index; claiming is one `fetch_add`.
    cursor: AtomicUsize,
    /// Items finished (result or panic recorded). The increment that
    /// reaches `slots.len()` ends the batch.
    done: AtomicUsize,
    /// One preallocated slot per index. The slot mutex is what
    /// publishes a result to the caller; it is never contended (one
    /// writer, then the caller once the batch is over).
    slots: Vec<Mutex<Option<T>>>,
    /// First panic caught on a helper, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    caller: Thread,
}

impl<T, F: Fn(usize) -> T> Batch<T, F> {
    fn claim(&self) -> Option<usize> {
        // Relaxed: the cursor hands out indices, it publishes no data.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.slots.len()).then_some(i)
    }

    /// A pool worker's share: claim and run until the cursor is
    /// exhausted. Panics are caught and parked for the caller, so a
    /// failing item can neither kill the worker nor leave the caller
    /// waiting for an index that will never finish.
    fn help(&self) {
        while let Some(i) = self.claim() {
            match catch_unwind(AssertUnwindSafe(|| (self.f)(i))) {
                Ok(value) => *self.slots[i].lock() = Some(value),
                Err(payload) => {
                    self.panic.lock().get_or_insert(payload);
                }
            }
            // Release pairs with the caller's Acquire load in `join`:
            // seeing the final count means seeing every recorded panic.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.slots.len() {
                self.caller.unpark();
            }
        }
    }

    /// The caller's share, then the join. A panic in a caller-run item
    /// unwinds straight out of here; helpers finish what they claimed
    /// and find the cursor exhausted.
    fn join(&self) -> Vec<T> {
        let mut mine = 0;
        while let Some(i) = self.claim() {
            *self.slots[i].lock() = Some((self.f)(i));
            mine += 1;
        }
        self.done.fetch_add(mine, Ordering::AcqRel);
        // Every index is claimed now, so whatever is still missing is
        // running on a helper this very moment. Whoever makes the final
        // increment either is this thread (no park) or unparks it; the
        // loop absorbs spurious and stale wake-ups.
        while self.done.load(Ordering::Acquire) < self.slots.len() {
            std::thread::park();
        }
        if let Some(payload) = self.panic.lock().take() {
            resume_unwind(payload);
        }
        self.slots
            .iter()
            .map(|slot| slot.lock().take().expect("every index ran exactly once"))
            .collect()
    }
}

/// Run `f(i)` for every `i in 0..n` and return the results in index
/// order. The calling thread works through the batch alongside at most
/// `min(pool.threads(), n − 1)` helpers from `pool` (see the module
/// docs); `n ≤ 1` runs inline with no dispatch at all. A panic in any
/// item is propagated to the caller.
pub fn parallel_map<T, F>(pool: &ThreadPool, n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    if n <= 1 {
        // Fast path: no dispatch overhead for single-page operations.
        return (0..n).map(f).collect();
    }
    let batch = Arc::new(Batch {
        f,
        cursor: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        slots: (0..n).map(|_| Mutex::new(None)).collect(),
        panic: Mutex::new(None),
        caller: std::thread::current(),
    });
    for _ in 0..pool.threads().min(n - 1) {
        let batch = Arc::clone(&batch);
        pool.execute(move || batch.help());
    }
    batch.join()
}

/// Run `f(i)` for every `i in 0..n`, collecting results or the first
/// error (lowest index). All items run to completion even when one
/// fails (pages already sent to providers are not cancelled in the
/// paper's protocol either). Scheduling as in [`parallel_map`].
pub fn try_parallel<T, E, F>(pool: &ThreadPool, n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send + 'static,
    E: Send + 'static,
    F: Fn(usize) -> Result<T, E> + Send + Sync + 'static,
{
    parallel_map(pool, n, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    /// Park every worker of `pool` on a gate: returns once all of them
    /// are inside a job that blocks until the returned sender is
    /// dropped (or sent to).
    fn park_all_workers(pool: &ThreadPool) -> mpsc::Sender<()> {
        let (open_gate, gate) = mpsc::channel::<()>();
        let gate = Arc::new(std::sync::Mutex::new(gate));
        let (parked_tx, parked_rx) = mpsc::channel();
        for _ in 0..pool.threads() {
            let (gate, parked_tx) = (Arc::clone(&gate), parked_tx.clone());
            pool.execute(move || {
                parked_tx.send(()).unwrap();
                // Blocks until the gate opens; the first worker through
                // holds the lock while it waits, the rest queue behind.
                let _ = gate.lock().unwrap().recv();
            });
        }
        for _ in 0..pool.threads() {
            parked_rx.recv().unwrap();
        }
        open_gate
    }

    fn on_pool_thread() -> bool {
        std::thread::current().name().is_some_and(|name| name.starts_with("test-"))
    }

    #[test]
    fn parallel_map_returns_in_order() {
        let pool = ThreadPool::new(4, "test");
        let out = parallel_map(&pool, 100, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let pool = ThreadPool::new(2, "test");
        assert!(parallel_map(&pool, 0, |i| i).is_empty());
        assert_eq!(parallel_map(&pool, 1, |i| i + 41), vec![41]);
        assert_eq!(pool.jobs_dispatched(), 0, "n <= 1 runs inline");
    }

    #[test]
    fn parallel_map_actually_parallel() {
        // Three helpers plus the caller rendezvous on a barrier of
        // four: the batch only completes if the items overlap in time.
        let pool = ThreadPool::new(4, "test");
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let b = Arc::clone(&barrier);
        let out = parallel_map(&pool, 4, move |i| {
            b.wait();
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn caller_never_waits_for_a_helper_that_has_not_started() {
        let pool = ThreadPool::new(2, "test");
        let gate = park_all_workers(&pool);
        // Both workers are busy elsewhere: the helpers this batch boxes
        // sit in the queue, and the caller must finish all 64 items
        // alone instead of parking on them.
        let ran_on_pool = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran_on_pool);
        let out = parallel_map(&pool, 64, move |i| {
            flag.fetch_or(on_pool_thread(), Ordering::SeqCst);
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
        assert!(!ran_on_pool.load(Ordering::SeqCst));
        assert_eq!(pool.jobs_dispatched(), 2 + 2, "two gate jobs, two helpers");
        // The gate opens and the pool drains: the stale helpers find
        // the cursor exhausted and return.
        drop(gate);
        drop(pool);
    }

    #[test]
    fn a_large_batch_boxes_at_most_one_helper_per_worker() {
        let pool = ThreadPool::new(2, "test");
        let out = parallel_map(&pool, 16_384, |i| i);
        assert_eq!(out.len(), 16_384);
        assert!(out.iter().enumerate().all(|(i, &v)| i == v));
        assert_eq!(pool.jobs_dispatched(), 2, "a 16k-item batch must box 2 helpers, not 16k");

        // A batch smaller than the pool boxes n − 1: the caller is the
        // n-th participant.
        let wide = ThreadPool::new(8, "test");
        let _ = parallel_map(&wide, 3, |i| i);
        assert_eq!(wide.jobs_dispatched(), 2);
    }

    #[test]
    fn panic_in_a_helper_run_item_reaches_the_caller() {
        let pool = ThreadPool::new(2, "test");
        let helper_claimed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&helper_claimed);
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&pool, 8, move |i| {
                if on_pool_thread() {
                    flag.store(true, Ordering::SeqCst);
                    panic!("helper boom at {i}");
                }
                // The caller holds its first item until a helper has
                // claimed one, so the panic provably happens off-thread.
                while !flag.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                i
            })
        }));
        let payload = result.expect_err("the helper's panic must surface on the caller");
        let message = payload.downcast_ref::<String>().expect("a formatted panic message");
        assert!(message.starts_with("helper boom"), "{message}");
        // The workers survived it.
        assert_eq!(parallel_map(&pool, 4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn panic_in_a_caller_run_item_reaches_the_caller() {
        let pool = ThreadPool::new(2, "test");
        let gate = park_all_workers(&pool);
        // Workers gated: every item, the panicking one included, runs
        // on the calling thread.
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&pool, 8, |i| {
                if i == 5 {
                    panic!("caller boom");
                }
                i
            })
        }));
        let payload = result.expect_err("the caller's own panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller boom"));
        drop(gate);
        assert_eq!(parallel_map(&pool, 4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn try_parallel_runs_every_item_despite_an_error() {
        let pool = ThreadPool::new(4, "test");
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let res: Result<Vec<usize>, String> = try_parallel(&pool, 64, move |i| {
            ran2.fetch_add(1, Ordering::SeqCst);
            if i % 17 == 3 {
                Err(format!("boom {i}"))
            } else {
                Ok(i)
            }
        });
        // The lowest failing index wins, and no item was cancelled.
        assert_eq!(res, Err("boom 3".to_string()));
        assert_eq!(ran.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn try_parallel_ok_path() {
        let pool = ThreadPool::new(4, "test");
        let res: Result<Vec<usize>, String> = try_parallel(&pool, 10, Ok);
        assert_eq!(res.unwrap(), (0..10).collect::<Vec<_>>());
    }
}
