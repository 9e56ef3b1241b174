//! A fixed-size FIFO thread pool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

use crossbeam::channel::{Receiver, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size worker pool with FIFO dispatch.
///
/// Dropping the pool closes the queue and joins all workers; queued jobs
/// run to completion first (graceful drain). The pool may also be
/// dropped *from one of its own workers* (a background job holding the
/// last `Arc` of the owner): that worker's handle is detached instead of
/// self-joined, and every other worker is still joined.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    dispatched: AtomicU64,
}

impl ThreadPool {
    /// Spawn `threads` workers named `"{name}-{i}"`.
    pub fn new(threads: usize, name: &str) -> Self {
        assert!(threads > 0, "thread pool needs at least one worker");
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        let workers = (0..threads)
            .map(|i| {
                let rx: Receiver<Job> = rx.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { tx: Some(tx), workers, dispatched: AtomicU64::new(0) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Lifetime count of boxed jobs submitted — the dispatch-overhead
    /// gauge of the fork-join (a batch boxes at most one helper per
    /// worker, however many items it has; see the crate docs).
    pub fn jobs_dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Submit a job; never blocks.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.dispatched.fetch_add(1, Ordering::Relaxed);
        self.tx.as_ref().expect("pool alive").send(Box::new(job)).expect("pool workers alive");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets workers drain remaining jobs and exit.
        self.tx.take();
        let me = std::thread::current().id();
        for w in self.workers.drain(..) {
            // The pool can be dropped *on one of its own workers* (a
            // queued job releasing the last `Arc` of the owner).
            // Self-joining would abort with "Resource deadlock avoided"
            // — detach that one handle instead; the worker is past
            // `recv()` (the queue is closed) and exits right after this
            // drop returns.
            if w.thread().id() == me {
                continue;
            }
            // A panicked worker already reported; don't double-panic.
            let _ = w.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.workers.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn executes_jobs() {
        let pool = ThreadPool::new(3, "t");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // graceful drain
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_drains_queue() {
        let pool = ThreadPool::new(1, "t");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::yield_now();
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = ThreadPool::new(0, "t");
    }

    #[test]
    fn threads_reports_size() {
        assert_eq!(ThreadPool::new(5, "t").threads(), 5);
    }

    #[test]
    fn joining_pool_can_drop_from_its_own_worker() {
        // Regression: the engine's io pool is join-on-drop, and the
        // last `Arc<Engine>` can be released by a job on one of its own
        // workers. The old Drop self-joined and aborted the process
        // with "Resource deadlock avoided"; now the self-handle is
        // detached and everyone else is still joined.
        struct Owner {
            pool: ThreadPool,
        }
        let owner = Arc::new(Owner { pool: ThreadPool::new(2, "selfjoin") });
        let done = Arc::new(AtomicUsize::new(0));
        let (o2, d2) = (Arc::clone(&owner), Arc::clone(&done));
        owner.pool.execute(move || {
            // Give main a moment to drop its reference so this worker
            // plausibly holds the last one.
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(o2); // last Arc → ThreadPool::drop runs on this worker
            d2.fetch_add(1, Ordering::SeqCst);
        });
        drop(owner);
        let t0 = std::time::Instant::now();
        while done.load(Ordering::SeqCst) == 0 {
            assert!(t0.elapsed() < std::time::Duration::from_secs(5), "worker wedged in drop");
            std::thread::yield_now();
        }
    }
}
