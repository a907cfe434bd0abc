//! Persistent work-stealing worker pool for experiment cells.
//!
//! The matrix runner used to spin up a scoped thread pool per call
//! (`par_map`); an always-on daemon cannot afford that — every submitted
//! job would pay thread spawn/join latency, and two concurrent jobs would
//! oversubscribe the host with two pools. This module replaces it with a
//! single process-wide [`ShardPool`]: one worker per available core, each
//! owning a shard (its own `VecDeque` run queue). Submission round-robins
//! across shards; an idle worker first drains its own shard front-to-back
//! (FIFO, so batches finish roughly in submission order) and then *steals*
//! from the back of a sibling's shard, so one slow cell on a shard never
//! strands the tasks queued behind it while other workers sit idle.
//!
//! Two task-level guarantees mirror the old `par_map` contract:
//!
//! - **panic isolation** — every task runs under `catch_unwind`; a
//!   panicking cell poisons nothing and the worker moves on,
//! - **graceful shutdown** — a batch submitted with `heed_shutdown` skips
//!   (returns `None` for) every task that had not started when the
//!   process shutdown flag ([`simcore::shutdown`]) went up.
//!
//! Tasks must never block on the completion of *another* pool task (e.g.
//! by calling [`ShardPool::run_batch`] from inside a task): with every
//! worker parked on such a wait the queued task could never run. The
//! server keeps cache waits on connection threads for exactly this
//! reason.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use crate::error::panic_message;
use simcore::shutdown;

/// A unit of work for the pool.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Point-in-time pool observability counters (served by `isacmpd` stats
/// frames and the load driver's report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker (and shard) count.
    pub workers: usize,
    /// Tasks queued but not yet started.
    pub queued: usize,
    /// Tasks executed since the pool started.
    pub executed: u64,
    /// Tasks a worker took from a sibling's shard.
    pub stolen: u64,
}

struct Inner {
    shards: Vec<Mutex<VecDeque<Task>>>,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    /// Tasks enqueued and not yet popped by a worker.
    queued: AtomicUsize,
    executed: AtomicU64,
    stolen: AtomicU64,
    stop: AtomicBool,
    /// Pairs with `work_cv`: workers hold this while deciding to sleep,
    /// submitters take it before notifying, so a wakeup cannot fall into
    /// the check-then-wait window.
    gate: Mutex<()>,
    work_cv: Condvar,
}

impl Inner {
    fn pop_own(&self, me: usize) -> Option<Task> {
        let task = lock(&self.shards[me]).pop_front();
        if task.is_some() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        task
    }

    fn steal(&self, me: usize) -> Option<Task> {
        let n = self.shards.len();
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(task) = lock(&self.shards[victim]).pop_back() {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                self.stolen.fetch_add(1, Ordering::Relaxed);
                return Some(task);
            }
        }
        None
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A persistent pool of worker threads with per-shard run queues and
/// work stealing. One process-wide instance lives behind [`global`]; tests
/// may build private pools with [`ShardPool::new`].
pub struct ShardPool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardPool {
    /// Build a pool with `workers` worker threads (clamped to at least 1),
    /// one shard each.
    pub fn new(workers: usize) -> ShardPool {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            shards: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            next: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            gate: Mutex::new(()),
            work_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("shard-{me}"))
                    .spawn(move || worker_loop(&inner, me))
                    .expect("spawn pool worker")
            })
            .collect();
        ShardPool {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueue one task on the next shard (round-robin) and wake a worker.
    /// The task runs under `catch_unwind`; a panic is contained to it.
    pub fn submit(&self, task: Task) {
        let shard = self.inner.next.fetch_add(1, Ordering::Relaxed) % self.inner.shards.len();
        lock(&self.inner.shards[shard]).push_back(task);
        self.inner.queued.fetch_add(1, Ordering::Relaxed);
        let _g = lock(&self.inner.gate);
        self.inner.work_cv.notify_one();
    }

    /// Run a batch of tasks to completion, returning per-task outcomes in
    /// input order: `Some(Ok(r))` for a finished task, `Some(Err(msg))`
    /// for one that panicked, `None` for one skipped because the process
    /// shutdown flag was up when it reached a worker (`heed_shutdown`
    /// only). Blocks until every slot is resolved, so borrow-free tasks
    /// submitted here never outlive the call.
    pub fn run_batch<R: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> R + Send>>,
        heed_shutdown: bool,
    ) -> Vec<Option<Result<R, String>>> {
        enum Slot<R> {
            Pending,
            Skipped,
            Done(Result<R, String>),
        }
        struct Batch<R> {
            slots: Mutex<(Vec<Slot<R>>, usize)>,
            done_cv: Condvar,
        }
        let n = tasks.len();
        let batch = Arc::new(Batch::<R> {
            slots: Mutex::new(((0..n).map(|_| Slot::Pending).collect(), 0)),
            done_cv: Condvar::new(),
        });
        for (i, task) in tasks.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            self.submit(Box::new(move || {
                let slot = if heed_shutdown && shutdown::requested() {
                    Slot::Skipped
                } else {
                    Slot::Done(
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(task))
                            .map_err(panic_message),
                    )
                };
                let mut st = lock(&batch.slots);
                st.0[i] = slot;
                st.1 += 1;
                if st.1 == n {
                    batch.done_cv.notify_all();
                }
            }));
        }
        let mut st = lock(&batch.slots);
        while st.1 < n {
            st = batch
                .done_cv
                .wait_timeout(st, Duration::from_millis(100))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        std::mem::take(&mut st.0)
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(r) => Some(r),
                Slot::Skipped => None,
                Slot::Pending => Some(Err("worker died before filling its slot".into())),
            })
            .collect()
    }

    /// Current pool counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.inner.shards.len(),
            queued: self.inner.queued.load(Ordering::Relaxed),
            executed: self.inner.executed.load(Ordering::Relaxed),
            stolen: self.inner.stolen.load(Ordering::Relaxed),
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        {
            let _g = lock(&self.inner.gate);
            self.inner.work_cv.notify_all();
        }
        for h in std::mem::take(&mut *lock(&self.workers)) {
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, me: usize) {
    loop {
        if let Some(task) = inner.pop_own(me).or_else(|| inner.steal(me)) {
            // Task-level containment: a panicking cell is that cell's
            // problem (the batch wrapper reports it), never the worker's.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
            inner.executed.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        if inner.stop.load(Ordering::Relaxed) {
            break;
        }
        let g = lock(&inner.gate);
        if inner.queued.load(Ordering::Relaxed) == 0 && !inner.stop.load(Ordering::Relaxed) {
            // Timed wait as a backstop against any missed notify; the gate
            // protocol above should make it unnecessary.
            let _ = inner.work_cv.wait_timeout(g, Duration::from_millis(50));
        }
    }
}

/// The process-wide pool every matrix run and daemon job shares, sized to
/// the host's available parallelism and started on first use.
pub fn global() -> &'static ShardPool {
    static POOL: OnceLock<ShardPool> = OnceLock::new();
    POOL.get_or_init(|| {
        ShardPool::new(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_of(nums: &[u32]) -> Vec<Box<dyn FnOnce() -> u32 + Send>> {
        nums.iter()
            .map(|&n| {
                Box::new(move || {
                    if n == 2 {
                        panic!("boom on {n}");
                    }
                    n * 10
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect()
    }

    #[test]
    fn batch_keeps_order_and_isolates_panics() {
        let pool = ShardPool::new(3);
        let out = pool.run_batch(batch_of(&[1, 2, 3]), false);
        assert_eq!(out[0], Some(Ok(10)));
        assert!(out[1]
            .as_ref()
            .is_some_and(|r| r.as_ref().is_err_and(|m| m.contains("boom on 2"))));
        assert_eq!(out[2], Some(Ok(30)));
        // `executed` ticks after the batch slot fills; wait it out.
        while pool.stats().executed < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.executed, 3);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn single_worker_pool_still_completes_batches() {
        let pool = ShardPool::new(1);
        let out = pool.run_batch(batch_of(&[1, 3, 4]), false);
        assert_eq!(out, vec![Some(Ok(10)), Some(Ok(30)), Some(Ok(40))]);
    }

    #[test]
    fn idle_workers_steal_queued_tasks() {
        // 2 workers, 8 tasks: round-robin puts 4 on each shard. Park shard
        // 0's worker in a slow task; the other worker must steal shard 0's
        // remaining tasks or the barrier below never opens.
        let pool = ShardPool::new(2);
        let slow = Arc::new(std::sync::Barrier::new(2));
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                let slow = Arc::clone(&slow);
                Box::new(move || {
                    if i == 0 {
                        slow.wait();
                    }
                    i
                }) as Box<dyn FnOnce() -> u32 + Send>
            })
            .collect();
        // Task 0 blocks its worker until task 7 (queued behind it on the
        // same shard or the sibling's) has run — only stealing gets there.
        let pool = Arc::new(pool);
        let p2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || p2.run_batch(tasks, false));
        // Release the barrier from outside once the other 7 are done.
        loop {
            if pool.stats().executed >= 7 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        slow.wait();
        let out = waiter.join().unwrap();
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|o| matches!(o, Some(Ok(_)))));
        assert!(pool.stats().stolen > 0, "sibling must have stolen work");
    }

    // The only test in this crate that raises the process-wide shutdown
    // flag (every other caller passes heed_shutdown=false), and it runs on
    // a private pool, so no lock is needed against parallel tests.
    #[test]
    fn heeding_batch_skips_tasks_after_shutdown() {
        let pool = ShardPool::new(2);
        shutdown::request();
        let out = pool.run_batch(batch_of(&[1, 3]), true);
        shutdown::reset();
        assert!(
            out.iter().all(Option::is_none),
            "no task runs once the flag is up"
        );
        let out = pool.run_batch(batch_of(&[1, 3]), true);
        assert_eq!(out, vec![Some(Ok(10)), Some(Ok(30))]);
    }
}
