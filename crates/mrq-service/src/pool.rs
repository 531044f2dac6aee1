//! The fixed-size worker pool: a bounded request queue drained by `N`
//! threads, with per-request deadlines and graceful shutdown.  The pool only
//! evaluates: cache hits are answered by the service before a job is queued,
//! so every job here is a cache miss (or a `no_cache` request).
//!
//! Threading model (also documented in `docs/ARCHITECTURE.md`):
//!
//! * Producers (connection handlers, the CLI) enqueue [`QueryJob`]s.
//!   [`WorkerPool::submit`] blocks while the queue is at capacity;
//!   [`WorkerPool::try_submit`] instead fails fast with
//!   [`ServiceError::QueueFull`] so a server can apply backpressure.
//! * Each worker pops the oldest job and runs, in order: one deadline check,
//!   then [`MaxRankQuery::evaluate`] under `catch_unwind`, fills the cache
//!   with the answer and responds.  One job is one evaluation on one thread,
//!   so the evaluation's page-read count (`mrq_index::iostats`) is exact
//!   however many workers share the index.
//! * A job whose deadline has passed at dequeue is answered with
//!   [`ServiceError::DeadlineExceeded`] without being evaluated.  A job that
//!   *starts* before its deadline runs
//!   to completion (MaxRank evaluation is not cooperatively cancellable);
//!   the waiting side stops listening at the deadline, so the late answer is
//!   simply dropped.
//! * [`WorkerPool::shutdown`] closes the queue, lets the workers drain every
//!   already-accepted job, and joins them.  Submissions after shutdown fail
//!   with [`ServiceError::ShuttingDown`].

use crate::cache::{CacheKey, ResultCache};
use crate::error::ServiceError;
use crate::querystats::QueryStatsBook;
use crate::registry::DatasetEntry;
use crate::sync::lock_or_recover;
use mrq_core::{Algorithm, MaxRankConfig, MaxRankQuery, MaxRankResult};
use mrq_data::RecordId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// One unit of work: evaluate MaxRank for `focal` on `entry`.
#[derive(Debug)]
pub struct QueryJob {
    /// The dataset + index the job runs against.
    pub entry: Arc<DatasetEntry>,
    /// Focal record id (validated against the dataset by the service).
    pub focal: RecordId,
    /// Concrete (resolved, never `Auto`) algorithm.
    pub algorithm: Algorithm,
    /// iMaxRank slack.
    pub tau: usize,
    /// Threads for the within-leaf cell enumeration (validated and clamped
    /// by the service).
    pub threads: usize,
    /// Absolute deadline; `None` = no deadline.
    pub deadline: Option<Instant>,
    /// Cache key the answer is stored under; `None` leaves the cache alone.
    pub cache_key: Option<CacheKey>,
    /// Where the outcome is delivered.
    pub responder: mpsc::Sender<JobOutcome>,
}

/// The outcome delivered to a job's responder channel: the evaluated
/// answer, or why there is none.
pub type JobOutcome = Result<Arc<MaxRankResult>, ServiceError>;

/// Pool sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Number of worker threads (>= 1).
    pub workers: usize,
    /// Maximum number of queued jobs before submitters block / are rejected.
    pub queue_capacity: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            queue_capacity: 256,
        }
    }
}

/// Counter snapshot exported through the `metrics` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Number of worker threads.
    pub workers: usize,
    /// Queue capacity.
    pub queue_capacity: usize,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Jobs evaluated (timed-out jobs not included).
    pub executed: u64,
    /// Jobs answered `DeadlineExceeded` at dequeue time.
    pub timed_out: u64,
}

struct Queue {
    jobs: VecDeque<QueryJob>,
    closed: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    config: PoolConfig,
    cache: Arc<ResultCache>,
    query_stats: Arc<QueryStatsBook>,
    executed: AtomicU64,
    timed_out: AtomicU64,
    /// Test hooks, armed per pool so that concurrently running tests never
    /// consume each other's: milliseconds each worker sleeps just before
    /// evaluation, and whether the next evaluation panics.
    #[cfg(test)]
    pre_eval_delay_ms: AtomicU64,
    #[cfg(test)]
    panic_next_eval: std::sync::atomic::AtomicBool,
}

/// The worker pool.  Dropping it shuts it down gracefully.
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns the workers.
    ///
    /// # Panics
    /// Panics if `workers` or `queue_capacity` is zero.
    pub fn new(
        config: PoolConfig,
        cache: Arc<ResultCache>,
        query_stats: Arc<QueryStatsBook>,
    ) -> Self {
        assert!(config.workers >= 1, "at least one worker is required");
        assert!(
            config.queue_capacity >= 1,
            "queue capacity must be positive"
        );
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            config,
            cache,
            query_stats,
            executed: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            #[cfg(test)]
            pre_eval_delay_ms: AtomicU64::new(0),
            #[cfg(test)]
            panic_next_eval: Default::default(),
        });
        let handles = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mrq-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueues a job, blocking while the queue is at capacity.
    pub fn submit(&self, job: QueryJob) -> Result<(), ServiceError> {
        let mut q = lock_or_recover(&self.shared.queue);
        loop {
            if q.closed {
                return Err(ServiceError::ShuttingDown);
            }
            if q.jobs.len() < self.shared.config.queue_capacity {
                q.jobs.push_back(job);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            q = self
                .shared
                .not_full
                .wait(q)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Enqueues a job, failing fast with [`ServiceError::QueueFull`] when the
    /// queue is at capacity (the server's backpressure path).
    pub fn try_submit(&self, job: QueryJob) -> Result<(), ServiceError> {
        let mut q = lock_or_recover(&self.shared.queue);
        if q.closed {
            return Err(ServiceError::ShuttingDown);
        }
        if q.jobs.len() >= self.shared.config.queue_capacity {
            return Err(ServiceError::QueueFull);
        }
        q.jobs.push_back(job);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let depth = lock_or_recover(&self.shared.queue).jobs.len();
        PoolStats {
            workers: self.shared.config.workers,
            queue_capacity: self.shared.config.queue_capacity,
            queue_depth: depth,
            executed: self.shared.executed.load(Ordering::Relaxed),
            timed_out: self.shared.timed_out.load(Ordering::Relaxed),
        }
    }

    /// Makes every evaluation in this pool sleep `ms` milliseconds first, so
    /// a test can hold a worker busy (tests only; 0 disarms it).
    #[cfg(test)]
    pub(crate) fn delay_evals(&self, ms: u64) {
        self.shared.pre_eval_delay_ms.store(ms, Ordering::Relaxed);
    }

    /// Makes the next evaluation in this pool panic (tests only).
    #[cfg(test)]
    pub(crate) fn panic_next_eval(&self) {
        self.shared.panic_next_eval.store(true, Ordering::Relaxed);
    }

    /// Graceful shutdown: stop accepting jobs, drain the queue, join the
    /// workers.  Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = lock_or_recover(&self.shared.queue);
            q.closed = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        let handles: Vec<_> = lock_or_recover(&self.handles).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = lock_or_recover(&shared.queue);
            while q.jobs.is_empty() && !q.closed {
                q = shared
                    .not_empty
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let Some(job) = q.jobs.pop_front() else {
                debug_assert!(q.closed);
                return;
            };
            job
        };
        shared.not_full.notify_one();
        run_job(shared, job);
    }
}

/// Answers one job: a deadline check, then one evaluation whose answer
/// fills the cache.
fn run_job(shared: &Shared, job: QueryJob) {
    if job.deadline.is_some_and(|d| d <= Instant::now()) {
        shared.timed_out.fetch_add(1, Ordering::Relaxed);
        respond(&job, Err(ServiceError::DeadlineExceeded));
        return;
    }

    #[cfg(test)]
    {
        let ms = shared.pre_eval_delay_ms.load(Ordering::Relaxed);
        if ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
    }

    let config = MaxRankConfig {
        tau: job.tau,
        algorithm: job.algorithm,
        threads: job.threads,
        ..MaxRankConfig::new()
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        #[cfg(test)]
        if shared.panic_next_eval.swap(false, Ordering::Relaxed) {
            panic!("injected evaluation panic");
        }
        MaxRankQuery::new(job.entry.data(), job.entry.tree()).evaluate(job.focal, &config)
    }));
    match outcome {
        Ok(result) => {
            shared.executed.fetch_add(1, Ordering::Relaxed);
            shared
                .query_stats
                .record_executed(job.entry.name(), &result.stats);
            let result = Arc::new(result);
            if let Some(key) = &job.cache_key {
                shared.cache.insert(key.clone(), Arc::clone(&result));
            }
            respond(&job, Ok(result));
        }
        Err(_) => respond(
            &job,
            Err(ServiceError::Internal(format!(
                "evaluation panicked (dataset '{}', focal {})",
                job.entry.name(),
                job.focal
            ))),
        ),
    }
}

fn respond(job: &QueryJob, outcome: JobOutcome) {
    // The waiter may have given up (deadline) — a closed channel is fine.
    let _ = job.responder.send(outcome);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{DatasetRegistry, DatasetSpec};
    use std::time::Duration;

    fn demo_entry() -> Arc<DatasetEntry> {
        let reg = DatasetRegistry::new();
        reg.register("demo", &DatasetSpec::Demo).unwrap()
    }

    fn job(
        entry: &Arc<DatasetEntry>,
        focal: RecordId,
        deadline: Option<Instant>,
        cache_key: Option<CacheKey>,
    ) -> (QueryJob, mpsc::Receiver<JobOutcome>) {
        let (tx, rx) = mpsc::channel();
        (
            QueryJob {
                entry: Arc::clone(entry),
                focal,
                algorithm: Algorithm::AdvancedApproach2D,
                tau: 0,
                threads: 1,
                deadline,
                cache_key,
                responder: tx,
            },
            rx,
        )
    }

    fn pool(workers: usize, queue: usize, cache: Arc<ResultCache>) -> WorkerPool {
        WorkerPool::new(
            PoolConfig {
                workers,
                queue_capacity: queue,
            },
            cache,
            Arc::new(QueryStatsBook::new()),
        )
    }

    #[test]
    fn evaluates_and_fills_the_cache() {
        let entry = demo_entry();
        let cache = Arc::new(ResultCache::new(8));
        let pool = pool(2, 8, Arc::clone(&cache));
        let key = CacheKey {
            dataset: "demo".into(),
            version: 0,
            focal: 5,
            algorithm: Algorithm::AdvancedApproach2D,
            tau: 0,
        };
        let (j1, rx1) = job(&entry, 5, None, Some(key.clone()));
        pool.submit(j1).unwrap();
        let answer = rx1.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
        assert_eq!(answer.k_star, 3);
        // The pool stores the answer without looking the key up: the one
        // lookup below is the cache's first, and it returns the very same
        // allocation.
        assert_eq!(cache.stats().misses, 0);
        assert!(Arc::ptr_eq(&cache.get(&key).unwrap(), &answer));

        // A job without a key evaluates and leaves the cache alone.
        let (j2, rx2) = job(&entry, 4, None, None);
        pool.submit(j2).unwrap();
        assert!(rx2.recv_timeout(Duration::from_secs(30)).unwrap().is_ok());
        let stats = cache.stats();
        assert_eq!((stats.len, stats.hits, stats.misses), (1, 1, 0));
        assert_eq!(pool.stats().executed, 2);
        pool.shutdown();
    }

    #[test]
    fn expired_deadline_is_rejected_without_evaluation() {
        let entry = demo_entry();
        let pool = pool(1, 8, Arc::new(ResultCache::new(0)));
        let past = Instant::now() - Duration::from_millis(1);
        let (j, rx) = job(&entry, 5, Some(past), None);
        pool.submit(j).unwrap();
        let out = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(out.unwrap_err(), ServiceError::DeadlineExceeded);
        let stats = pool.stats();
        assert_eq!(stats.timed_out, 1);
        assert_eq!(stats.executed, 0);
        pool.shutdown();
    }

    #[test]
    fn panicking_job_does_not_wedge_subsequent_submissions() {
        // One worker, so the panicking job and the follow-up run on the very
        // same thread: the panic must be contained by `catch_unwind`, the
        // waiter must get a typed error, and the worker must keep serving.
        let entry = demo_entry();
        let pool = pool(1, 8, Arc::new(ResultCache::new(0)));
        pool.panic_next_eval();
        let (j, rx) = job(&entry, 5, None, None);
        pool.submit(j).unwrap();
        let out = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        match out.unwrap_err() {
            ServiceError::Internal(msg) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected internal error, got {other:?}"),
        }
        let (j2, rx2) = job(&entry, 5, None, None);
        pool.submit(j2).unwrap();
        let out2 = rx2.recv_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(out2.unwrap().k_star, 3);
        pool.shutdown();
    }

    #[test]
    fn try_submit_applies_backpressure() {
        // One worker, capacity-1 queue: flood it and expect QueueFull.
        let entry = demo_entry();
        let pool = pool(1, 1, Arc::new(ResultCache::new(0)));
        let mut receivers = Vec::new();
        let mut saw_full = false;
        for _ in 0..200 {
            let (j, rx) = job(&entry, 5, None, None);
            match pool.try_submit(j) {
                Ok(()) => receivers.push(rx),
                Err(ServiceError::QueueFull) => saw_full = true,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(saw_full, "a capacity-1 queue must reject under flood");
        for rx in receivers {
            assert!(rx.recv_timeout(Duration::from_secs(30)).unwrap().is_ok());
        }
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_accepted_jobs_and_rejects_new_ones() {
        let entry = demo_entry();
        let pool = pool(2, 64, Arc::new(ResultCache::new(0)));
        let receivers: Vec<_> = (0..6u32)
            .map(|f| {
                let (j, rx) = job(&entry, f % 6, None, None);
                pool.submit(j).unwrap();
                rx
            })
            .collect();
        pool.shutdown();
        for rx in receivers {
            assert!(rx.recv_timeout(Duration::from_secs(30)).unwrap().is_ok());
        }
        let (j, _rx) = job(&entry, 5, None, None);
        assert_eq!(pool.submit(j).unwrap_err(), ServiceError::ShuttingDown);
        // Idempotent.
        pool.shutdown();
    }

    #[test]
    fn burst_on_one_worker_evaluates_every_job() {
        let entry = demo_entry();
        let pool = pool(1, 64, Arc::new(ResultCache::new(0)));
        let receivers: Vec<_> = (0..32u32)
            .map(|f| {
                let (j, rx) = job(&entry, f % 6, None, None);
                pool.submit(j).unwrap();
                rx
            })
            .collect();
        for rx in receivers {
            assert!(rx.recv_timeout(Duration::from_secs(30)).unwrap().is_ok());
        }
        // No cache: each of the 32 jobs is its own evaluation.
        assert_eq!(pool.stats().executed, 32);
        pool.shutdown();
    }
}
