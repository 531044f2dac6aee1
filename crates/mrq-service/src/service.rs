//! The in-process query service: registry → cache → queue → worker pool,
//! composed behind one handle.  The TCP server is a thin framing layer over
//! this type, and `maxrank-cli --threads` drives it directly.
//!
//! There is one evaluation path: every query, including a standing query's
//! initial one and its re-evaluations after an update, is a
//! [`MrqService::query`].  A cache hit is answered at once on the calling
//! thread; a miss is evaluated by the pool, with its panic isolation,
//! deadline check and counters, and fills the cache.

use crate::cache::{CacheKey, CacheStats, ResultCache};
use crate::error::ServiceError;
use crate::pool::{JobOutcome, PoolConfig, PoolStats, QueryJob, WorkerPool};
use crate::querystats::{DatasetQueryStats, QueryStatsBook};
use crate::registry::{DatasetRegistry, DurabilityStats, UpdateOutcome};
use crate::subscriptions::{NotifyMailbox, Subscription, SubscriptionBook, SubscriptionStats};
use crate::sync::lock_or_recover;
use mrq_core::{Algorithm, MaxRankResult};
use mrq_data::{RecordId, Update};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Sizing and policy knobs of one service instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        let pool = PoolConfig::default();
        Self {
            workers: pool.workers,
            queue_capacity: pool.queue_capacity,
            cache_capacity: 1024,
            default_deadline: None,
        }
    }
}

/// One MaxRank request against a registered dataset.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Registered dataset name.
    pub dataset: String,
    /// Focal record id.
    pub focal: RecordId,
    /// Requested algorithm (`Auto` is resolved against the dataset's
    /// dimensionality before execution and caching).
    pub algorithm: Algorithm,
    /// iMaxRank slack.
    pub tau: usize,
    /// Per-request deadline; `None` falls back to the service default.
    pub timeout: Option<Duration>,
    /// Skip the result cache for this request (both lookup and fill).
    pub no_cache: bool,
    /// Threads for the within-leaf cell enumeration of this request (0 and 1
    /// both mean sequential; clamped to [`MAX_REQUEST_THREADS`]).  The answer
    /// is identical for any value, so the result cache is shared across
    /// thread counts.
    pub threads: usize,
}

/// Upper bound on the per-request enumeration threads a client may ask for
/// (each worker thread of the pool fans out at most this much).
pub const MAX_REQUEST_THREADS: usize = 16;

impl QueryRequest {
    /// A plain MaxRank request with the default algorithm and no deadline.
    pub fn new(dataset: impl Into<String>, focal: RecordId) -> Self {
        Self {
            dataset: dataset.into(),
            focal,
            algorithm: Algorithm::Auto,
            tau: 0,
            timeout: None,
            no_cache: false,
            threads: 1,
        }
    }
}

/// A service answer: the (shared) result plus serving metadata.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The MaxRank result (shared with the cache — do not mutate).
    pub result: Arc<MaxRankResult>,
    /// Whether the answer came from the result cache.
    pub cached: bool,
    /// The concrete algorithm that produced it.
    pub algorithm: Algorithm,
    /// The dataset version the answer was computed at (the snapshot taken
    /// when the request was validated).
    pub version: u64,
}

/// Combined counters: the snapshot [`crate::metrics::families`] reads.
#[derive(Debug, Clone, Default)]
pub struct ServiceStats {
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Worker-pool counters.
    pub pool: PoolStats,
    /// Registered dataset names.
    pub datasets: Vec<String>,
    /// Cumulative per-dataset query statistics (ordered by dataset name;
    /// datasets never queried are absent).
    pub per_dataset: Vec<DatasetQueryStats>,
    /// Durability counters (recovery, WAL appends, checkpoints) — real file
    /// I/O, all zeros when no dataset is registered durably.
    pub durability: DurabilityStats,
    /// Standing-query counters: active subscriptions and the delta-triage
    /// outcome tallies.
    pub subscriptions: SubscriptionStats,
    /// Fault-tolerance counters: shed connections, idle disconnects and
    /// UPDATE dedup replays.
    pub reliability: ReliabilityStats,
    /// Names of datasets currently in degraded read-only mode, sorted.
    pub degraded: Vec<String>,
}

/// Point-in-time fault-tolerance counters, exported through `metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReliabilityStats {
    /// Connections refused at accept time because the server was at its
    /// connection limit.
    pub connections_shed: u64,
    /// Connections dropped for holding a partial frame past the idle
    /// timeout (slow-loris protection).
    pub idle_disconnects: u64,
    /// UPDATE requests answered from the dedup window (a retry whose
    /// original had already applied).
    pub update_dedup_hits: u64,
    /// Subscriber connections cut because an update's `NOTIFY` write failed
    /// or made no progress for the write-stall timeout.
    pub slow_consumer_disconnects: u64,
}

/// Shared fault-tolerance counter cell: the TCP server increments the
/// connection-level counters, the service increments the dedup counter.
#[derive(Debug, Default)]
pub struct ReliabilityBook {
    connections_shed: AtomicU64,
    idle_disconnects: AtomicU64,
    update_dedup_hits: AtomicU64,
    slow_consumer_disconnects: AtomicU64,
}

impl ReliabilityBook {
    /// Counts one connection refused at accept time.
    pub fn count_shed(&self) {
        self.connections_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one idle (slow-loris) disconnect.
    pub fn count_idle_disconnect(&self) {
        self.idle_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one UPDATE replayed from the dedup window.
    pub fn count_dedup_hit(&self) {
        self.update_dedup_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one subscriber connection cut by a failed `NOTIFY` write.
    pub fn count_slow_consumer_disconnect(&self) {
        self.slow_consumer_disconnects
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot.
    pub fn snapshot(&self) -> ReliabilityStats {
        ReliabilityStats {
            connections_shed: self.connections_shed.load(Ordering::Relaxed),
            idle_disconnects: self.idle_disconnects.load(Ordering::Relaxed),
            update_dedup_hits: self.update_dedup_hits.load(Ordering::Relaxed),
            slow_consumer_disconnects: self.slow_consumer_disconnects.load(Ordering::Relaxed),
        }
    }
}

/// A pending answer: the validated request was answered from the cache or
/// accepted by the queue.
pub struct PendingAnswer {
    state: Pending,
    algorithm: Algorithm,
    version: u64,
}

enum Pending {
    /// A cache hit, answered before anything was queued.
    Cached(Arc<MaxRankResult>),
    /// A miss, queued for evaluation.
    Queued {
        rx: mpsc::Receiver<JobOutcome>,
        deadline: Option<Instant>,
    },
}

impl PendingAnswer {
    /// Returns a cache hit at once; otherwise blocks until the answer
    /// arrives or the request's deadline passes.
    pub fn wait(self) -> Result<QueryAnswer, ServiceError> {
        let (result, cached) = match self.state {
            Pending::Cached(result) => (result, true),
            Pending::Queued { rx, deadline } => (receive(&rx, deadline)?, false),
        };
        Ok(QueryAnswer {
            result,
            cached,
            algorithm: self.algorithm,
            version: self.version,
        })
    }
}

/// Waits for a queued job's outcome until `deadline`.
fn receive(
    rx: &mpsc::Receiver<JobOutcome>,
    deadline: Option<Instant>,
) -> Result<Arc<MaxRankResult>, ServiceError> {
    let dropped = || ServiceError::Internal("worker dropped the request".into());
    match deadline {
        None => rx.recv().map_err(|_| dropped())?,
        Some(deadline) => {
            let budget = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(budget) {
                Ok(outcome) => outcome,
                Err(mpsc::RecvTimeoutError::Timeout) => Err(ServiceError::DeadlineExceeded),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err(dropped()),
            }
        }
    }
}

/// The long-lived query service.
#[derive(Debug)]
pub struct MrqService {
    registry: Arc<DatasetRegistry>,
    cache: Arc<ResultCache>,
    query_stats: Arc<QueryStatsBook>,
    subscriptions: Arc<SubscriptionBook>,
    reliability: Arc<ReliabilityBook>,
    pool: WorkerPool,
    config: ServiceConfig,
}

impl MrqService {
    /// Builds a service over an existing registry.
    pub fn new(registry: Arc<DatasetRegistry>, config: ServiceConfig) -> Self {
        let cache = Arc::new(ResultCache::new(config.cache_capacity));
        let query_stats = Arc::new(QueryStatsBook::new());
        let pool = WorkerPool::new(
            PoolConfig {
                workers: config.workers,
                queue_capacity: config.queue_capacity,
            },
            Arc::clone(&cache),
            Arc::clone(&query_stats),
        );
        Self {
            registry,
            cache,
            query_stats,
            subscriptions: Arc::new(SubscriptionBook::new()),
            reliability: Arc::new(ReliabilityBook::default()),
            pool,
            config,
        }
    }

    /// The dataset registry.
    pub fn registry(&self) -> &Arc<DatasetRegistry> {
        &self.registry
    }

    /// The shared fault-tolerance counters (the TCP server increments the
    /// connection-level ones).
    pub fn reliability(&self) -> &Arc<ReliabilityBook> {
        &self.reliability
    }

    /// Validates a request and answers it from the cache, or enqueues it,
    /// blocking while the queue is full.
    pub fn enqueue(&self, request: &QueryRequest) -> Result<PendingAnswer, ServiceError> {
        self.enqueue_inner(request, true)
    }

    /// Validates a request and answers it from the cache, or enqueues it,
    /// failing fast with [`ServiceError::QueueFull`] when the queue is at
    /// capacity.
    pub fn try_enqueue(&self, request: &QueryRequest) -> Result<PendingAnswer, ServiceError> {
        self.enqueue_inner(request, false)
    }

    /// Blocking convenience: enqueue + wait.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryAnswer, ServiceError> {
        self.enqueue(request)?.wait()
    }

    /// Validates a request against a snapshot of its dataset, then answers
    /// it from the cache or enqueues it on that snapshot.  A hit takes no
    /// queue slot and is served whatever the request's deadline.
    fn enqueue_inner(
        &self,
        request: &QueryRequest,
        block: bool,
    ) -> Result<PendingAnswer, ServiceError> {
        let (dataset, focal) = (&request.dataset, request.focal);
        // Snapshot: the job keeps this entry for as long as it needs, so a
        // concurrent update cannot move the data out from under it.
        let entry = self
            .registry
            .get(dataset)
            .ok_or_else(|| ServiceError::UnknownDataset(dataset.to_string()))?;
        let dims = entry.data().dims();
        if focal as usize >= entry.data().len() {
            return Err(ServiceError::BadRequest(format!(
                "focal {focal} out of range (dataset '{dataset}' has {} record ids)",
                entry.data().len()
            )));
        }
        if !entry.data().is_live(focal) {
            return Err(ServiceError::BadRequest(format!(
                "focal {focal} of dataset '{dataset}' was deleted (as of version {}); pick a live record",
                entry.version()
            )));
        }
        if request.algorithm.requires_2d() && dims != 2 {
            return Err(ServiceError::BadRequest(format!(
                "algorithm '{}' only supports 2-dimensional data (dataset '{dataset}' has {dims})",
                request.algorithm.name(),
            )));
        }
        let algorithm = request.algorithm.resolve(dims);
        let version = entry.version();
        let cache_key = (!request.no_cache).then(|| CacheKey {
            dataset: dataset.clone(),
            version,
            focal,
            algorithm,
            tau: request.tau,
        });
        if let Some(result) = cache_key.as_ref().and_then(|key| self.cache.get(key)) {
            self.query_stats.record_cache_hit(dataset);
            return Ok(PendingAnswer {
                state: Pending::Cached(result),
                algorithm,
                version,
            });
        }
        let deadline = request
            .timeout
            .or(self.config.default_deadline)
            .map(|t| Instant::now() + t);
        let (tx, rx) = mpsc::channel();
        let job = QueryJob {
            entry,
            focal,
            algorithm,
            tau: request.tau,
            threads: request.threads.clamp(1, MAX_REQUEST_THREADS),
            deadline,
            cache_key,
            responder: tx,
        };
        if block {
            self.pool.submit(job)?;
        } else {
            self.pool.try_submit(job)?;
        }
        Ok(PendingAnswer {
            state: Pending::Queued { rx, deadline },
            algorithm,
            version,
        })
    }

    /// Applies an update batch to a registered dataset.
    ///
    /// Updates to one dataset are serialized (per-dataset lock inside the
    /// registry handle); queries already in flight keep the snapshot they
    /// started with and queries arriving after the swap see the new version.
    /// The batch is atomic — on the first rejected update nothing of the
    /// batch becomes visible.  The apply runs on the calling thread; a
    /// standing query the batch may have changed is re-evaluated as an
    /// ordinary query, and one whose re-evaluation fails is
    /// cancelled without failing the (already committed) update.
    pub fn update(&self, dataset: &str, updates: &[Update]) -> Result<UpdateOutcome, ServiceError> {
        self.update_with_id(dataset, updates, None)
    }

    /// Like [`MrqService::update`], with an optional client-generated
    /// `request_id` for exactly-once retries: a retry whose original already
    /// applied replays the receipt from the dataset's dedup window instead
    /// of re-applying (and skips the cache carry and subscription triage —
    /// both already ran when the original landed).
    pub fn update_with_id(
        &self,
        dataset: &str,
        updates: &[Update],
        request_id: Option<&str>,
    ) -> Result<UpdateOutcome, ServiceError> {
        if updates.is_empty() {
            return Err(ServiceError::BadRequest(
                "update needs at least one insert or delete".into(),
            ));
        }
        let handle = self
            .registry
            .handle(dataset)
            .ok_or_else(|| ServiceError::UnknownDataset(dataset.to_string()))?;
        // Hold the dataset's subscription lock across apply + triage: a
        // subscriber registering concurrently either sees the pre-batch
        // snapshot (and is then triaged by this batch) or the post-batch one
        // — never a result stamped with the wrong version.  It also pins
        // every re-evaluation below to the post-apply snapshot.
        let subs = self.subscriptions.dataset(dataset);
        let mut subs = lock_or_recover(&subs);
        let (outcome, replayed) =
            handle
                .apply_with_id(updates, request_id)
                .map_err(|e| match e {
                    // A storage failure is the server's problem, not the
                    // client's.
                    mrq_data::UpdateError::Storage(msg) => {
                        ServiceError::Internal(format!("update not committed: {msg}"))
                    }
                    mrq_data::UpdateError::Degraded(reason) => ServiceError::DatasetDegraded {
                        dataset: dataset.to_string(),
                        reason,
                    },
                    other => ServiceError::BadRequest(format!("update rejected: {other}")),
                })?;
        if replayed {
            self.reliability.count_dedup_hit();
            return Ok(outcome);
        }
        // Carry the cache entries the batch provably leaves exact to the new
        // version, before the standing queries re-evaluate through the
        // cache, and return every other superseded entry's LRU slot now.
        let entry = self.registry.get(dataset);
        match &entry {
            Some(entry) if entry.version() == outcome.version => {
                // Each update of a batch bumps the version by one, and a
                // batch lands whole.
                let parent = outcome.version - updates.len() as u64;
                self.cache.carry(dataset, parent, entry.data(), updates);
            }
            _ => {
                self.cache.purge_stale(dataset, outcome.version);
            }
        }
        let mailboxes = match entry {
            Some(entry) if !subs.is_empty() => {
                self.subscriptions
                    .triage_batch(&mut subs, &entry, updates, |sub: &Subscription| {
                        self.query(&QueryRequest {
                            algorithm: sub.algorithm(),
                            tau: sub.tau(),
                            ..QueryRequest::new(dataset, sub.focal())
                        })
                    })
            }
            _ => Vec::new(),
        };
        // Socket writes wait until the subscription lock is released; the
        // events were queued under it, in version order.
        drop(subs);
        for mailbox in mailboxes {
            if mailbox.flush().is_err() {
                self.reliability.count_slow_consumer_disconnect();
            }
        }
        Ok(outcome)
    }

    /// Registers a standing query: queries the focal's MaxRank result on
    /// the current snapshot, keeps it resident and maintains it under every
    /// subsequent update batch.  Change (and cancellation) events are pushed
    /// to `mailbox` and flushed by the update that produced them (a server
    /// connection's mailbox writes them as `NOTIFY` frames; an in-process
    /// caller drains it).
    ///
    /// The initial query is an ordinary one (cache, default deadline for a
    /// miss, counters), run under the dataset's subscription lock —
    /// registration is atomic with respect to updates.
    pub fn subscribe(
        &self,
        dataset: &str,
        focal: RecordId,
        algorithm: Algorithm,
        tau: usize,
        mailbox: Arc<NotifyMailbox>,
    ) -> Result<Arc<Subscription>, ServiceError> {
        let subs = self.subscriptions.dataset(dataset);
        let mut subs = lock_or_recover(&subs);
        let answer = self.query(&QueryRequest {
            algorithm,
            tau,
            ..QueryRequest::new(dataset, focal)
        })?;
        let sub = self
            .subscriptions
            .create(dataset, focal, tau, answer, mailbox);
        subs.push(Arc::clone(&sub));
        Ok(sub)
    }

    /// Cancels a standing query by id.  Returns whether it existed.
    pub fn unsubscribe(&self, id: u64) -> bool {
        self.subscriptions.remove(id)
    }

    /// Drops every subscription registered through `mailbox` (its connection
    /// is gone).  Returns how many were dropped.
    pub fn drop_subscriber(&self, mailbox: &Arc<NotifyMailbox>) -> usize {
        self.subscriptions.remove_mailbox(mailbox)
    }

    /// The result-cache entries of `dataset`, most recently used first,
    /// read without counting a lookup.
    pub fn cached_entries(&self, dataset: &str) -> Vec<(CacheKey, Arc<MaxRankResult>)> {
        self.cache.entries(dataset)
    }

    /// Combined cache / pool / registry counters plus per-dataset query
    /// totals.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: self.cache.stats(),
            pool: self.pool.stats(),
            datasets: self.registry.names(),
            per_dataset: self.query_stats.snapshot(),
            durability: self.registry.durability_stats(),
            subscriptions: self.subscriptions.stats(),
            reliability: self.reliability.snapshot(),
            degraded: self.registry.degraded_datasets(),
        }
    }

    /// Graceful shutdown: drain accepted work, stop the workers.  Idempotent.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DatasetSpec;
    use mrq_core::{MaxRankConfig, MaxRankQuery};

    fn demo_service(config: ServiceConfig) -> MrqService {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("demo", &DatasetSpec::Demo).unwrap();
        MrqService::new(registry, config)
    }

    #[test]
    fn query_matches_direct_evaluation() {
        let service = demo_service(ServiceConfig::default());
        let answer = service.query(&QueryRequest::new("demo", 5)).unwrap();
        assert_eq!(answer.result.k_star, 3);
        assert_eq!(answer.result.region_count(), 2);
        assert_eq!(answer.algorithm, Algorithm::AdvancedApproach2D);
        assert!(!answer.cached);

        let entry = service.registry().get("demo").unwrap();
        let fresh =
            MaxRankQuery::new(entry.data(), entry.tree()).evaluate(5, &MaxRankConfig::new());
        assert_eq!(answer.result.k_star, fresh.k_star);
        assert_eq!(answer.result.region_count(), fresh.region_count());
        service.shutdown();
    }

    #[test]
    fn repeated_query_hits_cache() {
        let service = demo_service(ServiceConfig::default());
        let req = QueryRequest::new("demo", 5);
        let first = service.query(&req).unwrap();
        let second = service.query(&req).unwrap();
        assert!(!first.cached);
        assert!(second.cached);
        // The cache returns the very same allocation.
        assert!(Arc::ptr_eq(&first.result, &second.result));
        // An explicit request for the resolved algorithm shares the entry.
        let explicit = service
            .query(&QueryRequest {
                algorithm: Algorithm::AdvancedApproach2D,
                ..req
            })
            .unwrap();
        assert!(explicit.cached);
        assert_eq!(service.stats().cache.hits, 2);
        service.shutdown();
    }

    #[test]
    fn a_cache_hit_is_served_while_the_queue_is_full() {
        let service = demo_service(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let cached = service.query(&QueryRequest::new("demo", 5)).unwrap();
        // Hold the only worker on one miss, then fill the queue with another.
        service.pool.delay_evals(1_000);
        let held = service.try_enqueue(&QueryRequest::new("demo", 4)).unwrap();
        while service.stats().pool.queue_depth > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let queued = service.try_enqueue(&QueryRequest::new("demo", 3)).unwrap();
        service.pool.delay_evals(0);

        let hit = service
            .try_enqueue(&QueryRequest::new("demo", 5))
            .unwrap()
            .wait()
            .unwrap();
        assert!(hit.cached);
        assert!(Arc::ptr_eq(&hit.result, &cached.result));
        assert_eq!(
            service.try_enqueue(&QueryRequest::new("demo", 2)).err(),
            Some(ServiceError::QueueFull)
        );
        assert!(!held.wait().unwrap().cached);
        assert!(!queued.wait().unwrap().cached);
        let stats = service.stats();
        assert_eq!(stats.pool.executed, 3);
        assert_eq!((stats.cache.hits, stats.per_dataset[0].cache_hits), (1, 1));
        service.shutdown();
    }

    #[test]
    fn auto_on_3d_data_runs_ba_and_shares_its_cache_entry() {
        use crate::subscriptions::NotifyMailbox;

        let service = demo_service(ServiceConfig::default());
        service
            .registry()
            .register(
                "d3",
                &DatasetSpec::Synthetic {
                    dist: mrq_data::Distribution::Independent,
                    n: 120,
                    d: 3,
                    seed: 9,
                },
            )
            .unwrap();
        let req = QueryRequest::new("d3", 5);
        let first = service.query(&req).unwrap();
        assert_eq!(first.algorithm, Algorithm::BasicApproach);
        assert!(!first.cached);
        // An explicit request for the resolved algorithm shares the entry.
        let explicit = service
            .query(&QueryRequest {
                algorithm: Algorithm::BasicApproach,
                ..req.clone()
            })
            .unwrap();
        assert!(explicit.cached);
        assert!(Arc::ptr_eq(&first.result, &explicit.result));
        // So does a standing query registered with `auto`.
        let sub = service
            .subscribe("d3", 5, Algorithm::Auto, 0, Arc::new(NotifyMailbox::new()))
            .unwrap();
        assert_eq!(sub.algorithm(), Algorithm::BasicApproach);
        assert!(Arc::ptr_eq(&sub.snapshot().0, &first.result));
        // AA is another algorithm: its own entry, and the same k*.
        let aa = service
            .query(&QueryRequest {
                algorithm: Algorithm::AdvancedApproach,
                ..req
            })
            .unwrap();
        assert_eq!(aa.algorithm, Algorithm::AdvancedApproach);
        assert!(!aa.cached);
        assert_eq!(aa.result.k_star, first.result.k_star);
        let cache = service.stats().cache;
        assert_eq!((cache.hits, cache.misses), (2, 2));
        service.shutdown();
    }

    #[test]
    fn no_cache_requests_bypass_the_cache() {
        let service = demo_service(ServiceConfig::default());
        let req = QueryRequest {
            no_cache: true,
            ..QueryRequest::new("demo", 5)
        };
        service.query(&req).unwrap();
        let again = service.query(&req).unwrap();
        assert!(!again.cached);
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 0);
        assert_eq!(stats.cache.len, 0);
        service.shutdown();
    }

    #[test]
    fn validation_errors() {
        let service = demo_service(ServiceConfig::default());
        assert!(matches!(
            service.query(&QueryRequest::new("nope", 0)),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            service.query(&QueryRequest::new("demo", 99)),
            Err(ServiceError::BadRequest(_))
        ));
        let registry = Arc::clone(service.registry());
        registry
            .register(
                "d3",
                &DatasetSpec::Synthetic {
                    dist: mrq_data::Distribution::Independent,
                    n: 30,
                    d: 3,
                    seed: 1,
                },
            )
            .unwrap();
        assert!(matches!(
            service.query(&QueryRequest {
                algorithm: Algorithm::Fca,
                ..QueryRequest::new("d3", 0)
            }),
            Err(ServiceError::BadRequest(_))
        ));
        service.shutdown();
    }

    #[test]
    fn threaded_request_matches_sequential_and_shares_cache() {
        let service = demo_service(ServiceConfig::default());
        let registry = Arc::clone(service.registry());
        registry
            .register(
                "d3",
                &DatasetSpec::Synthetic {
                    dist: mrq_data::Distribution::AntiCorrelated,
                    n: 80,
                    d: 3,
                    seed: 7,
                },
            )
            .unwrap();
        let seq = service.query(&QueryRequest::new("d3", 11)).unwrap();
        let par = service
            .query(&QueryRequest {
                threads: 4,
                ..QueryRequest::new("d3", 11)
            })
            .unwrap();
        assert_eq!(seq.result.k_star, par.result.k_star);
        assert_eq!(seq.result.region_count(), par.result.region_count());
        // The answer is thread-count independent, so the cache entry is
        // shared: the second call must be a hit on the first call's entry.
        assert!(par.cached);
        assert!(Arc::ptr_eq(&seq.result, &par.result));
        // An absurd request is clamped, not rejected.
        let clamped = service
            .query(&QueryRequest {
                threads: 10_000,
                no_cache: true,
                ..QueryRequest::new("d3", 11)
            })
            .unwrap();
        assert_eq!(clamped.result.k_star, seq.result.k_star);
        service.shutdown();
    }

    #[test]
    fn stats_reports_datasets_and_counters() {
        let service = demo_service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        service.query(&QueryRequest::new("demo", 5)).unwrap();
        let stats = service.stats();
        assert_eq!(stats.datasets, vec!["demo".to_string()]);
        assert_eq!(stats.pool.workers, 2);
        assert_eq!(stats.pool.executed, 1);
        assert_eq!(stats.cache.misses, 1);
        service.shutdown();
    }

    #[test]
    fn stats_accumulates_per_dataset_query_totals() {
        let service = demo_service(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let registry = Arc::clone(service.registry());
        for (name, d) in [("d3", 3), ("d4", 4)] {
            registry
                .register(
                    name,
                    &DatasetSpec::Synthetic {
                        dist: mrq_data::Distribution::Independent,
                        n: 60,
                        d,
                        seed: 5,
                    },
                )
                .unwrap();
        }
        // Two distinct demo queries, one repeat (cache hit), one 3-d and one
        // 4-d query.
        service.query(&QueryRequest::new("demo", 5)).unwrap();
        service.query(&QueryRequest::new("demo", 1)).unwrap();
        service.query(&QueryRequest::new("demo", 5)).unwrap();
        service.query(&QueryRequest::new("d3", 7)).unwrap();
        service.query(&QueryRequest::new("d4", 7)).unwrap();
        let stats = service.stats();
        assert_eq!(stats.per_dataset.len(), 3);
        // Ordered by name: d3, d4, demo.
        let d3 = &stats.per_dataset[0];
        let d4 = &stats.per_dataset[1];
        let demo = &stats.per_dataset[2];
        assert_eq!(d3.dataset, "d3");
        assert_eq!(d4.dataset, "d4");
        assert_eq!(demo.dataset, "demo");
        assert_eq!(demo.queries, 2);
        assert_eq!(demo.cache_hits, 1);
        assert_eq!(d3.queries, 1);
        assert_eq!(d3.cache_hits, 0);
        assert_eq!(d4.queries, 1);
        assert_eq!(d4.cache_hits, 0);
        // The 3-d evaluation runs the within-leaf module's planar path, so
        // its candidate counter must have moved; the 4-d one runs the LP
        // path, so its LP counter must have moved too.
        assert!(d3.cells_tested > 0);
        assert!(d3.io_reads > 0);
        assert!(d4.cells_tested > 0);
        assert!(d4.lp_calls > 0);
        assert!(d4.io_reads > 0);
        service.shutdown();
    }

    /// The resident cache keys of the demo dataset, as (focal, version).
    fn demo_keys(service: &MrqService) -> Vec<(RecordId, u64)> {
        let mut keys: Vec<_> = service
            .cached_entries("demo")
            .iter()
            .map(|(key, _)| (key.focal, key.version))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// The carry rule, case by case, on focal 5 of the demo data (k* = 3).
    #[test]
    fn an_update_carries_the_cache_entries_it_proves_exact() {
        let service = demo_service(ServiceConfig::default());
        let req = QueryRequest::new("demo", 5);
        let fresh = |service: &MrqService| {
            service
                .query(&QueryRequest {
                    no_cache: true,
                    ..QueryRequest::new("demo", 5)
                })
                .unwrap()
                .result
        };
        let first = service.query(&req).unwrap();
        assert_eq!((first.version, first.result.k_star), (0, 3));

        // A dominated insert: the same `Arc`, served at the new version.
        service
            .update("demo", &[Update::Insert(vec![0.05, 0.05])])
            .unwrap();
        let kept = service.query(&req).unwrap();
        assert_eq!(kept.version, 1);
        assert!(kept.cached);
        assert!(Arc::ptr_eq(&kept.result, &first.result));

        // A dominating insert: the entry is shifted, and equals a fresh
        // evaluation.
        service
            .update("demo", &[Update::Insert(vec![0.95, 0.95])])
            .unwrap();
        let shifted = service.query(&req).unwrap();
        assert_eq!(shifted.version, 2);
        assert!(shifted.cached);
        assert!(!Arc::ptr_eq(&shifted.result, &first.result));
        let evaluated = fresh(&service);
        assert_eq!(shifted.result.k_star, 4);
        assert_eq!(shifted.result.k_star, evaluated.k_star);
        let orders = |r: &MaxRankResult| r.regions.iter().map(|g| g.order).collect::<Vec<_>>();
        assert_eq!(orders(&shifted.result), orders(&evaluated));
        let stats = service.stats().cache;
        assert_eq!((stats.carried, stats.evictions_stale), (2, 0));

        // An insert whose half-space crosses a result region: purged.
        service
            .update("demo", &[Update::Insert(vec![0.6, 0.45])])
            .unwrap();
        assert_eq!(demo_keys(&service), vec![], "the crossed entry is gone");
        assert_eq!(service.stats().cache.evictions_stale, 1);
        let crossed = service.query(&req).unwrap();
        assert!(!crossed.cached);
        assert_eq!(crossed.result.k_star, fresh(&service).k_star);

        // Deleting the focal: purged, however the rest of the batch goes.
        service.query(&QueryRequest::new("demo", 4)).unwrap();
        assert_eq!(demo_keys(&service), vec![(4, 3), (5, 3)]);
        service.update("demo", &[Update::Delete(5)]).unwrap();
        // Focal 4 loses a dominator: shifted and carried.
        assert_eq!(demo_keys(&service), vec![(4, 4)]);
        let stats = service.stats().cache;
        assert_eq!((stats.carried, stats.evictions_stale), (3, 2));
        service.shutdown();
    }

    #[test]
    fn update_validation_errors() {
        let service = demo_service(ServiceConfig::default());
        assert!(matches!(
            service.update("nope", &[Update::Delete(0)]),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            service.update("demo", &[]),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            service.update("demo", &[Update::Insert(vec![0.1, 0.2, 0.3])]),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            service.update("demo", &[Update::Delete(99)]),
            Err(ServiceError::BadRequest(_))
        ));
        // Nothing landed.
        assert_eq!(service.registry().get("demo").unwrap().version(), 0);
        service.shutdown();
    }

    #[test]
    fn update_with_id_replays_and_counts_dedup_hits() {
        let service = demo_service(ServiceConfig::default());
        let batch = vec![Update::Insert(vec![0.9, 0.1])];
        let first = service.update_with_id("demo", &batch, Some("r1")).unwrap();
        // The retry is answered from the dedup window, not re-applied.
        let second = service.update_with_id("demo", &batch, Some("r1")).unwrap();
        assert_eq!(first, second);
        assert_eq!(service.registry().get("demo").unwrap().version(), 1);
        let stats = service.stats();
        assert_eq!(stats.reliability.update_dedup_hits, 1);
        assert!(stats.degraded.is_empty());
        service.shutdown();
    }

    #[test]
    fn deleted_focal_is_rejected_with_a_friendly_error() {
        let service = demo_service(ServiceConfig::default());
        service.update("demo", &[Update::Delete(5)]).unwrap();
        let err = service.query(&QueryRequest::new("demo", 5)).unwrap_err();
        match err {
            ServiceError::BadRequest(msg) => {
                assert!(msg.contains("deleted"), "{msg}");
                assert!(msg.contains("live record"), "{msg}");
            }
            other => panic!("expected BadRequest, got {other}"),
        }
        // Other focals still work, on the new snapshot.
        let ok = service.query(&QueryRequest::new("demo", 0)).unwrap();
        assert_eq!(ok.version, 1);
        service.shutdown();
    }

    #[test]
    fn subscription_shift_skip_and_reeval() {
        use crate::subscriptions::{NotifyKind, NotifyMailbox};

        let service = demo_service(ServiceConfig::default());
        let mailbox = Arc::new(NotifyMailbox::new());
        let sub = service
            .subscribe("demo", 5, Algorithm::Auto, 0, Arc::clone(&mailbox))
            .unwrap();
        let (initial, v0) = sub.snapshot();
        assert_eq!(initial.k_star, 3);
        assert_eq!(v0, 0);
        assert_eq!(service.stats().subscriptions.active, 1);

        // A dominated insert is certified unaffected: version stamp moves,
        // no event, counter attests the skip.
        service
            .update("demo", &[Update::Insert(vec![0.05, 0.05])])
            .unwrap();
        assert!(mailbox.drain().is_empty());
        let (kept, v1) = sub.snapshot();
        assert!(Arc::ptr_eq(&kept, &initial), "result must be untouched");
        assert_eq!(v1, 1);

        // A dominating insert is a pure rank shift — and must equal a fresh
        // evaluation.
        service
            .update("demo", &[Update::Insert(vec![0.95, 0.95])])
            .unwrap();
        let events = mailbox.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].version, 2);
        match &events[0].kind {
            NotifyKind::Changed { result, .. } => assert_eq!(result.k_star, 4),
            other => panic!("expected change, got {other:?}"),
        }
        let fresh = service
            .query(&QueryRequest {
                no_cache: true,
                ..QueryRequest::new("demo", 5)
            })
            .unwrap();
        assert_eq!(fresh.result.k_star, 4);

        // Deleting an incomparable record forces a re-evaluation; the
        // maintained result again matches a fresh one.
        service.update("demo", &[Update::Delete(2)]).unwrap();
        let events = mailbox.drain();
        assert_eq!(events.len(), 1);
        let maintained = match &events[0].kind {
            NotifyKind::Changed { result, .. } => Arc::clone(result),
            other => panic!("expected change, got {other:?}"),
        };
        let fresh = service
            .query(&QueryRequest {
                no_cache: true,
                ..QueryRequest::new("demo", 5)
            })
            .unwrap();
        assert_eq!(maintained.k_star, fresh.result.k_star);
        assert_eq!(maintained.region_count(), fresh.result.region_count());

        let stats = service.stats().subscriptions;
        assert_eq!(stats.deltas_triaged, 3);
        assert_eq!(stats.unaffected_skips, 1);
        assert_eq!(stats.partial_repairs, 1);
        assert_eq!(stats.full_reevals, 1);

        assert!(service.unsubscribe(sub.id()));
        assert!(!service.unsubscribe(sub.id()));
        assert_eq!(service.stats().subscriptions.active, 0);
        service.shutdown();
    }

    #[test]
    fn deleting_the_focal_cancels_the_subscription() {
        use crate::subscriptions::{NotifyKind, NotifyMailbox};

        let service = demo_service(ServiceConfig::default());
        let mailbox = Arc::new(NotifyMailbox::new());
        service
            .subscribe("demo", 5, Algorithm::Auto, 0, Arc::clone(&mailbox))
            .unwrap();
        service.update("demo", &[Update::Delete(5)]).unwrap();
        let events = mailbox.drain();
        assert_eq!(events.len(), 1);
        match &events[0].kind {
            NotifyKind::Cancelled { reason } => assert!(reason.contains("deleted"), "{reason}"),
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert_eq!(service.stats().subscriptions.active, 0);
        // Further updates are quietly ignored.
        service
            .update("demo", &[Update::Insert(vec![0.95, 0.95])])
            .unwrap();
        assert!(mailbox.drain().is_empty());
        service.shutdown();
    }

    #[test]
    fn dropping_a_mailbox_unregisters_its_subscriptions() {
        use crate::subscriptions::NotifyMailbox;

        let service = demo_service(ServiceConfig::default());
        let kept = Arc::new(NotifyMailbox::new());
        let gone = Arc::new(NotifyMailbox::new());
        service
            .subscribe("demo", 5, Algorithm::Auto, 0, Arc::clone(&kept))
            .unwrap();
        service
            .subscribe("demo", 4, Algorithm::Auto, 1, Arc::clone(&gone))
            .unwrap();
        service
            .subscribe("demo", 3, Algorithm::Auto, 0, Arc::clone(&gone))
            .unwrap();
        assert_eq!(service.stats().subscriptions.active, 3);
        assert_eq!(service.drop_subscriber(&gone), 2);
        assert_eq!(service.stats().subscriptions.active, 1);
        service.shutdown();
    }

    #[test]
    fn subscribe_validation_errors() {
        use crate::subscriptions::NotifyMailbox;

        let service = demo_service(ServiceConfig::default());
        let mailbox = Arc::new(NotifyMailbox::new());
        assert!(matches!(
            service.subscribe("nope", 0, Algorithm::Auto, 0, Arc::clone(&mailbox)),
            Err(ServiceError::UnknownDataset(_))
        ));
        assert!(matches!(
            service.subscribe("demo", 99, Algorithm::Auto, 0, Arc::clone(&mailbox)),
            Err(ServiceError::BadRequest(_))
        ));
        service.shutdown();
        // The initial query is an ordinary one: the default deadline applies.
        let strict = demo_service(ServiceConfig {
            default_deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        });
        assert_eq!(
            strict
                .subscribe("demo", 5, Algorithm::Auto, 0, Arc::clone(&mailbox))
                .unwrap_err(),
            ServiceError::DeadlineExceeded
        );
        assert_eq!(strict.stats().subscriptions.active, 0);
        strict.shutdown();
    }

    /// The `Cancelled` reasons drained from `mailbox`; panics on any other
    /// event.
    fn cancellations(mailbox: &NotifyMailbox) -> Vec<String> {
        use crate::subscriptions::NotifyKind;
        let reasons = mailbox.drain().into_iter().map(|event| match event.kind {
            NotifyKind::Cancelled { reason } => reason,
            other => panic!("expected cancellation, got {other:?}"),
        });
        reasons.collect()
    }

    #[test]
    fn co_subscribers_share_one_evaluation() {
        use crate::subscriptions::{NotifyKind, NotifyMailbox};
        const K: u64 = 5;

        let service = demo_service(ServiceConfig::default());
        let queried = service.query(&QueryRequest::new("demo", 5)).unwrap();
        let mailbox = Arc::new(NotifyMailbox::new());
        let subs: Vec<_> = (0..K)
            .map(|_| {
                service
                    .subscribe("demo", 5, Algorithm::Auto, 0, Arc::clone(&mailbox))
                    .unwrap()
            })
            .collect();
        // Every SUBSCRIBE after the query at the same version is a cache hit.
        assert!(subs
            .iter()
            .all(|sub| Arc::ptr_eq(&sub.snapshot().0, &queried.result)));
        let before = service.stats();
        assert_eq!(before.pool.executed, 1);
        assert_eq!(before.cache.hits, K);

        // Deleting an incomparable record re-enumerates every subscription:
        // the first re-evaluation fills the cache, the rest hit it.
        service.update("demo", &[Update::Delete(2)]).unwrap();
        let after = service.stats();
        assert_eq!(
            after.subscriptions.full_reevals - before.subscriptions.full_reevals,
            K
        );
        assert_eq!(after.pool.executed - before.pool.executed, 1);
        let results: Vec<_> = mailbox
            .drain()
            .into_iter()
            .map(|event| match event.kind {
                NotifyKind::Changed { result, .. } => result,
                other => panic!("expected change, got {other:?}"),
            })
            .collect();
        assert_eq!(results.len() as u64, K);
        assert!(results.iter().all(|r| Arc::ptr_eq(r, &results[0])));
        assert!(Arc::ptr_eq(&subs[0].snapshot().0, &results[0]));
        service.shutdown();
    }

    #[test]
    fn a_panicking_reevaluation_cancels_the_subscription() {
        use crate::subscriptions::NotifyMailbox;

        let service = demo_service(ServiceConfig::default());
        let mailbox = Arc::new(NotifyMailbox::new());
        service
            .subscribe("demo", 5, Algorithm::Auto, 0, Arc::clone(&mailbox))
            .unwrap();
        service.pool.panic_next_eval();
        // The batch committed, so the update succeeds at its version.
        let outcome = service.update("demo", &[Update::Delete(2)]).unwrap();
        assert_eq!(outcome.version, 1);
        let reasons = cancellations(&mailbox);
        assert_eq!(reasons.len(), 1);
        assert!(
            reasons[0].contains("re-evaluation failed"),
            "{}",
            reasons[0]
        );
        assert!(reasons[0].contains("panicked"), "{}", reasons[0]);
        assert_eq!(service.stats().subscriptions.active, 0);

        // Neither the worker nor the dataset is wedged.
        service
            .update("demo", &[Update::Insert(vec![0.95, 0.95])])
            .unwrap();
        let sub = service
            .subscribe("demo", 5, Algorithm::Auto, 0, Arc::clone(&mailbox))
            .unwrap();
        let (result, version) = sub.snapshot();
        assert_eq!(version, 2);
        let fresh = service
            .query(&QueryRequest {
                no_cache: true,
                ..QueryRequest::new("demo", 5)
            })
            .unwrap();
        assert_eq!(result.k_star, fresh.result.k_star);
        service.shutdown();
    }

    #[test]
    fn an_update_after_shutdown_cancels_subscriptions_it_cannot_reevaluate() {
        use crate::subscriptions::NotifyMailbox;

        let service = demo_service(ServiceConfig::default());
        let mailbox = Arc::new(NotifyMailbox::new());
        service
            .subscribe("demo", 5, Algorithm::Auto, 0, Arc::clone(&mailbox))
            .unwrap();
        service.shutdown();
        let outcome = service.update("demo", &[Update::Delete(2)]).unwrap();
        assert_eq!(outcome.version, 1);
        let reasons = cancellations(&mailbox);
        assert_eq!(reasons.len(), 1);
        assert!(reasons[0].contains("shutting down"), "{}", reasons[0]);
        assert_eq!(service.stats().subscriptions.active, 0);
    }

    #[test]
    fn update_purges_the_cache_entries_it_cannot_carry() {
        let service = demo_service(ServiceConfig::default());
        service.query(&QueryRequest::new("demo", 5)).unwrap();
        service.query(&QueryRequest::new("demo", 4)).unwrap();
        assert_eq!(service.stats().cache.len, 2);
        // (0.6, 0.1) misses focal 5's regions but crosses focal 4's.
        service
            .update("demo", &[Update::Insert(vec![0.6, 0.1])])
            .unwrap();
        assert_eq!(demo_keys(&service), vec![(5, 1)]);
        let stats = service.stats().cache;
        assert_eq!((stats.carried, stats.evictions_stale), (1, 1));
        // Deleting an incomparable record may promote an outside cell.
        service.update("demo", &[Update::Delete(1)]).unwrap();
        let stats = service.stats().cache;
        assert_eq!(stats.len, 0, "unprovable entries are purged eagerly");
        assert_eq!((stats.carried, stats.evictions_stale), (1, 2));
        service.shutdown();
    }

    #[test]
    fn zero_timeout_deadline_exceeded() {
        let service = demo_service(ServiceConfig::default());
        let req = QueryRequest {
            timeout: Some(Duration::ZERO),
            ..QueryRequest::new("demo", 5)
        };
        assert_eq!(
            service.query(&req).unwrap_err(),
            ServiceError::DeadlineExceeded
        );
        service.shutdown();
    }
}
