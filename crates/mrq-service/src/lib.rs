//! # mrq-service — a long-lived, concurrent MaxRank query service
//!
//! The algorithm crates answer *one* query per process: load data, bulk-load
//! the R\*-tree, evaluate, exit.  This crate keeps the expensive state
//! resident and streams requests through it:
//!
//! ```text
//!            ┌──────────────────────────────── MrqService ────────────────────────────────┐
//! client ──► │ DatasetRegistry ──► ResultCache ──miss──► bounded queue ──► WorkerPool     │ ──► answer
//!            │  (versioned Dataset  (LRU keyed by        (backpressure,     (N threads,   │
//!            │   + R*-tree snapshots dataset/version/    deadlines)         one job each, │
//!            │   behind Arc)         focal/algo/tau;                        fills the     │
//!            │                       a hit answers                          cache)        │
//!            │                       at once)                                             │
//!            └────────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * [`registry`] — load/generate each named dataset once, share `Arc`
//!   snapshots; updates go through [`DatasetHandle::apply`] (copy-on-write
//!   swap, serialized per dataset, versioned).
//! * [`pool`] — fixed worker threads over a bounded queue of cache misses;
//!   each job is one `MaxRankQuery::evaluate` on the snapshot it was
//!   validated against; per-request deadlines; graceful drain-then-join
//!   shutdown.
//! * [`cache`] — an O(1) LRU over `(dataset, version, focal, algorithm,
//!   tau)` with hit/miss/eviction counters; an update carries the entries
//!   the standing-query triage proves exact to the new version and drops
//!   the rest.
//! * [`metrics`] — the counter registry behind the `metrics` verb, the
//!   `/metrics` scrape and `maxrank-client --stats`.
//! * [`service`] — the in-process composition ([`MrqService`]).
//! * [`subscriptions`] — standing queries: resident results registered via
//!   `SUBSCRIBE`, maintained under updates by `mrq_core::maintain`'s delta
//!   triage, with server-push `NOTIFY` frames on change.
//! * [`protocol`] — length-prefixed JSON-ish frames ([`protocol::Request`]).
//! * [`server`] / [`client`] — a std-only loopback TCP layer
//!   (`std::net::TcpListener` + `std::thread`; the build environment has no
//!   route to crates.io, so no async runtime is involved).
//!
//! The `maxrank-serve` and `maxrank-client` binaries in the root crate are
//! thin wrappers over [`Server`] and [`Client`].
//!
//! ## Why sharing engines across threads is sound
//!
//! Everything a query touches is immutable after registration: [`Dataset`]
//! and the R\*-tree are plain memory with no interior mutability (the
//! simulated page-read counter is thread-local, see `mrq_index::iostats`),
//! and each evaluation builds its own quad-tree privately.
//! The assertions below pin that property down at compile time — if a future
//! change reintroduces a non-`Sync` cell anywhere in an engine, this crate
//! stops compiling rather than racing.

pub mod cache;
pub mod client;
pub mod error;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod querystats;
pub mod registry;
pub mod server;
pub mod service;
pub mod subscriptions;
pub(crate) mod sync;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use client::{
    Client, ClientError, Notification, QueryOptions, QueryReply, RetryPolicy, SubscriptionReply,
    UpdateReply,
};
pub use error::ServiceError;
pub use metrics::{families, render_metrics, MetricsServer, MetricsSnapshot};
pub use pool::{PoolConfig, PoolStats, WorkerPool};
pub use querystats::{DatasetQueryStats, QueryStatsBook};
pub use registry::{
    DatasetEntry, DatasetHandle, DatasetRegistry, DatasetSpec, DurabilityOptions, DurabilityStats,
    UpdateOutcome, DEDUP_WINDOW,
};
pub use server::{Server, ServerConfig};
pub use service::{
    MrqService, QueryAnswer, QueryRequest, ReliabilityBook, ReliabilityStats, ServiceConfig,
    ServiceStats,
};
pub use subscriptions::{
    NotifyEvent, NotifyKind, NotifyMailbox, Subscription, SubscriptionBook, SubscriptionStats,
};

use mrq_data::Dataset;

/// Compile-time `Send + Sync` audit of every type the service shares across
/// threads (see the crate docs).  `MaxRankQuery` borrows a dataset and an
/// index; with `'static` borrows it must itself be shareable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Dataset>();
    assert_send_sync::<mrq_index::RStarTree>();
    assert_send_sync::<mrq_core::MaxRankQuery<'static>>();
    assert_send_sync::<mrq_core::MaxRankConfig>();
    assert_send_sync::<mrq_core::MaxRankResult>();
    assert_send_sync::<mrq_quadtree::HalfSpaceQuadTree>();
    assert_send_sync::<DatasetEntry>();
    assert_send_sync::<DatasetHandle>();
    assert_send_sync::<DatasetRegistry>();
    assert_send_sync::<ResultCache>();
    assert_send_sync::<WorkerPool>();
    assert_send_sync::<MrqService>();
    assert_send_sync::<Server>();
    assert_send_sync::<MetricsServer>();
    assert_send_sync::<NotifyMailbox>();
    assert_send_sync::<Subscription>();
    assert_send_sync::<SubscriptionBook>();
    assert_send_sync::<ReliabilityBook>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The crate-level data-flow claim, end to end and in process: register
    /// once, query through the pool, hit the cache on the second round.
    #[test]
    fn registry_pool_cache_compose() {
        let registry = Arc::new(DatasetRegistry::new());
        registry.register("demo", &DatasetSpec::Demo).unwrap();
        let service = MrqService::new(registry, ServiceConfig::default());
        let cold = service.query(&QueryRequest::new("demo", 5)).unwrap();
        let warm = service.query(&QueryRequest::new("demo", 5)).unwrap();
        assert_eq!(cold.result.k_star, 3);
        assert!(!cold.cached);
        assert!(warm.cached);
        service.shutdown();
    }
}
