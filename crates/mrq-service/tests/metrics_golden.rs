//! Golden-file test for the Prometheus text exposition format.
//!
//! The rendered `/metrics` text for a fixed [`ServiceStats`] must match
//! `tests/golden/metrics.prom` byte for byte — scrapers parse this format
//! with regexes, so even whitespace or metadata-ordering drift is a
//! compatibility break worth a deliberate review.  To accept an intentional
//! format change, regenerate the file with:
//!
//! ```text
//! MRQ_UPDATE_GOLDEN=1 cargo test -p mrq-service --test metrics_golden
//! ```

use mrq_service::{
    families, render_metrics, CacheStats, DatasetQueryStats, DurabilityStats, MetricsSnapshot,
    PoolStats, ReliabilityStats, ServiceStats, SubscriptionStats,
};
use std::path::PathBuf;

/// A fixed stats snapshot exercising every family, a label needing escapes,
/// and a counter above 2^53 (the f64 integer-exactness cliff).
fn golden_stats() -> ServiceStats {
    ServiceStats {
        cache: CacheStats {
            hits: 101,
            misses: 57,
            evictions: 9,
            evictions_stale: 31,
            carried: 22,
            len: 48,
            capacity: 1024,
        },
        pool: PoolStats {
            workers: 8,
            queue_capacity: 512,
            queue_depth: 3,
            executed: 9007199254740993, // 2^53 + 1: must not round to ...992
            timed_out: 4,
        },
        datasets: vec!["demo".into(), "hotels\"eu\"".into()],
        per_dataset: vec![
            DatasetQueryStats {
                dataset: "demo".into(),
                queries: 250,
                cache_hits: 101,
                cpu_us: 1234567,
                io_reads: 8901,
                cells_tested: 23456,
                lp_calls: 7890,
                witness_hits: 4567,
            },
            DatasetQueryStats {
                dataset: "hotels\"eu\"".into(),
                queries: 7,
                cache_hits: 0,
                cpu_us: 99,
                io_reads: 3,
                cells_tested: 11,
                lp_calls: 5,
                witness_hits: 2,
            },
        ],
        durability: DurabilityStats {
            durable_datasets: 2,
            recovered_datasets: 1,
            wal_batches_replayed: 40,
            torn_bytes_discarded: 128,
            recovery_pages_read: 77,
            wal_appends: 300,
            wal_appended_bytes: 18446744073709551615, // u64::MAX
            checkpoints: 6,
        },
        subscriptions: SubscriptionStats {
            active: 5,
            deltas_triaged: 90,
            unaffected_skips: 60,
            partial_repairs: 25,
            full_reevals: 5,
        },
        reliability: ReliabilityStats {
            connections_shed: 17,
            idle_disconnects: 3,
            update_dedup_hits: 8,
            slow_consumer_disconnects: 5,
        },
        degraded: vec!["hotels\"eu\"".into()],
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("metrics.prom")
}

#[test]
fn metrics_text_matches_the_golden_file() {
    let rendered = render_metrics(&golden_stats());
    let path = golden_path();
    if std::env::var_os("MRQ_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with MRQ_UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        rendered == golden,
        "metrics exposition format drifted from {}.\n\
         If the change is intentional, regenerate with MRQ_UPDATE_GOLDEN=1.\n\
         --- golden ---\n{golden}\n--- rendered ---\n{rendered}",
        path.display()
    );
}

/// Parsing the rendered text recovers every family and sample exactly —
/// including values past 2^53, where a JSON `f64` would round, and the
/// escaped `hotels"eu"` label.
#[test]
fn parsing_the_exposition_recovers_every_sample_exactly() {
    let stats = golden_stats();
    let snapshot = MetricsSnapshot::parse(&render_metrics(&stats)).unwrap();
    assert_eq!(snapshot.families, families(&stats));
    assert_eq!(
        snapshot.get("mrq_pool_jobs_executed_total"),
        Some((1 << 53) + 1)
    );
    assert_eq!(snapshot.get("mrq_wal_appended_bytes_total"), Some(u64::MAX));
    assert_eq!(
        snapshot.get_for("mrq_dataset_queries_total", "hotels\"eu\""),
        Some(7)
    );
    assert_eq!(
        snapshot.get_for("mrq_dataset_degraded", "hotels\"eu\""),
        Some(1)
    );
}
