//! Cumulative per-dataset query statistics.
//!
//! The result cache answers "how often did we skip work"; this module
//! answers "what did the work we did cost, per dataset".  Workers fold every
//! executed evaluation's [`mrq_core::QueryStats`] into a shared
//! [`QueryStatsBook`] and the service counts every cache hit there; the
//! `metrics` verb reports the totals alongside the cache/pool counters, so a
//! long-lived server exposes its workload mix (which datasets are hot, how
//! much LP work the witness cache absorbs) without any per-request logging.

use crate::sync::lock_or_recover;
use mrq_core::QueryStats;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cumulative totals for one dataset, as reported by the `metrics` verb.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatasetQueryStats {
    /// Dataset name.
    pub dataset: String,
    /// Queries evaluated (cache hits not included).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Total CPU time of the evaluations, in microseconds.
    pub cpu_us: u64,
    /// Total simulated page reads.
    pub io_reads: u64,
    /// Total candidate cells decided (witness cache or LP).
    pub cells_tested: u64,
    /// Total simplex LPs solved.
    pub lp_calls: u64,
    /// Total candidates proven non-empty by a cached witness.
    pub witness_hits: u64,
}

impl DatasetQueryStats {
    fn fold(&mut self, stats: &QueryStats) {
        self.queries += 1;
        self.cpu_us += stats.cpu_time.as_micros() as u64;
        self.io_reads += stats.io_reads;
        self.cells_tested += stats.cells_tested as u64;
        self.lp_calls += stats.lp_calls as u64;
        self.witness_hits += stats.witness_hits as u64;
    }
}

/// Thread-safe accumulator of per-dataset totals.  A `BTreeMap` keeps the
/// snapshot deterministically ordered by dataset name.
#[derive(Debug, Default)]
pub struct QueryStatsBook {
    inner: Mutex<BTreeMap<String, DatasetQueryStats>>,
}

impl QueryStatsBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one executed evaluation into the dataset's totals.
    pub fn record_executed(&self, dataset: &str, stats: &QueryStats) {
        self.update(dataset, |totals| totals.fold(stats));
    }

    /// Counts a cache-served answer for the dataset.
    pub fn record_cache_hit(&self, dataset: &str) {
        self.update(dataset, |totals| totals.cache_hits += 1);
    }

    /// Applies `f` to the dataset's totals, allocating an entry only the
    /// first time the dataset is seen.
    fn update(&self, dataset: &str, f: impl FnOnce(&mut DatasetQueryStats)) {
        let mut book = lock_or_recover(&self.inner);
        match book.get_mut(dataset) {
            Some(totals) => f(totals),
            None => f(book
                .entry(dataset.to_string())
                .or_insert_with(|| DatasetQueryStats {
                    dataset: dataset.to_string(),
                    ..DatasetQueryStats::default()
                })),
        }
    }

    /// A snapshot of every dataset's totals, ordered by name.
    pub fn snapshot(&self) -> Vec<DatasetQueryStats> {
        lock_or_recover(&self.inner).values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn stats(cpu_us: u64, lp: usize) -> QueryStats {
        QueryStats {
            cpu_time: Duration::from_micros(cpu_us),
            io_reads: 3,
            cells_tested: lp + 2,
            lp_calls: lp,
            witness_hits: 2,
            ..QueryStats::default()
        }
    }

    #[test]
    fn folds_and_orders_by_name() {
        let book = QueryStatsBook::new();
        book.record_executed("zeta", &stats(100, 5));
        book.record_executed("alpha", &stats(50, 1));
        book.record_executed("zeta", &stats(200, 7));
        book.record_cache_hit("zeta");
        book.record_cache_hit("newcomer");
        let snap = book.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].dataset, "alpha");
        assert_eq!(snap[1].dataset, "newcomer");
        assert_eq!(snap[2].dataset, "zeta");
        assert_eq!(snap[1].queries, 0);
        assert_eq!(snap[1].cache_hits, 1);
        let zeta = &snap[2];
        assert_eq!(zeta.queries, 2);
        assert_eq!(zeta.cache_hits, 1);
        assert_eq!(zeta.cpu_us, 300);
        assert_eq!(zeta.io_reads, 6);
        assert_eq!(zeta.lp_calls, 12);
        assert_eq!(zeta.witness_hits, 4);
        assert_eq!(zeta.cells_tested, 16);
    }
}
