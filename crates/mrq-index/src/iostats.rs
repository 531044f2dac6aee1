//! Page-access (I/O) accounting.
//!
//! The evaluation of the paper measures I/O as the number of disk page
//! accesses with a 4 KB page size, one R\*-tree node per page.  Algorithms in
//! this workspace run in memory, so the counter simulates that cost model:
//! every R\*-tree node *read* during a query increments the counter by one.
//!
//! This is a **simulated** figure — nothing is actually paged in or out, and
//! the counter is therefore independent of the durability layer.  The *real*
//! file I/O the system performs (reading `snapshot.bin` and replaying
//! `wal.log` during recovery) is counted separately, in bytes and pages of
//! the same 4 KiB size, by `mrq_data::storage::RecoveryReport` and surfaced
//! through the service's `metrics` durability counters.  Keep the two apart
//! when reading reports: `io_reads` reproduces the paper's cost model,
//! `recovery_pages_read` measures disk traffic that genuinely happened.

use std::sync::atomic::{AtomicU64, Ordering};

/// The simulated disk page size, as in the paper's experimental setup.
pub const PAGE_SIZE_BYTES: usize = 4096;

/// A cheap interior-mutable I/O counter attached to an index.
///
/// Interior mutability keeps query methods `&self` (reads do not logically
/// mutate the index).  The counter is a relaxed [`AtomicU64`] so a tree can be
/// shared across threads (`RStarTree: Send + Sync`), which the serving layer
/// relies on.  Note that the counter is *per tree*: the algorithms charge a
/// query by snapshotting the counter and reporting the delta (never calling
/// [`IoStats::reset`] on a shared tree), so when several queries run
/// concurrently against one tree a query's `io_reads` can be *inflated* by
/// its neighbours' page reads, but never zeroed mid-flight.  Figures are
/// exact for non-overlapping queries — the bench harness runs
/// single-threaded, and `evaluate_batch` clones the tree per worker,
/// precisely to keep those numbers meaningful.
#[derive(Debug, Default)]
pub struct IoStats {
    node_reads: AtomicU64,
}

impl Clone for IoStats {
    fn clone(&self) -> Self {
        Self {
            node_reads: AtomicU64::new(self.reads()),
        }
    }
}

impl IoStats {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one node/page read.
    #[inline]
    pub fn record_read(&self) {
        self.node_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of node/page reads since the last reset.
    #[inline]
    pub fn reads(&self) -> u64 {
        self.node_reads.load(Ordering::Relaxed)
    }

    /// Folds `reads` page reads into the counter at once.  Used to merge the
    /// deltas accumulated by per-worker tree clones back into the shared
    /// tree's counter, so aggregate accounting survives the cloning that
    /// keeps per-query figures exact (see `mrq_core::evaluate_batch`).
    #[inline]
    pub fn add(&self, reads: u64) {
        self.node_reads.fetch_add(reads, Ordering::Relaxed);
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.node_reads.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let io = IoStats::new();
        assert_eq!(io.reads(), 0);
        io.record_read();
        io.record_read();
        assert_eq!(io.reads(), 2);
        io.reset();
        assert_eq!(io.reads(), 0);
    }

    #[test]
    fn add_merges_deltas() {
        let io = IoStats::new();
        io.record_read();
        let clone = io.clone();
        clone.record_read();
        clone.record_read();
        io.add(clone.reads() - io.reads());
        assert_eq!(io.reads(), 3);
    }

    #[test]
    fn clone_snapshots_the_count() {
        let io = IoStats::new();
        io.record_read();
        let copy = io.clone();
        io.record_read();
        assert_eq!(copy.reads(), 1);
        assert_eq!(io.reads(), 2);
    }

    #[test]
    fn counter_is_shareable_across_threads() {
        let io = IoStats::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        io.record_read();
                    }
                });
            }
        });
        assert_eq!(io.reads(), 4000);
    }

    #[test]
    fn page_size_matches_paper() {
        assert_eq!(PAGE_SIZE_BYTES, 4096);
    }
}
