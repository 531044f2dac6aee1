//! Page-access (I/O) accounting.
//!
//! The evaluation of the paper measures I/O as the number of disk page
//! accesses with a 4 KB page size, one R\*-tree node per page.  Algorithms in
//! this workspace run in memory, so the counter simulates that cost model:
//! every R\*-tree node *read* increments the counter by one.
//!
//! This is a **simulated** figure — nothing is actually paged in or out, and
//! the counter is therefore independent of the durability layer.  The *real*
//! file I/O the system performs (reading `snapshot.bin` and replaying
//! `wal.log` during recovery) is counted separately, in bytes and pages of
//! the same 4 KiB size, by `mrq_data::storage::RecoveryReport` and surfaced
//! through the service's `metrics` durability counters.  Keep the two apart
//! when reading reports: `io_reads` reproduces the paper's cost model,
//! `recovery_pages_read` measures disk traffic that genuinely happened.
//!
//! The counter is **per thread**, not per tree: a node read is charged to
//! the thread that performs it, and [`count_reads`] reports what one closure
//! charged.  All of a query's R\*-tree reads run on the thread that evaluates
//! it (the parallel within-leaf enumeration works on the quad-tree only), so
//! a query's figure is exact even while other threads read the same tree.

use std::cell::Cell;

/// The simulated disk page size, as in the paper's experimental setup.
pub const PAGE_SIZE_BYTES: usize = 4096;

thread_local! {
    static NODE_READS: Cell<u64> = const { Cell::new(0) };
}

/// Charges one node/page read to the calling thread.
#[inline]
pub(crate) fn record_read() {
    NODE_READS.with(|reads| reads.set(reads.get() + 1));
}

/// Runs `f` and returns its output together with the number of node/page
/// reads it charged to the calling thread.
pub fn count_reads<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = NODE_READS.with(Cell::get);
    let out = f();
    (out, NODE_READS.with(Cell::get) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_the_reads_of_the_closure() {
        let ((), outer) = count_reads(|| {
            record_read();
            let ((), inner) = count_reads(|| {
                record_read();
                record_read();
            });
            assert_eq!(inner, 2);
        });
        assert_eq!(outer, 3);
    }

    #[test]
    fn other_threads_are_not_charged() {
        let ((), reads) = count_reads(|| {
            record_read();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        let ((), own) = count_reads(|| (0..1000).for_each(|_| record_read()));
                        assert_eq!(own, 1000);
                    });
                }
            });
        });
        assert_eq!(reads, 1);
    }

    #[test]
    fn page_size_matches_paper() {
        assert_eq!(PAGE_SIZE_BYTES, 4096);
    }
}
