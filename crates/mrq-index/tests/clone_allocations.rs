//! Cloning the R\*-tree allocates per node, not per record.
//!
//! The service copies the index on every update batch (copy-on-write
//! snapshots), so the clone's cost is on every update's path.  A node keeps
//! its entries' corners in one flat array beside one array of counts and
//! children; a counting global allocator checks that a clone makes a
//! bounded number of allocations per node.  This file holds one test, so no
//! other test's allocations are counted.

use mrq_data::{synthetic, Distribution};
use mrq_index::RStarTree;
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn cloning_a_tree_allocates_per_node() {
    let mut rng = StdRng::seed_from_u64(2015);
    let data = synthetic::generate(Distribution::Independent, 10_000, 3, &mut rng);
    let mut tree = RStarTree::bulk_load(&data);
    // Some one-by-one inserts too, so that nodes have been split and grown.
    for (id, row) in data.iter().take(500) {
        tree.insert(10_000 + id, row);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let copy = tree.clone();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let nodes = copy.node_count() as u64;
    assert!(
        allocations <= 2 * nodes + 2,
        "{allocations} allocations to clone {nodes} nodes of {} records",
        copy.len()
    );
    assert_eq!(copy.len(), 10_500);
    copy.check_invariants().unwrap();
}
