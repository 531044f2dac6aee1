//! STR (sort-tile-recursive) bulk loading.
//!
//! Bulk loading packs the dataset bottom-up into nearly full nodes; it is the
//! way the experiment harness builds the index over the large synthetic and
//! simulated-real datasets before running queries (the paper pre-builds its
//! R\*-trees the same way).
//!
//! Each level's entries sit in one column-wise [`Node`] used as a list, and
//! the tiling sorts positions into it, so no entry is copied until it lands
//! in its node.

use super::node::{Child, Node};
use super::RStarTree;
use mrq_data::Dataset;

impl RStarTree {
    pub(crate) fn str_bulk_load(&mut self, data: &Dataset) {
        // `Dataset::iter` yields live records only, so a bulk load over a
        // mutated dataset matches an incrementally maintained tree.
        let mut entries = Node::with_capacity(0, self.dims, data.live_len());
        for (id, r) in data.iter() {
            entries.push(r, r, 1, Child::Record(id));
        }
        self.len = entries.len();
        if entries.is_empty() {
            return;
        }
        // Drop the placeholder empty root so every arena slot is reachable.
        self.nodes.clear();
        self.free.clear();
        let mut level = 0u32;
        loop {
            let parents = self.pack_level(&entries, level);
            if parents.len() == 1 {
                match parents.entry(0).child {
                    Child::Node(idx) => {
                        self.root = idx as usize;
                        self.height = level;
                    }
                    Child::Record(_) => unreachable!("pack_level always produces node entries"),
                }
                return;
            }
            entries = parents;
            level += 1;
        }
    }

    /// Packs one level's entries into nodes, returning the entries describing
    /// the created nodes (for the next level up).
    fn pack_level(&mut self, entries: &Node, level: u32) -> Node {
        let cap = self.config.max_entries;
        let min = self.config.min_entries;
        let center = |i: usize, dim: usize| {
            let e = entries.entry(i);
            e.lo()[dim] + e.hi()[dim]
        };
        let groups = str_tile(
            (0..entries.len()).collect(),
            0,
            self.dims,
            cap,
            min,
            &center,
        );
        let mut parents = Node::with_capacity(level + 1, self.dims, groups.len());
        for group in groups {
            debug_assert!(!group.is_empty());
            let mut node = Node::with_capacity(level, self.dims, group.len());
            for i in group {
                let e = entries.entry(i);
                node.push(e.lo(), e.hi(), e.count, e.child);
            }
            let idx = self.alloc_node(node);
            parents.push_entry(&self.make_node_entry(idx));
        }
        parents
    }
}

/// Recursively tiles entry positions along successive dimensions (classic
/// STR), producing groups of at most `cap` entries and — except when there
/// are too few entries overall — at least `min` entries.  `center(i, dim)`
/// is twice the centre of entry `i` along `dim`, the sort key.
fn str_tile(
    mut order: Vec<usize>,
    dim: usize,
    dims: usize,
    cap: usize,
    min: usize,
    center: &impl Fn(usize, usize) -> f64,
) -> Vec<Vec<usize>> {
    if order.len() <= cap {
        return vec![order];
    }
    let node_count = order.len().div_ceil(cap);
    let sort_by_center = |order: &mut Vec<usize>| {
        order.sort_by(|&a, &b| {
            center(a, dim)
                .partial_cmp(&center(b, dim))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    };
    if dim + 1 >= dims {
        sort_by_center(&mut order);
        return chunk_balanced(order, cap, min);
    }
    // Number of slabs along this dimension ≈ node_count^(1/remaining_dims).
    let remaining = (dims - dim) as f64;
    let slabs = (node_count as f64).powf(1.0 / remaining).ceil() as usize;
    let slabs = slabs.clamp(1, node_count);
    sort_by_center(&mut order);
    let per_slab = order.len().div_ceil(slabs);
    let mut out = Vec::new();
    for slab in order.chunks(per_slab) {
        out.extend(str_tile(slab.to_vec(), dim + 1, dims, cap, min, center));
    }
    out
}

/// Splits a sorted run into chunks of `cap`, rebalancing the tail so no chunk
/// falls below `min` (when the run is large enough to allow it).
fn chunk_balanced(order: Vec<usize>, cap: usize, min: usize) -> Vec<Vec<usize>> {
    let mut chunks: Vec<Vec<usize>> = order.chunks(cap).map(<[usize]>::to_vec).collect();
    if chunks.len() >= 2 {
        let last_len = chunks.last().map(|c| c.len()).unwrap_or(0);
        if last_len < min {
            let deficit = min - last_len;
            let prev = chunks.len() - 2;
            if chunks[prev].len() >= min + deficit {
                let moved: Vec<usize> = {
                    let prev_chunk = &mut chunks[prev];
                    let at = prev_chunk.len() - deficit;
                    prev_chunk.split_off(at)
                };
                chunks.last_mut().unwrap().splice(0..0, moved);
            }
        }
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_balanced_avoids_tiny_tail() {
        let chunks = chunk_balanced((0..21).collect(), 10, 4);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 21);
        assert!(sizes.iter().all(|&s| s >= 4), "sizes {sizes:?}");
        // The tail borrows from its neighbour, keeping the sorted order.
        assert_eq!(chunks.concat(), (0..21).collect::<Vec<_>>());
    }

    #[test]
    fn str_tile_group_sizes() {
        let x = |i: usize| (i as f64 * 0.37) % 1.0;
        let center = |i: usize, dim: usize| if dim == 0 { 2.0 * x(i) } else { 1.0 };
        let groups = str_tile((0..137).collect(), 0, 2, 16, 6, &center);
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 137);
        assert!(groups.iter().all(|g| g.len() <= 16));
        let mut all = groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..137).collect::<Vec<_>>());
    }
}
