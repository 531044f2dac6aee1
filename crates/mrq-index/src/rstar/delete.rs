//! Deletion with underfull-node condensing.
//!
//! This is the classic R-tree `FindLeaf` / `CondenseTree` pair (Guttman \[9\],
//! unchanged by the R\* paper): locate the leaf holding the record, remove
//! the entry, then walk the path back to the root dissolving every node that
//! fell below the minimum fan-out.  A dissolved node's entries are reinserted
//! at their original level — leaf records as ordinary inserts, internal
//! entries with their whole subtree intact — so the tree re-packs itself
//! instead of tolerating underfull pages.  Finally the root collapses while
//! it has a single child, shrinking the tree height.
//!
//! Freed node slots go on the arena free list and are reused by later
//! allocations, so a workload of balanced inserts and deletes does not grow
//! the arena without bound.  Like insertion and the queries, the
//! root-to-leaf search is charged to the page counter of [`crate::iostats`]
//! (one read per node visited, including the dead ends of the containment
//! search).

use super::node::{Child, Node};
use super::RStarTree;
use crate::iostats::record_read;
use mrq_data::RecordId;
use mrq_geometry::EPS;

impl RStarTree {
    /// Removes record `id` located at `point`, returning whether it was
    /// found.  `point` must be the exact coordinates the record was inserted
    /// with (the search descends only into subtrees whose MBR contains it).
    ///
    /// # Panics
    /// Panics if `point` has the wrong dimensionality.
    pub fn delete(&mut self, id: RecordId, point: &[f64]) -> bool {
        assert_eq!(point.len(), self.dims, "point dimensionality mismatch");
        if self.len == 0 {
            return false;
        }
        let mut path = Vec::with_capacity(self.height as usize + 1);
        if !self.find_leaf(self.root, id, point, &mut path) {
            return false;
        }
        let leaf = *path.last().expect("find_leaf pushed the leaf");
        let pos = self.nodes[leaf]
            .entries()
            .position(|e| e.child == Child::Record(id) && e.lo() == point)
            .expect("find_leaf verified the entry is present");
        self.nodes[leaf].swap_remove(pos);
        self.len -= 1;
        self.condense(&path);
        true
    }

    /// Depth-first search for the leaf containing record `id` at `point`,
    /// recording the root-to-leaf path.  Returns `false` (with `path`
    /// rolled back) when the record is not in this subtree.
    fn find_leaf(&self, idx: usize, id: RecordId, point: &[f64], path: &mut Vec<usize>) -> bool {
        record_read();
        path.push(idx);
        let node = &self.nodes[idx];
        if node.level == 0 {
            if node
                .entries()
                .any(|e| e.child == Child::Record(id) && e.lo() == point)
            {
                return true;
            }
        } else {
            for e in node.entries() {
                if !contains(e.lo(), e.hi(), point) {
                    continue;
                }
                if let Child::Node(c) = e.child {
                    if self.find_leaf(c as usize, id, point, path) {
                        return true;
                    }
                }
            }
        }
        path.pop();
        false
    }

    /// `CondenseTree`: walk the deletion path bottom-up, dissolving
    /// underfull nodes and refreshing ancestor MBRs/counts, then reinsert
    /// the orphaned entries and collapse a single-child root.
    fn condense(&mut self, path: &[usize]) {
        // The dissolved nodes, with their entries, pushed bottom-up.
        let mut orphans: Vec<Node> = Vec::new();
        for i in (1..path.len()).rev() {
            let idx = path[i];
            let parent = path[i - 1];
            if self.nodes[idx].len() < self.config.min_entries {
                let pos = self.nodes[parent]
                    .position_of(Child::Node(idx as u32))
                    .expect("path parent links path child");
                self.nodes[parent].swap_remove(pos);
                let level = self.nodes[idx].level;
                let entries = std::mem::replace(&mut self.nodes[idx], Node::new(level, self.dims));
                if !entries.is_empty() {
                    orphans.push(entries);
                }
                self.free.push(idx);
            } else {
                self.refresh_child_entry(parent, idx);
            }
        }

        if self.height > 0 && self.nodes[self.root].is_empty() {
            // The cascade consumed the root's last child, so everything left
            // lives in the orphan groups.  The highest group (pushed last)
            // belongs exactly one level below the old root: demote the root
            // to that level and seed it with the group, then reinsertion of
            // the lower groups proceeds as usual.
            let group = orphans.pop().expect("an emptied root implies orphans");
            debug_assert_eq!(group.level + 1, self.nodes[self.root].level);
            self.height = group.level;
            let root = self.root;
            self.nodes[root] = group;
        }

        // Reinsert highest level first so internal entries always find a
        // resident level to land in (orphan levels are strictly below the
        // current root level).
        for group in orphans.into_iter().rev() {
            for entry in group.entries() {
                let mut reinserted = vec![false; self.height as usize + 1];
                self.insert_entry(entry.to_entry(), group.level, &mut reinserted);
            }
        }

        // Collapse a single-child internal root (possibly repeatedly).
        while self.height > 0 && self.nodes[self.root].len() == 1 {
            let child = match self.nodes[self.root].entry(0).child {
                Child::Node(c) => c as usize,
                Child::Record(_) => unreachable!("internal node entry points to a node"),
            };
            let level = self.nodes[self.root].level;
            self.nodes[self.root] = Node::new(level, self.dims);
            self.free.push(self.root);
            self.root = child;
            self.height -= 1;
        }
    }
}

/// Whether `x` lies in the closed box `[lo, hi]`, with
/// [`mrq_geometry::BoundingBox::contains`]'s tolerance.
fn contains(lo: &[f64], hi: &[f64], x: &[f64]) -> bool {
    x.iter()
        .zip(lo.iter().zip(hi))
        .all(|(v, (l, h))| *v >= l - EPS && *v <= h + EPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::count_reads;
    use crate::rstar::RStarConfig;
    use mrq_data::{synthetic, Distribution, Update};
    use mrq_geometry::BoundingBox;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn small_config() -> RStarConfig {
        RStarConfig {
            max_entries: 4,
            min_entries: 2,
            reinsert_count: 1,
        }
    }

    #[test]
    fn delete_missing_record_is_a_noop() {
        let mut t = RStarTree::with_config(2, small_config());
        assert!(!t.delete(0, &[0.5, 0.5]));
        t.insert(0, &[0.25, 0.75]);
        assert!(!t.delete(1, &[0.25, 0.75]), "wrong id");
        assert!(!t.delete(0, &[0.5, 0.5]), "wrong point");
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn delete_down_to_empty_and_reuse() {
        let mut t = RStarTree::with_config(2, small_config());
        let pts: Vec<[f64; 2]> = (0..30)
            .map(|i| [(i as f64 * 0.618) % 1.0, (i as f64 * 0.37) % 1.0])
            .collect();
        for (i, p) in pts.iter().enumerate() {
            t.insert(i as u32, p);
        }
        t.check_invariants().unwrap();
        let grown_slots = t.nodes.len();
        for (i, p) in pts.iter().enumerate() {
            assert!(t.delete(i as u32, p), "record {i} must be found");
            t.check_invariants().unwrap();
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert!(t.bounding_box().is_none());
        // Refill: freed slots are reused, the arena does not grow.
        for (i, p) in pts.iter().enumerate() {
            t.insert(i as u32, p);
        }
        t.check_invariants().unwrap();
        assert!(t.nodes.len() <= grown_slots, "arena slots must be reused");
        assert_eq!(t.len(), 30);
    }

    #[test]
    fn delete_counts_io() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = synthetic::generate(Distribution::Independent, 500, 2, &mut rng);
        let mut t = RStarTree::bulk_load(&data);
        let (deleted, reads) = count_reads(|| t.delete(123, data.record(123)));
        assert!(deleted);
        assert!(reads > t.height() as u64, "find charges reads");
    }

    #[test]
    fn interleaved_updates_match_bulk_load() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut data = synthetic::generate(Distribution::AntiCorrelated, 300, 3, &mut rng);
        let mut tree = RStarTree::bulk_load(&data);
        for step in 0..400 {
            if rng.gen_bool(0.45) || data.live_len() < 5 {
                let row: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
                let applied = data.apply(&Update::Insert(row.clone())).unwrap();
                tree.insert(applied.inserted.unwrap(), &row);
            } else {
                // Pick a live id uniformly.
                let live: Vec<u32> = data.iter().map(|(id, _)| id).collect();
                let id = live[rng.gen_range(0..live.len())];
                let point = data.record(id).to_vec();
                data.apply(&Update::Delete(id)).unwrap();
                assert!(tree.delete(id, &point), "step {step}: {id} must exist");
            }
            if step % 50 == 0 {
                tree.check_invariants().unwrap();
            }
        }
        tree.check_invariants().unwrap();
        assert_eq!(tree.len(), data.live_len());
        let rebuilt = RStarTree::bulk_load(&data);
        let q = BoundingBox::new(vec![0.2, 0.1, 0.25], vec![0.8, 0.9, 0.7]);
        let mut a = tree.range_ids(&q);
        let mut b = rebuilt.range_ids(&q);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(tree.range_count(&q), rebuilt.range_count(&q));
        assert_eq!(
            tree.count_dominators(&[0.4, 0.4, 0.4], None),
            rebuilt.count_dominators(&[0.4, 0.4, 0.4], None)
        );
    }

    #[test]
    fn delete_duplicate_points_one_at_a_time() {
        let mut t = RStarTree::with_config(2, small_config());
        for i in 0..12u32 {
            t.insert(i, &[0.5, 0.5]);
        }
        for i in 0..12u32 {
            assert!(t.delete(i, &[0.5, 0.5]));
            t.check_invariants().unwrap();
            assert_eq!(t.len() as u32, 11 - i);
        }
        assert!(t.is_empty());
    }
}
