//! One-by-one insertion with the R\* heuristics: choose-subtree by minimum
//! overlap enlargement at the leaf level, forced reinsertion on the first
//! overflow of each level, and the topological (margin-driven) split.

use super::node::{margin, overlap, overlap_corners, volume, Child, Entry, Node};
use super::RStarTree;
use crate::iostats::record_read;
use mrq_data::RecordId;
use mrq_geometry::BoundingBox;

impl RStarTree {
    pub(crate) fn insert_record(&mut self, id: RecordId, point: &[f64]) {
        let entry = Entry::record(id, point);
        // Forced reinsertion is allowed once per level per logical insertion.
        let mut reinserted = vec![false; self.height as usize + 1];
        self.insert_entry(entry, 0, &mut reinserted);
    }

    /// Inserts an entry (record or subtree) at the given level.  Also used
    /// by deletion to reinsert the entries of dissolved underfull nodes.
    pub(super) fn insert_entry(
        &mut self,
        entry: Entry,
        target_level: u32,
        reinserted: &mut Vec<bool>,
    ) {
        let path = self.choose_path(&entry.mbr, target_level);
        let target = *path.last().expect("path always contains the root");
        self.nodes[target].push_entry(&entry);
        self.propagate(&path, reinserted);
    }

    /// Root-to-target path following the R\* choose-subtree rule.  Each node
    /// on the path is charged as one page read.
    fn choose_path(&self, mbr: &BoundingBox, target_level: u32) -> Vec<usize> {
        let d = self.dims;
        let mut path = vec![self.root];
        let mut current = self.root;
        // The candidate entry's MBR enlarged by `mbr`: lower, then upper corner.
        let mut enlarged = vec![0.0; 2 * d];
        record_read();
        while self.nodes[current].level > target_level {
            let node = &self.nodes[current];
            let child_is_leaf = node.level == target_level + 1 && target_level == 0;
            let mut best: Option<(usize, f64, f64, f64)> = None; // (pos, overlap_incr, area_incr, area)
            for (pos, e) in node.entries().enumerate() {
                for k in 0..d {
                    enlarged[k] = e.lo()[k].min(mbr.lo[k]);
                    enlarged[d + k] = e.hi()[k].max(mbr.hi[k]);
                }
                let (elo, ehi) = enlarged.split_at(d);
                let area = volume(e.lo(), e.hi());
                let area_incr = volume(elo, ehi) - area;
                let overlap_incr = if child_is_leaf {
                    // Overlap enlargement against the sibling entries.
                    let mut before = 0.0;
                    let mut after = 0.0;
                    for (other_pos, other) in node.entries().enumerate() {
                        if other_pos == pos {
                            continue;
                        }
                        before += overlap_corners(e.lo(), e.hi(), other.lo(), other.hi());
                        after += overlap_corners(elo, ehi, other.lo(), other.hi());
                    }
                    after - before
                } else {
                    0.0
                };
                let candidate = (pos, overlap_incr, area_incr, area);
                best = Some(match best {
                    None => candidate,
                    Some(b) => {
                        let better = (candidate.1, candidate.2, candidate.3) < (b.1, b.2, b.3);
                        if better {
                            candidate
                        } else {
                            b
                        }
                    }
                });
            }
            let chosen = best.expect("internal nodes are never empty").0;
            current = match node.entry(chosen).child {
                Child::Node(idx) => idx as usize,
                Child::Record(_) => unreachable!("internal node entry must point to a node"),
            };
            record_read();
            path.push(current);
        }
        path
    }

    /// Walks the insertion path bottom-up, handling overflows and refreshing
    /// parent MBRs / aggregate counts.
    fn propagate(&mut self, path: &[usize], reinserted: &mut Vec<bool>) {
        let mut i = path.len() - 1;
        loop {
            let idx = path[i];
            let level = self.nodes[idx].level as usize;
            if self.nodes[idx].len() > self.config.max_entries {
                if reinserted.len() <= level {
                    reinserted.resize(level + 1, false);
                }
                if i > 0 && !reinserted[level] {
                    reinserted[level] = true;
                    let removed = self.take_reinsert_entries(idx);
                    // Tighten ancestors before reinserting.
                    for j in (1..=i).rev() {
                        self.refresh_child_entry(path[j - 1], path[j]);
                    }
                    let lvl = level as u32;
                    for e in removed {
                        self.insert_entry(e, lvl, reinserted);
                    }
                    return;
                }
                let new_entry = self.split_node(idx);
                if i == 0 {
                    // The root split: grow the tree by one level.
                    let old_root_entry = self.make_node_entry(self.root);
                    let mut new_root = Node::new(self.nodes[self.root].level + 1, self.dims);
                    new_root.push_entry(&old_root_entry);
                    new_root.push_entry(&new_entry);
                    self.root = self.alloc_node(new_root);
                    self.height += 1;
                    return;
                }
                let parent = path[i - 1];
                self.refresh_child_entry(parent, idx);
                self.nodes[parent].push_entry(&new_entry);
                i -= 1;
                continue;
            }
            if i == 0 {
                return;
            }
            let parent = path[i - 1];
            self.refresh_child_entry(parent, idx);
            i -= 1;
        }
    }

    /// Builds the parent entry describing `node_idx`.
    pub(crate) fn make_node_entry(&self, node_idx: usize) -> Entry {
        let node = &self.nodes[node_idx];
        Entry {
            mbr: node
                .mbr()
                .expect("nodes referenced by entries are never empty"),
            count: node.total_count(),
            child: Child::Node(node_idx as u32),
        }
    }

    /// Recomputes the MBR and aggregate count of the `parent`'s entry pointing
    /// to `child`.
    pub(crate) fn refresh_child_entry(&mut self, parent: usize, child: usize) {
        let fresh = self.make_node_entry(child);
        let node = &mut self.nodes[parent];
        let pos = node
            .position_of(fresh.child)
            .unwrap_or_else(|| panic!("parent {parent} has no entry for child {child}"));
        node.set_mbr_and_count(pos, &fresh.mbr, fresh.count);
    }

    /// Removes the `reinsert_count` entries farthest from the node's centre
    /// (the R\* forced-reinsertion set), leaving the node legal.
    fn take_reinsert_entries(&mut self, idx: usize) -> Vec<Entry> {
        let count = self.config.reinsert_count;
        let node = &mut self.nodes[idx];
        let center = node.mbr().expect("overflowing node is not empty").center();
        let dist: Vec<f64> = node
            .entries()
            .map(|e| {
                e.lo()
                    .iter()
                    .zip(e.hi())
                    .map(|(l, h)| 0.5 * (l + h))
                    .zip(&center)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum()
            })
            .collect();
        let mut order: Vec<usize> = (0..node.len()).collect();
        order.sort_by(|&a, &b| {
            dist[b]
                .partial_cmp(&dist[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut to_remove: Vec<usize> = order.into_iter().take(count).collect();
        to_remove.sort_unstable_by(|a, b| b.cmp(a));
        to_remove
            .into_iter()
            .map(|pos| node.swap_remove(pos))
            .collect()
    }

    /// R\* topological split of an overflowing node.  The node keeps the first
    /// group; the returned entry describes the newly created sibling.
    pub(crate) fn split_node(&mut self, idx: usize) -> Entry {
        let min = self.config.min_entries;
        let level = self.nodes[idx].level;
        let dims = self.dims;
        let node = std::mem::replace(&mut self.nodes[idx], Node::new(level, dims));
        let total = node.len();
        debug_assert!(total > self.config.max_entries);

        // Candidate distributions: for each axis, entries sorted by lower and
        // by upper coordinate; for each sort, split positions k in
        // [min, total - min].
        let mut best_axis = 0;
        let mut best_axis_margin = f64::INFINITY;
        let mut sorted_by_axis: Vec<(Vec<usize>, Vec<usize>)> = Vec::with_capacity(dims);
        for axis in 0..dims {
            let mut by_lo: Vec<usize> = (0..total).collect();
            by_lo.sort_by(|&a, &b| {
                node.entry(a).lo()[axis]
                    .partial_cmp(&node.entry(b).lo()[axis])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut by_hi: Vec<usize> = (0..total).collect();
            by_hi.sort_by(|&a, &b| {
                node.entry(a).hi()[axis]
                    .partial_cmp(&node.entry(b).hi()[axis])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut margin_sum = 0.0;
            for order in [&by_lo, &by_hi] {
                for k in min..=total - min {
                    let (m1, m2) = group_mbrs(&node, order, k);
                    margin_sum += margin(&m1.lo, &m1.hi) + margin(&m2.lo, &m2.hi);
                }
            }
            if margin_sum < best_axis_margin {
                best_axis_margin = margin_sum;
                best_axis = axis;
            }
            sorted_by_axis.push((by_lo, by_hi));
        }

        let (by_lo, by_hi) = &sorted_by_axis[best_axis];
        let mut best: Option<(&Vec<usize>, usize, f64, f64)> = None; // (order, k, overlap, area)
        for order in [by_lo, by_hi] {
            for k in min..=total - min {
                let (m1, m2) = group_mbrs(&node, order, k);
                let ov = overlap(&m1, &m2);
                let area = m1.volume() + m2.volume();
                let better = match &best {
                    None => true,
                    Some((_, _, bo, ba)) => {
                        ov < *bo - 1e-15 || ((ov - bo).abs() <= 1e-15 && area < *ba)
                    }
                };
                if better {
                    best = Some((order, k, ov, area));
                }
            }
        }
        let (order, k, _, _) = best.expect("at least one distribution exists");

        let mut first = Node::with_capacity(level, dims, k);
        let mut second = Node::with_capacity(level, dims, total - k);
        for (pos, &e_idx) in order.iter().enumerate() {
            let e = node.entry(e_idx);
            let group = if pos < k { &mut first } else { &mut second };
            group.push(e.lo(), e.hi(), e.count, e.child);
        }
        self.nodes[idx] = first;
        let new_idx = self.alloc_node(second);
        self.make_node_entry(new_idx)
    }
}

/// MBRs of the first `k` entries of `order` and of the rest.
fn group_mbrs(node: &Node, order: &[usize], k: usize) -> (BoundingBox, BoundingBox) {
    (group_mbr(node, &order[..k]), group_mbr(node, &order[k..]))
}

fn group_mbr(node: &Node, group: &[usize]) -> BoundingBox {
    let first = node.entry(group[0]);
    let (mut lo, mut hi) = (first.lo().to_vec(), first.hi().to_vec());
    for &i in &group[1..] {
        let e = node.entry(i);
        for (l, x) in lo.iter_mut().zip(e.lo()) {
            *l = l.min(*x);
        }
        for (h, x) in hi.iter_mut().zip(e.hi()) {
            *h = h.max(*x);
        }
    }
    BoundingBox::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rstar::RStarConfig;

    #[test]
    fn split_respects_min_entries() {
        let config = RStarConfig {
            max_entries: 4,
            min_entries: 2,
            reinsert_count: 1,
        };
        let mut tree = RStarTree::with_config(2, config);
        // Fill a single node beyond capacity manually, then split.
        for i in 0..5u32 {
            let x = i as f64 / 5.0;
            tree.nodes[0].push_entry(&Entry::record(i, &[x, 1.0 - x]));
        }
        let new_entry = tree.split_node(0);
        let first_len = tree.nodes[0].len();
        let second_len = match new_entry.child {
            Child::Node(idx) => tree.nodes[idx as usize].len(),
            _ => panic!("split must create a node entry"),
        };
        assert_eq!(first_len + second_len, 5);
        assert!(first_len >= 2 && second_len >= 2);
    }
}
