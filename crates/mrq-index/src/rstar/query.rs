//! Query operations over the aggregate R\*-tree: range reporting, aggregate
//! counting, dominator counting and incomparable-record retrieval.
//!
//! Every *node read* is charged to the calling thread's page counter
//! ([`crate::iostats`]); aggregate counts deliberately avoid descending into
//! sub-trees whose MBR is fully covered by the query, which is exactly how
//! the paper's aggregate R-tree makes dominator counting cheap.

use super::node::Child;
use super::RStarTree;
use crate::iostats::record_read;
use mrq_data::RecordId;
use mrq_geometry::BoundingBox;

impl RStarTree {
    /// Reports the ids of all records inside the closed query box.
    pub fn range_ids(&self, query: &BoundingBox) -> Vec<RecordId> {
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        self.range_ids_rec(self.root, query, &mut out);
        out
    }

    fn range_ids_rec(&self, idx: usize, query: &BoundingBox, out: &mut Vec<RecordId>) {
        record_read();
        for e in self.nodes[idx].entries() {
            if !intersects(query, e.lo(), e.hi()) {
                continue;
            }
            match e.child {
                Child::Record(id) => out.push(id),
                Child::Node(child) => self.range_ids_rec(child as usize, query, out),
            }
        }
    }

    /// Counts the records inside the closed query box, using the aggregate
    /// counts to avoid descending into fully covered sub-trees.
    pub fn range_count(&self, query: &BoundingBox) -> u64 {
        if self.len == 0 {
            return 0;
        }
        self.range_count_rec(self.root, query)
    }

    fn range_count_rec(&self, idx: usize, query: &BoundingBox) -> u64 {
        record_read();
        let node = &self.nodes[idx];
        let mut total = 0u64;
        for e in node.entries() {
            if !intersects(query, e.lo(), e.hi()) {
                continue;
            }
            if contains_box(query, e.lo(), e.hi()) {
                total += u64::from(e.count);
                continue;
            }
            match e.child {
                Child::Record(_) => {
                    // The record's point MBR intersects but is not contained —
                    // impossible for a degenerate box, so this is unreachable;
                    // kept for robustness.
                }
                Child::Node(child) => total += self.range_count_rec(child as usize, query),
            }
        }
        total
    }

    /// Counts the dominators of `p`: records with every attribute ≥ the
    /// corresponding attribute of `p`, excluding records equal to `p`
    /// (which covers the focal record itself when it belongs to the dataset).
    ///
    /// `_focal_id` documents intent at call sites; the exclusion works through
    /// coordinates, so the id itself is not needed.
    pub fn count_dominators(&self, p: &[f64], _focal_id: Option<RecordId>) -> u64 {
        assert_eq!(p.len(), self.dims);
        if self.len == 0 {
            return 0;
        }
        let upper = self
            .bounding_box()
            .map(|b| b.hi)
            .unwrap_or_else(|| vec![1.0; self.dims]);
        let hi: Vec<f64> = upper.iter().zip(p).map(|(u, pi)| u.max(*pi)).collect();
        let dominator_box = BoundingBox::new(p.to_vec(), hi);
        let equal_box = BoundingBox::new(p.to_vec(), p.to_vec());
        let weak = self.range_count(&dominator_box);
        let equal = self.range_count(&equal_box);
        weak - equal
    }

    /// Reports the ids of all records *incomparable* to the focal point `p`
    /// (neither dominating nor dominated by it, and not equal to it),
    /// excluding `skip` if given.  This is the record-access pattern of the
    /// basic approach (BA), which must read every incomparable record.
    pub fn incomparable_ids(&self, p: &[f64], skip: Option<RecordId>) -> Vec<RecordId> {
        assert_eq!(p.len(), self.dims);
        let mut out = Vec::new();
        if self.len == 0 {
            return out;
        }
        self.incomparable_rec(self.root, p, skip, &mut out);
        out
    }

    fn incomparable_rec(
        &self,
        idx: usize,
        p: &[f64],
        skip: Option<RecordId>,
        out: &mut Vec<RecordId>,
    ) {
        record_read();
        let node = &self.nodes[idx];
        for e in node.entries() {
            // Prune sub-trees that contain only dominators / duplicates
            // (lower corner weakly dominates p) or only dominees / duplicates
            // (upper corner weakly dominated by p).
            let all_ge = e.lo().iter().zip(p).all(|(l, pi)| l >= pi);
            let all_le = e.hi().iter().zip(p).all(|(h, pi)| h <= pi);
            if all_ge || all_le {
                continue;
            }
            match e.child {
                Child::Record(id) => {
                    if Some(id) == skip {
                        continue;
                    }
                    let r = e.lo();
                    let ge = r.iter().zip(p).all(|(a, b)| a >= b);
                    let le = r.iter().zip(p).all(|(a, b)| a <= b);
                    if !ge && !le {
                        out.push(id);
                    }
                }
                Child::Node(child) => self.incomparable_rec(child as usize, p, skip, out),
            }
        }
    }
}

/// Whether the closed box `[lo, hi]` meets the query box, as
/// [`BoundingBox::intersects`] decides it.
fn intersects(query: &BoundingBox, lo: &[f64], hi: &[f64]) -> bool {
    query
        .lo
        .iter()
        .zip(&query.hi)
        .zip(lo.iter().zip(hi))
        .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
}

/// Whether `[lo, hi]` lies inside the query box, as
/// [`BoundingBox::contains_box`] decides it.
fn contains_box(query: &BoundingBox, lo: &[f64], hi: &[f64]) -> bool {
    query
        .lo
        .iter()
        .zip(&query.hi)
        .zip(lo.iter().zip(hi))
        .all(|((al, ah), (bl, bh))| al <= bl && bh <= ah)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::count_reads;
    use crate::rstar::RStarConfig;
    use mrq_data::{synthetic, Dataset, Distribution};
    use rand::{rngs::StdRng, SeedableRng};

    fn small_tree() -> (Dataset, RStarTree) {
        let mut rng = StdRng::seed_from_u64(5);
        let data = synthetic::generate(Distribution::Independent, 400, 2, &mut rng);
        let tree = RStarTree::bulk_load_with_config(
            &data,
            RStarConfig {
                max_entries: 8,
                min_entries: 3,
                reinsert_count: 2,
            },
        );
        (data, tree)
    }

    #[test]
    fn range_ids_match_scan() {
        let (data, tree) = small_tree();
        let q = BoundingBox::new(vec![0.25, 0.4], vec![0.75, 0.95]);
        let mut got = tree.range_ids(&q);
        got.sort_unstable();
        let expected: Vec<u32> = data
            .iter()
            .filter(|(_, r)| q.contains(r))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(got, expected);
        assert_eq!(tree.range_count(&q) as usize, expected.len());
    }

    #[test]
    fn count_uses_fewer_reads_than_report() {
        let (_, tree) = small_tree();
        let q = BoundingBox::new(vec![0.1, 0.1], vec![0.9, 0.9]);
        let (_, count_io) = count_reads(|| tree.range_count(&q));
        let (_, report_io) = count_reads(|| tree.range_ids(&q));
        assert!(
            count_io < report_io,
            "count {count_io} vs report {report_io}"
        );
    }

    #[test]
    fn dominators_empty_tree() {
        let t = RStarTree::new(3);
        assert_eq!(t.count_dominators(&[0.5, 0.5, 0.5], None), 0);
        assert!(t.incomparable_ids(&[0.5, 0.5, 0.5], None).is_empty());
        assert!(t.range_ids(&BoundingBox::unit(3)).is_empty());
        assert_eq!(t.range_count(&BoundingBox::unit(3)), 0);
    }

    #[test]
    fn incomparable_excludes_boundary_cases() {
        // Records exactly equal to p, dominating p, and dominated by p are
        // all excluded; only genuinely incomparable ones remain.
        let data = Dataset::from_rows(
            2,
            &[
                vec![0.5, 0.5], // equal to p
                vec![0.6, 0.5], // dominator (weak, one equal coordinate)
                vec![0.5, 0.4], // dominee (weak)
                vec![0.9, 0.1], // incomparable
                vec![0.1, 0.9], // incomparable
            ],
        );
        let tree = RStarTree::bulk_load(&data);
        let mut ids = tree.incomparable_ids(&[0.5, 0.5], None);
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 4]);
        assert_eq!(tree.count_dominators(&[0.5, 0.5], None), 1);
    }

    #[test]
    fn focal_point_not_in_dataset() {
        let (data, tree) = small_tree();
        let p = [0.5, 0.5];
        let expected_dom = data
            .iter()
            .filter(|(_, r)| mrq_data::dominates(r, &p))
            .count();
        assert_eq!(tree.count_dominators(&p, None) as usize, expected_dom);
        let expected_inc = data
            .iter()
            .filter(|(_, r)| !mrq_data::dominates(r, &p) && !mrq_data::dominates(&p, r) && *r != p)
            .count();
        assert_eq!(tree.incomparable_ids(&p, None).len(), expected_inc);
    }
}
