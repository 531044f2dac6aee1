//! Top-k evaluation and rank (order) computation over the aggregate R\*-tree.
//!
//! These routines are the "user-facing" side of the setting the paper works
//! in: a linear top-k query with positive weights.  They serve three roles in
//! the reproduction: validating MaxRank results (the order of the focal
//! record at a witness query vector must equal `k*`), the appendix
//! dimensionality-curse experiment (Figure 12), and the example programs.

use crate::iostats::record_read;
use crate::rstar::{Child, RStarTree};
use mrq_data::RecordId;
use std::collections::BinaryHeap;

/// Result of a top-k query: ids and scores, best first.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// Record ids in descending score order.
    pub ids: Vec<RecordId>,
    /// Scores aligned with `ids`.
    pub scores: Vec<f64>,
}

#[derive(Debug)]
struct QueueItem {
    key: f64,
    child: Child,
}

impl PartialEq for QueueItem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for QueueItem {}
impl PartialOrd for QueueItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Best-first top-k over the index.  `q` must have positive weights (a
/// permissible query vector); the MBR upper corner then gives an exact upper
/// bound for the best score inside a sub-tree.
pub fn top_k(tree: &RStarTree, q: &[f64], k: usize) -> TopKResult {
    assert_eq!(q.len(), tree.dims(), "query dimensionality mismatch");
    assert!(
        q.iter().all(|w| *w >= 0.0),
        "top-k requires non-negative weights"
    );
    let mut result = TopKResult {
        ids: Vec::with_capacity(k),
        scores: Vec::with_capacity(k),
    };
    if tree.is_empty() || k == 0 {
        return result;
    }
    let mut heap = BinaryHeap::new();
    heap.push(QueueItem {
        key: f64::INFINITY,
        child: Child::Node(tree.root as u32),
    });
    while let Some(item) = heap.pop() {
        match item.child {
            Child::Record(id) => {
                result.ids.push(id);
                result.scores.push(item.key);
                if result.ids.len() == k {
                    break;
                }
            }
            Child::Node(idx) => {
                record_read();
                let node = &tree.nodes[idx as usize];
                for e in node.entries() {
                    let bound: f64 = e.hi().iter().zip(q).map(|(x, w)| x * w).sum();
                    heap.push(QueueItem {
                        key: bound,
                        child: e.child,
                    });
                }
            }
        }
    }
    result
}

/// The order (1-based rank) of an arbitrary point `p` under query `q`: one
/// plus the number of indexed records scoring strictly above `p`.  Uses the
/// aggregate counts to avoid descending into sub-trees that lie entirely
/// above or entirely below the score of `p`.
pub fn order_of(tree: &RStarTree, p: &[f64], q: &[f64]) -> usize {
    assert_eq!(q.len(), tree.dims());
    assert_eq!(p.len(), tree.dims());
    if tree.is_empty() {
        return 1;
    }
    let sp: f64 = p.iter().zip(q).map(|(x, w)| x * w).sum();
    1 + count_above(tree, tree.root, q, sp)
}

fn count_above(tree: &RStarTree, idx: usize, q: &[f64], threshold: f64) -> usize {
    record_read();
    let node = &tree.nodes[idx];
    let mut total = 0usize;
    for e in node.entries() {
        let upper: f64 = e.hi().iter().zip(q).map(|(x, w)| x * w).sum();
        if upper <= threshold {
            continue;
        }
        let lower: f64 = e.lo().iter().zip(q).map(|(x, w)| x * w).sum();
        if lower > threshold {
            total += e.count as usize;
            continue;
        }
        match e.child {
            Child::Record(_) => {
                // The record's exact score is `upper` (point MBR); it exceeds
                // the threshold because of the first check.
                total += 1;
            }
            Child::Node(child) => total += count_above(tree, child as usize, q, threshold),
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iostats::count_reads;
    use mrq_data::{synthetic, Dataset, Distribution};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn top_k_matches_sort_small() {
        let data = Dataset::from_rows(
            2,
            &[
                vec![0.8, 0.9],
                vec![0.2, 0.7],
                vec![0.9, 0.4],
                vec![0.7, 0.2],
                vec![0.4, 0.3],
            ],
        );
        let tree = RStarTree::bulk_load(&data);
        let q = [0.7, 0.3];
        let res = top_k(&tree, &q, 3);
        // Scores: r1 .83, r3 .75, r4 .55, ...
        assert_eq!(res.ids, vec![0, 2, 3]);
        assert!((res.scores[0] - 0.83).abs() < 1e-9);
        assert!((res.scores[1] - 0.75).abs() < 1e-9);
    }

    #[test]
    fn top_k_matches_linear_scan_random() {
        let mut rng = StdRng::seed_from_u64(19);
        let data = synthetic::generate(Distribution::Independent, 700, 4, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        for _ in 0..10 {
            let mut q: Vec<f64> = (0..4).map(|_| rng.gen::<f64>() + 0.01).collect();
            let s: f64 = q.iter().sum();
            q.iter_mut().for_each(|x| *x /= s);
            let k = rng.gen_range(1..20);
            let res = top_k(&tree, &q, k);
            let mut scored: Vec<(f64, u32)> = data
                .iter()
                .map(|(id, r)| (r.iter().zip(&q).map(|(a, b)| a * b).sum::<f64>(), id))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let expected: Vec<u32> = scored.iter().take(k).map(|(_, id)| *id).collect();
            // Scores may tie; compare score sequences instead of ids.
            let expected_scores: Vec<f64> = scored.iter().take(k).map(|(s, _)| *s).collect();
            assert_eq!(res.ids.len(), k);
            for (a, b) in res.scores.iter().zip(&expected_scores) {
                assert!((a - b).abs() < 1e-9);
            }
            // And the id multiset must agree up to ties; verify by score
            // membership.
            for id in &res.ids {
                assert!(
                    expected.contains(id) || {
                        let s: f64 = data.record(*id).iter().zip(&q).map(|(a, b)| a * b).sum();
                        expected_scores.iter().any(|e| (e - s).abs() < 1e-12)
                    }
                );
            }
        }
    }

    #[test]
    fn order_of_matches_dataset_scan() {
        let mut rng = StdRng::seed_from_u64(23);
        let data = synthetic::generate(Distribution::AntiCorrelated, 900, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        for _ in 0..15 {
            let focal: u32 = rng.gen_range(0..900);
            let p = data.record(focal).to_vec();
            let mut q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() + 0.01).collect();
            let s: f64 = q.iter().sum();
            q.iter_mut().for_each(|x| *x /= s);
            assert_eq!(order_of(&tree, &p, &q), data.order_of(&p, &q));
        }
    }

    #[test]
    fn order_of_uses_aggregate_pruning() {
        let mut rng = StdRng::seed_from_u64(29);
        let data = synthetic::generate(Distribution::Independent, 5000, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let p = data.record(0).to_vec();
        let q = [0.4, 0.3, 0.3];
        let (_, with_pruning) = count_reads(|| order_of(&tree, &p, &q));
        assert!(
            (with_pruning as usize) < tree.node_count(),
            "order_of must not read the whole tree ({with_pruning} reads of {} nodes)",
            tree.node_count()
        );
    }

    #[test]
    fn top_k_larger_than_dataset() {
        let data = Dataset::from_rows(2, &[vec![0.2, 0.3], vec![0.4, 0.1]]);
        let tree = RStarTree::bulk_load(&data);
        let res = top_k(&tree, &[0.5, 0.5], 10);
        assert_eq!(res.ids.len(), 2);
        let empty = top_k(&RStarTree::new(2), &[0.5, 0.5], 3);
        assert!(empty.ids.is_empty());
    }

    #[test]
    fn order_of_empty_tree_is_one() {
        let tree = RStarTree::new(2);
        assert_eq!(order_of(&tree, &[0.3, 0.3], &[0.5, 0.5]), 1);
    }
}
