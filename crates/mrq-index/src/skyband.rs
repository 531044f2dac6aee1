//! k-skyband computation over the aggregate R\*-tree.
//!
//! The k-skyband generalises the skyline: it contains every record dominated
//! by fewer than `k` other records.  The paper points out (Section 2) that
//! BBS can compute it; MaxRank itself only needs the skyline, but the
//! k-skyband is the natural pre-filter for answering *any* top-k query with
//! `k ≤ K` (only skyband records can ever appear in a top-k result), so it is
//! provided as part of the index layer and used by the examples and tests as
//! an independent cross-check of the ranking machinery.

use crate::bbs::{only_comparable, read_node};
use crate::rstar::{Child, RStarTree};
use mrq_data::RecordId;
use std::collections::BinaryHeap;

/// Computes the `k`-skyband: the ids of all records dominated by fewer than
/// `k` others.  `k = 1` yields the ordinary skyline.
///
/// The traversal is best-first on the attribute sum (as in BBS); an entry is
/// pruned once `k` already-confirmed skyband records dominate its upper
/// corner, which is safe because those records dominate everything inside the
/// entry.
pub fn k_skyband(tree: &RStarTree, k: usize) -> Vec<RecordId> {
    k_skyband_impl(tree, k, None)
}

/// Computes the `k`-skyband of the records **incomparable to a focal point**:
/// the ids of incomparable records dominated by fewer than `k` *other
/// incomparable* records.  `focal_id` (if given) is excluded from the result.
///
/// This is the dominance filter the MaxRank algorithms reason with: a record
/// outranking the focal record somewhere is always accompanied there by all
/// of its incomparable dominators, so any record listed in a result region of
/// rank `k` must belong to the `(k − |D⁺| − 1)`-skyband of the incomparable
/// set.  The differential test harness uses this as an algorithm-independent
/// cross-check of every reported outranking set.
pub fn k_skyband_incomparable(
    tree: &RStarTree,
    focal: &[f64],
    focal_id: Option<RecordId>,
    k: usize,
) -> Vec<RecordId> {
    assert_eq!(focal.len(), tree.dims());
    k_skyband_impl(tree, k, Some((focal, focal_id)))
}

fn k_skyband_impl(
    tree: &RStarTree,
    k: usize,
    focal: Option<(&[f64], Option<RecordId>)>,
) -> Vec<RecordId> {
    assert!(k >= 1, "the 0-skyband is empty by definition");
    let Some(bounds) = tree.bounding_box() else {
        return Vec::new();
    };
    let mut heap = BinaryHeap::new();
    // The root is the only entry of a fresh heap and nothing is confirmed
    // yet, so only the focal test can skip reading it.
    if !focal.is_some_and(|(p, _)| only_comparable(&bounds.lo, &bounds.hi, p)) {
        read_node(tree, tree.root, &mut heap);
    }
    let mut result: Vec<(RecordId, &[f64])> = Vec::new();
    while let Some(item) = heap.pop() {
        let entry = item.entry(tree);
        let (lo, hi) = (entry.lo(), entry.hi());
        if let Some((p, skip)) = focal {
            // Focal pruning, as in `IncrementalSkyline`: no incomparable
            // record inside.
            if only_comparable(lo, hi, p) {
                continue;
            }
            if let Child::Record(id) = entry.child {
                if Some(id) == skip {
                    continue;
                }
            }
        }
        let dominated_by = result
            .iter()
            .filter(|(_, s)| dominates_strictly(s, hi))
            .count();
        if dominated_by >= k {
            continue;
        }
        match entry.child {
            Child::Record(id) => result.push((id, hi)),
            Child::Node(idx) => read_node(tree, idx as usize, &mut heap),
        }
    }
    result.into_iter().map(|(id, _)| id).collect()
}

fn dominates_strictly(a: &[f64], b: &[f64]) -> bool {
    let mut strict = false;
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return false;
        }
        if x > y {
            strict = true;
        }
    }
    strict
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_data::{dominates, synthetic, Dataset, Distribution};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn naive_skyband(data: &Dataset, k: usize) -> Vec<RecordId> {
        data.iter()
            .filter(|(i, r)| {
                data.iter()
                    .filter(|(j, other)| i != j && dominates(other, r))
                    .count()
                    < k
            })
            .map(|(i, _)| i)
            .collect()
    }

    #[test]
    fn skyband_matches_naive() {
        let mut rng = StdRng::seed_from_u64(3);
        for dist in Distribution::all() {
            let data = synthetic::generate(dist, 400, 3, &mut rng);
            let tree = RStarTree::bulk_load(&data);
            for k in [1usize, 2, 5] {
                let mut got = k_skyband(&tree, k);
                got.sort_unstable();
                let mut expected = naive_skyband(&data, k);
                expected.sort_unstable();
                assert_eq!(got, expected, "dist {dist:?} k {k}");
            }
        }
    }

    #[test]
    fn one_skyband_is_skyline() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = synthetic::generate(Distribution::Independent, 500, 2, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let mut sky = mrq_data::naive_skyline(&data, &ids);
        sky.sort_unstable();
        let mut got = k_skyband(&tree, 1);
        got.sort_unstable();
        assert_eq!(got, sky);
    }

    #[test]
    fn skyband_grows_with_k() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = synthetic::generate(Distribution::Correlated, 600, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let mut prev = 0usize;
        for k in 1..=6 {
            let cur = k_skyband(&tree, k).len();
            assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn skyband_contains_every_topk_answer() {
        // The classic property: any top-k result (k ≤ K) is a subset of the
        // K-skyband.
        let mut rng = StdRng::seed_from_u64(6);
        let data = synthetic::generate(Distribution::AntiCorrelated, 300, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let band: std::collections::HashSet<u32> = k_skyband(&tree, 4).into_iter().collect();
        for _ in 0..20 {
            let mut q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() + 1e-9).collect();
            let s: f64 = q.iter().sum();
            q.iter_mut().for_each(|x| *x /= s);
            let top = crate::topk::top_k(&tree, &q, 4);
            for id in top.ids {
                assert!(
                    band.contains(&id),
                    "top-4 answer {id} missing from 4-skyband"
                );
            }
        }
    }

    #[test]
    fn empty_tree_empty_skyband() {
        let tree = RStarTree::new(2);
        assert!(k_skyband(&tree, 3).is_empty());
        assert!(k_skyband_incomparable(&tree, &[0.5, 0.5], None, 3).is_empty());
    }

    fn naive_skyband_incomparable(data: &Dataset, focal: u32, k: usize) -> Vec<RecordId> {
        let p = data.record(focal);
        let part = mrq_data::partition_by_focal(data, p, Some(focal));
        part.incomparable
            .iter()
            .copied()
            .filter(|&i| {
                part.incomparable
                    .iter()
                    .filter(|&&j| i != j && dominates(data.record(j), data.record(i)))
                    .count()
                    < k
            })
            .collect()
    }

    #[test]
    fn incomparable_skyband_matches_naive() {
        let mut rng = StdRng::seed_from_u64(21);
        for dist in Distribution::all() {
            let data = synthetic::generate(dist, 350, 3, &mut rng);
            let tree = RStarTree::bulk_load(&data);
            for focal in [4u32, 99] {
                let p = data.record(focal).to_vec();
                for k in [1usize, 3, 7] {
                    let mut got = k_skyband_incomparable(&tree, &p, Some(focal), k);
                    got.sort_unstable();
                    let mut expected = naive_skyband_incomparable(&data, focal, k);
                    expected.sort_unstable();
                    assert_eq!(got, expected, "dist {dist:?} focal {focal} k {k}");
                }
            }
        }
    }

    #[test]
    fn incomparable_one_skyband_matches_incremental_skyline() {
        let mut rng = StdRng::seed_from_u64(22);
        let data = synthetic::generate(Distribution::AntiCorrelated, 400, 2, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let p = data.record(13).to_vec();
        let mut band = k_skyband_incomparable(&tree, &p, Some(13), 1);
        band.sort_unstable();
        let sky = crate::IncrementalSkyline::new(&tree, &p, Some(13));
        let mut expected: Vec<RecordId> = sky.skyline().iter().map(|(id, _)| *id).collect();
        expected.sort_unstable();
        assert_eq!(band, expected);
    }
}
