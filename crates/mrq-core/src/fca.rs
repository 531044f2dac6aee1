//! FCA — the first-cut algorithm for two-dimensional data (paper, Section 4).
//!
//! With `d = 2` the score of every record is a line in `q_1`; the order of
//! the focal record changes only at the intersections of its score line with
//! the score lines of the incomparable records.  FCA computes all those
//! intersections, sorts them, sweeps the `q_1` domain and reports the
//! interval(s) with the smallest order (or within `τ` of it for iMaxRank).
//!
//! Dominators and dominees are pruned exactly as in BA/AA; the dominator
//! count is obtained from the aggregate R\*-tree.

use crate::result::{MaxRankResult, QueryStats, ResultRegion};
use mrq_data::{Dataset, RecordId};
use mrq_geometry::{halfline_for_record, interval_region, HalfLine2d, EPS};
use mrq_index::RStarTree;

/// Runs FCA for a focal record identified by id.
pub fn run(data: &Dataset, tree: &RStarTree, focal_id: RecordId, tau: usize) -> MaxRankResult {
    let p = data.record(focal_id).to_vec();
    run_point(data, tree, &p, Some(focal_id), tau)
}

/// Runs FCA for an arbitrary focal point (which need not belong to the
/// dataset).
///
/// # Panics
/// Panics if the dataset is not two-dimensional.
pub fn run_point(
    data: &Dataset,
    tree: &RStarTree,
    p: &[f64],
    focal_id: Option<RecordId>,
    tau: usize,
) -> MaxRankResult {
    assert_eq!(
        data.dims(),
        2,
        "FCA is defined for two-dimensional data only"
    );
    assert_eq!(p.len(), 2);
    let mut stats = QueryStats::default();

    let dominators = tree.count_dominators(p, focal_id) as usize;
    stats.dominators = dominators;
    let incomparable = tree.incomparable_ids(p, focal_id);

    // Build the sweep events.  Each incomparable record wins on an interval of
    // q1 that is either (t, 1), (0, t), all of (0, 1), or empty.
    let mut always_above = 0usize;
    let mut initial = 0usize; // winners just right of q1 = 0
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(incomparable.len());
    let mut interval_records: Vec<(f64, bool, RecordId)> = Vec::new(); // (t, wins_right, id)
    for &id in &incomparable {
        match halfline_for_record(data.record(id), p) {
            HalfLine2d::AlwaysAbove => always_above += 1,
            HalfLine2d::NeverAbove => {}
            HalfLine2d::WinsRight(t) => {
                events.push((t, 1));
                interval_records.push((t, true, id));
            }
            HalfLine2d::WinsLeft(t) => {
                initial += 1;
                events.push((t, -1));
                interval_records.push((t, false, id));
            }
        }
    }
    stats.halfspaces_inserted = events.len();

    let base = dominators + always_above;
    if events.is_empty() {
        stats.iterations = 1;
        // The order is the same everywhere: base + initial (initial == 0 here).
        return crate::common::trivial_result(2, base, tau, stats);
    }

    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    // Sweep: interval boundaries are 0, t_1, …, t_m, 1.
    let mut boundaries = Vec::with_capacity(events.len() + 2);
    boundaries.push(0.0);
    boundaries.extend(events.iter().map(|(t, _)| *t));
    boundaries.push(1.0);

    let mut orders = Vec::with_capacity(events.len() + 1);
    let mut current = always_above + initial;
    orders.push(current);
    for (_, delta) in &events {
        current = (current as i64 + delta) as usize;
        orders.push(current);
    }

    // Coincident events produce zero-length intervals. They hold no region,
    // so they take no part in k* either.
    let kept = |i: usize| boundaries[i + 1] - boundaries[i] >= 10.0 * EPS;
    let min_order = (0..orders.len())
        .filter(|&i| kept(i))
        .map(|i| orders[i])
        .min()
        .expect("the intervals cover [0, 1]");
    let mut regions = Vec::new();
    for (i, &order) in orders.iter().enumerate() {
        if !kept(i) {
            continue;
        }
        let (lo, hi) = (boundaries[i], boundaries[i + 1]);
        if order > min_order + tau {
            continue;
        }
        let outranking: Vec<RecordId> = interval_records
            .iter()
            .filter(|(t, wins_right, _)| {
                let mid = 0.5 * (lo + hi);
                if *wins_right {
                    mid > *t
                } else {
                    mid < *t
                }
            })
            .map(|(_, _, id)| *id)
            .collect();
        regions.push(ResultRegion {
            region: interval_region(lo, hi),
            order: dominators + order + 1,
            outranking,
        });
    }

    stats.iterations = 1;
    stats.cells_tested = orders.len();

    MaxRankResult {
        dims: 2,
        k_star: dominators + min_order + 1,
        tau,
        regions,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, MaxRankConfig, MaxRankQuery};

    fn figure1() -> (Dataset, RStarTree) {
        let data = Dataset::from_rows(
            2,
            &[
                vec![0.8, 0.9], // r1 (dominator)
                vec![0.2, 0.7], // r2
                vec![0.9, 0.4], // r3
                vec![0.7, 0.2], // r4
                vec![0.4, 0.3], // r5 (dominee)
                vec![0.5, 0.5], // p itself
            ],
        );
        let tree = RStarTree::bulk_load(&data);
        (data, tree)
    }

    #[test]
    fn paper_running_example() {
        // Section 4 / Figure 2: k* = 3, attained on q1 ∈ (0, 0.2) ∪ (0.4, 0.6).
        let (data, tree) = figure1();
        let res = run(&data, &tree, 5, 0);
        assert_eq!(res.k_star, 3);
        assert_eq!(res.region_count(), 2);
        let mut intervals: Vec<(f64, f64)> = res
            .regions
            .iter()
            .map(|r| (r.region.bounds.lo[0], r.region.bounds.hi[0]))
            .collect();
        intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!((intervals[0].0 - 0.0).abs() < 1e-9 && (intervals[0].1 - 0.2).abs() < 1e-9);
        assert!((intervals[1].0 - 0.4).abs() < 1e-9 && (intervals[1].1 - 0.6).abs() < 1e-9);
        // Validate with the plain dataset order at region witnesses.
        for region in &res.regions {
            let q = region.representative_query();
            assert_eq!(data.order_of(&[0.5, 0.5], &q), 3);
        }
    }

    #[test]
    fn imaxrank_extends_intervals() {
        // With τ = 1 the regions must cover every q1 where the order is ≤ 4,
        // which in Figure 2 is the whole (0, 1) domain.
        let (data, tree) = figure1();
        let res = run(&data, &tree, 5, 1);
        assert_eq!(res.k_star, 3);
        let total: f64 = res
            .regions
            .iter()
            .map(|r| r.region.bounds.hi[0] - r.region.bounds.lo[0])
            .sum();
        assert!((total - 1.0).abs() < 1e-6, "covered {total}");
        assert!(res.regions.iter().all(|r| r.order <= 4));
    }

    #[test]
    fn focal_point_outside_dataset() {
        let (data, tree) = figure1();
        // A clearly dominated point: every other record beats it somewhere,
        // and r1 dominates it outright.
        let res = run_point(&data, &tree, &[0.1, 0.1], None, 0);
        assert!(res.k_star >= 5, "k* = {}", res.k_star);
        // A point dominating everything: k* = 1 everywhere.
        let res = run_point(&data, &tree, &[0.95, 0.95], None, 0);
        assert_eq!(res.k_star, 1);
        assert_eq!(res.region_count(), 1);
    }

    #[test]
    fn order_at_witness_matches_region_order() {
        let (data, tree) = figure1();
        for focal in 0..data.len() as u32 {
            let res = run(&data, &tree, focal, 0);
            let p = data.record(focal);
            for region in &res.regions {
                let q = region.representative_query();
                assert_eq!(data.order_of(p, &q), region.order, "focal {focal}");
            }
        }
    }

    #[test]
    fn stats_populated() {
        let (data, tree) = figure1();
        let config = MaxRankConfig::new().with_algorithm(Algorithm::Fca);
        let res = MaxRankQuery::new(&data, &tree).evaluate(5, &config);
        assert!(res.stats.io_reads > 0);
        assert_eq!(res.stats.dominators, 1);
        assert_eq!(res.stats.halfspaces_inserted, 3);
        assert_eq!(res.stats.iterations, 1);
    }
}
