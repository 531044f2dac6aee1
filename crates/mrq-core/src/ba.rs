//! BA — the basic approach for general dimensionality (paper, Section 5).
//!
//! BA reads **every** record incomparable to the focal record, maps each to a
//! half-space of the reduced query space, indexes the half-spaces in the
//! augmented quad-tree and finds the smallest-order cells by processing the
//! quad-tree leaves in increasing `|F_l|` order (Section 5.1), enumerating
//! cells within each surviving leaf by Hamming weight (Section 5.2).
//!
//! BA is exact but reads a large fraction of the dataset; the paper (and our
//! experiments) use it mainly as the baseline that AA is compared against.

use crate::common::{build_result, map_record, trivial_result, HalfSpaceRegistry, MappedHalfSpace};
use crate::result::{MaxRankResult, QueryStats};
use crate::withinleaf::CellEnumerator;
use mrq_data::{Dataset, RecordId};
use mrq_index::RStarTree;
use mrq_quadtree::{HalfSpaceQuadTree, QuadTreeConfig};

/// Tuning knobs shared by BA and AA.
#[derive(Debug, Clone, Copy)]
pub struct AlgoConfig {
    /// Quad-tree configuration; `None` selects the default for the data
    /// dimensionality.
    pub quadtree: Option<QuadTreeConfig>,
    /// Whether the within-leaf module uses the pairwise containment
    /// conditions of Section 5.2 (subject of an ablation experiment).  Steers
    /// the LP path only (d ≥ 4); d = 3 takes the planar path, which has no
    /// candidates to prune.
    pub pair_pruning: bool,
    /// Whether the within-leaf module proves candidate cells non-empty from
    /// cached witness points before resorting to an LP.  The answer is
    /// identical either way (subject of an ablation experiment).  Steers the
    /// LP path only (d ≥ 4); the planar path (d = 3) ignores it.
    pub witness_cache: bool,
    /// Number of threads the within-leaf cell enumeration shards its
    /// candidate-leaf frontier over (1 = sequential).  The answer is
    /// identical for any value; only wall-clock time changes.
    pub threads: usize,
}

impl Default for AlgoConfig {
    fn default() -> Self {
        Self {
            quadtree: None,
            pair_pruning: true,
            witness_cache: true,
            threads: 1,
        }
    }
}

impl AlgoConfig {
    /// The within-leaf enumeration options this configuration selects.
    pub(crate) fn cell_enum_options(&self) -> crate::withinleaf::CellEnumOptions {
        crate::withinleaf::CellEnumOptions {
            pair_pruning: self.pair_pruning,
            witness_cache: self.witness_cache,
            threads: self.threads.max(1),
        }
    }
}

/// Runs BA for a focal record identified by id.
pub fn run(
    data: &Dataset,
    tree: &RStarTree,
    focal_id: RecordId,
    tau: usize,
    config: &AlgoConfig,
) -> MaxRankResult {
    let p = data.record(focal_id).to_vec();
    run_point(data, tree, &p, Some(focal_id), tau, config)
}

/// Runs BA for an arbitrary focal point.
pub fn run_point(
    data: &Dataset,
    tree: &RStarTree,
    p: &[f64],
    focal_id: Option<RecordId>,
    tau: usize,
    config: &AlgoConfig,
) -> MaxRankResult {
    let d = data.dims();
    assert_eq!(p.len(), d);
    assert!(d >= 2);
    let mut stats = QueryStats {
        iterations: 1,
        ..QueryStats::default()
    };

    let dominators = tree.count_dominators(p, focal_id) as usize;
    stats.dominators = dominators;

    // BA's defining characteristic: access every incomparable record.
    let incomparable = tree.incomparable_ids(p, focal_id);

    let qt_config = config
        .quadtree
        .unwrap_or_else(|| QuadTreeConfig::for_reduced_dims(d - 1));
    let mut qt = HalfSpaceQuadTree::with_config(d - 1, qt_config);
    let mut registry = HalfSpaceRegistry::default();
    let mut always_above = 0usize;
    for &id in &incomparable {
        match map_record(data.record(id), p) {
            MappedHalfSpace::Usable(h) => {
                let hid = qt.insert(h);
                registry.push(hid, id);
            }
            MappedHalfSpace::AlwaysAbove => always_above += 1,
            MappedHalfSpace::NeverAbove => {}
        }
    }
    stats.halfspaces_inserted = registry.len();
    let base = dominators + always_above;

    if qt.halfspace_count() == 0 {
        return trivial_result(d, base, tau, stats);
    }

    let (cells, _) = CellEnumerator::new().enumerate(
        &mut qt,
        None,
        tau,
        &config.cell_enum_options(),
        &mut stats,
    );
    build_result(d, base, tau, cells, &registry, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_data::{synthetic, Distribution};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn figure1_3d_like() -> (Dataset, RStarTree) {
        let data = Dataset::from_rows(
            3,
            &[
                vec![0.5, 0.5, 0.5], // 0: focal
                vec![0.9, 0.6, 0.7], // 1: dominator
                vec![0.8, 0.3, 0.6], // 2: incomparable
                vec![0.2, 0.9, 0.4], // 3: incomparable
                vec![0.6, 0.4, 0.9], // 4: incomparable
                vec![0.3, 0.2, 0.1], // 5: dominee
                vec![0.4, 0.8, 0.2], // 6: incomparable
            ],
        );
        let tree = RStarTree::bulk_load(&data);
        (data, tree)
    }

    #[test]
    fn witness_orders_match_dataset() {
        let (data, tree) = figure1_3d_like();
        let res = run(&data, &tree, 0, 0, &AlgoConfig::default());
        assert!(
            res.k_star >= 2,
            "a dominator forces k* ≥ 2, got {}",
            res.k_star
        );
        assert!(!res.regions.is_empty());
        for region in &res.regions {
            let q = region.representative_query();
            assert_eq!(data.order_of(data.record(0), &q), res.k_star);
        }
    }

    #[test]
    fn k_star_bounded_by_sampling_and_achieved_by_witnesses() {
        // Sampling many query vectors gives an upper bound on k* (it can
        // never find a better rank than the true optimum), while the region
        // witnesses certify that k* is actually attainable.  Together the two
        // pin k* from both sides without relying on the sample hitting the
        // (possibly tiny) optimal region.
        let mut rng = StdRng::seed_from_u64(77);
        let data = synthetic::generate(Distribution::Independent, 60, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        for focal in [0u32, 7, 23] {
            let res = run(&data, &tree, focal, 0, &AlgoConfig::default());
            let p = data.record(focal);
            let mut best = usize::MAX;
            for _ in 0..20_000 {
                let mut q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() + 1e-6).collect();
                let s: f64 = q.iter().sum();
                q.iter_mut().for_each(|x| *x /= s);
                best = best.min(data.order_of(p, &q));
            }
            assert!(
                best >= res.k_star,
                "sampling found {best} < k* {} (focal {focal})",
                res.k_star
            );
            for region in &res.regions {
                let q = region.representative_query();
                assert_eq!(data.order_of(p, &q), res.k_star, "focal {focal}");
            }
        }
    }

    #[test]
    fn imaxrank_regions_cover_slack_orders() {
        let (data, tree) = figure1_3d_like();
        let tau = 2;
        let res = run(&data, &tree, 0, tau, &AlgoConfig::default());
        assert!(res
            .regions
            .iter()
            .all(|r| r.order >= res.k_star && r.order <= res.k_star + tau));
        // Every region's witness must achieve exactly the region's order.
        for region in &res.regions {
            let q = region.representative_query();
            assert_eq!(data.order_of(data.record(0), &q), region.order);
        }
        // iMaxRank returns at least as many regions as MaxRank.
        let plain = run(&data, &tree, 0, 0, &AlgoConfig::default());
        assert!(res.region_count() >= plain.region_count());
    }

    #[test]
    fn dominating_focal_point_is_rank_one() {
        let (data, tree) = figure1_3d_like();
        let res = run_point(
            &data,
            &tree,
            &[0.99, 0.99, 0.99],
            None,
            0,
            &AlgoConfig::default(),
        );
        assert_eq!(res.k_star, 1);
        assert_eq!(res.region_count(), 1);
    }

    #[test]
    fn pair_pruning_does_not_change_answer() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = synthetic::generate(Distribution::AntiCorrelated, 80, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let with = run(
            &data,
            &tree,
            3,
            1,
            &AlgoConfig {
                pair_pruning: true,
                ..AlgoConfig::default()
            },
        );
        let without = run(
            &data,
            &tree,
            3,
            1,
            &AlgoConfig {
                pair_pruning: false,
                ..AlgoConfig::default()
            },
        );
        assert_eq!(with.k_star, without.k_star);
        assert_eq!(with.region_count(), without.region_count());
    }

    #[test]
    fn threaded_enumeration_does_not_change_answer() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = synthetic::generate(Distribution::AntiCorrelated, 90, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        for focal in [2u32, 31] {
            for tau in [0usize, 2] {
                let seq = run(&data, &tree, focal, tau, &AlgoConfig::default());
                let par = run(
                    &data,
                    &tree,
                    focal,
                    tau,
                    &AlgoConfig {
                        threads: 4,
                        ..AlgoConfig::default()
                    },
                );
                assert_eq!(seq.k_star, par.k_star, "focal {focal} tau {tau}");
                assert_eq!(
                    seq.region_count(),
                    par.region_count(),
                    "focal {focal} tau {tau}"
                );
                let aa_seq = crate::aa::run(&data, &tree, focal, tau, &AlgoConfig::default());
                let aa_par = crate::aa::run(
                    &data,
                    &tree,
                    focal,
                    tau,
                    &AlgoConfig {
                        threads: 4,
                        ..AlgoConfig::default()
                    },
                );
                assert_eq!(aa_seq.k_star, aa_par.k_star, "AA focal {focal} tau {tau}");
                assert_eq!(
                    aa_seq.region_count(),
                    aa_par.region_count(),
                    "AA focal {focal} tau {tau}"
                );
            }
        }
    }

    #[test]
    fn quadtree_config_does_not_change_answer() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = synthetic::generate(Distribution::Independent, 70, 4, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let default_cfg = run(&data, &tree, 11, 0, &AlgoConfig::default());
        let coarse = run(
            &data,
            &tree,
            11,
            0,
            &AlgoConfig {
                quadtree: Some(QuadTreeConfig {
                    split_threshold: 20,
                    max_depth: 3,
                }),
                ..AlgoConfig::default()
            },
        );
        assert_eq!(default_cfg.k_star, coarse.k_star);
    }
}
