//! Reference implementations used for validation.
//!
//! * [`sampled_min_order`] — evaluates the focal record's order at many
//!   random permissible query vectors; the minimum is an upper bound on `k*`
//!   that converges to `k*` as the sample grows (used as a sanity check).
//! * [`exhaustive`] — enumerates the cells of the *complete* arrangement of
//!   all incomparable half-spaces over the whole permissible simplex, without
//!   any quad-tree partitioning or subsumption.  Exponential in the worst
//!   case, but exact; only suitable for small inputs and used to validate BA
//!   and AA in the test-suite.

use crate::common::{build_result, trivial_result, HalfSpaceRegistry, Mapped, RecordMapper};
use crate::result::{MaxRankResult, QueryStats};
use crate::withinleaf::{process_leaf, ArrangementCell};
use mrq_data::{partition_by_focal, Dataset, RecordId};
use mrq_geometry::{reduced_simplex_constraint, BoundingBox, HalfSpace};
use rand::Rng;
use std::time::Instant;

/// Samples `samples` permissible query vectors uniformly (by normalising
/// positive uniforms) and returns the smallest observed order of `p` together
/// with the query vector achieving it.
pub fn sampled_min_order<R: Rng>(
    data: &Dataset,
    p: &[f64],
    samples: usize,
    rng: &mut R,
) -> (usize, Vec<f64>) {
    assert!(samples > 0);
    let d = data.dims();
    let mut best = usize::MAX;
    let mut best_q = vec![1.0 / d as f64; d];
    for _ in 0..samples {
        let mut q: Vec<f64> = (0..d).map(|_| rng.gen::<f64>() + 1e-9).collect();
        let s: f64 = q.iter().sum();
        q.iter_mut().for_each(|x| *x /= s);
        let order = data.order_of(p, &q);
        if order < best {
            best = order;
            best_q = q;
        }
    }
    (best, best_q)
}

/// Exact MaxRank / iMaxRank by exhaustive cell enumeration over the complete
/// arrangement (no index, no pruning beyond Hamming-weight ordering).
///
/// Intended for validation on small datasets; the cost grows combinatorially
/// with the number of incomparable records **and** with `k*` (all bit-strings
/// of Hamming weight up to the answer are enumerated), so callers should use
/// it only for focal records that can rank well.
pub fn exhaustive(
    data: &Dataset,
    p: &[f64],
    focal_id: Option<RecordId>,
    tau: usize,
) -> MaxRankResult {
    let d = data.dims();
    assert_eq!(p.len(), d);
    let start = Instant::now();
    let mut stats = QueryStats {
        iterations: 1,
        ..QueryStats::default()
    };

    let part = partition_by_focal(data, p, focal_id);
    stats.dominators = part.dominators.len();
    let mut registry = HalfSpaceRegistry::default();
    let mut halfspaces: Vec<(u32, HalfSpace)> = Vec::with_capacity(part.incomparable.len());
    let mut always_above = 0usize;
    let mut mapper = RecordMapper::new(p);
    for &id in &part.incomparable {
        match mapper.map(data.record(id)) {
            Mapped::Usable(row, rhs) => {
                let hid = halfspaces.len() as u32;
                registry.push(hid, id);
                halfspaces.push((hid, HalfSpace::new(row.to_vec(), rhs)));
            }
            Mapped::AlwaysAbove => always_above += 1,
            Mapped::NeverAbove => {}
        }
    }
    stats.halfspaces_inserted = halfspaces.len();
    let base = part.dominators.len() + always_above;
    if halfspaces.is_empty() {
        stats.cpu_time = start.elapsed();
        return trivial_result(d, base, tau, stats);
    }

    let simplex = reduced_simplex_constraint(d);
    let bounds = BoundingBox::unit(d - 1);
    stats.leaves_processed = 1;
    // Every fast-path knob off: the oracle must stay on the plain
    // per-candidate LP filter so it remains an *independent* reference for
    // the witness-cache / implication-walker machinery it validates (the
    // oracle's inputs are tiny, so the blind path costs nothing here).
    let cells = process_leaf(
        &bounds,
        &halfspaces,
        &simplex,
        usize::MAX,
        tau,
        &crate::withinleaf::CellEnumOptions {
            pair_pruning: false,
            witness_cache: false,
            threads: 1,
        },
        &mut stats,
    );
    let cells: Vec<ArrangementCell> = cells
        .into_iter()
        .map(|c| ArrangementCell {
            order: c.p_order,
            full: Vec::new(),
            inside_partial: c.inside,
            region: c.region,
        })
        .collect();
    let mut result = build_result(d, base, tau, cells, &registry, stats);
    result.stats.cpu_time = start.elapsed();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ba::{self, AlgoConfig};
    use crate::{aa, fca};
    use mrq_data::{synthetic, Distribution};
    use mrq_index::RStarTree;
    use rand::{rngs::StdRng, SeedableRng};

    /// Focal records whose best attainable rank is small keep the exhaustive
    /// enumeration tractable (its cost is combinatorial in the first
    /// non-empty Hamming weight, i.e. in `k*`).
    fn well_ranked_focals(data: &mrq_data::Dataset, count: usize) -> Vec<u32> {
        let mut by_sum: Vec<(f64, u32)> = data
            .iter()
            .map(|(id, r)| (r.iter().sum::<f64>(), id))
            .collect();
        by_sum.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        by_sum.into_iter().take(count).map(|(_, id)| id).collect()
    }

    #[test]
    fn exhaustive_matches_fca_in_2d() {
        let mut rng = StdRng::seed_from_u64(31);
        let data = synthetic::generate(Distribution::Independent, 40, 2, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        for focal in well_ranked_focals(&data, 4) {
            let ex = exhaustive(&data, data.record(focal), Some(focal), 0);
            let fc = fca::run(&data, &tree, focal, 0);
            assert_eq!(ex.k_star, fc.k_star, "focal {focal}");
        }
    }

    #[test]
    fn exhaustive_matches_ba_and_aa_in_3d() {
        let mut rng = StdRng::seed_from_u64(37);
        let data = synthetic::generate(Distribution::AntiCorrelated, 35, 3, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        for focal in well_ranked_focals(&data, 3) {
            let p = data.record(focal).to_vec();
            let ex = exhaustive(&data, &p, Some(focal), 0);
            let b = ba::run(&data, &tree, focal, 0, &AlgoConfig::default());
            let a = aa::run(&data, &tree, focal, 0, &AlgoConfig::default());
            assert_eq!(ex.k_star, b.k_star, "focal {focal}");
            assert_eq!(ex.k_star, a.k_star, "focal {focal}");
        }
    }

    #[test]
    fn sampling_never_beats_exact() {
        let mut rng = StdRng::seed_from_u64(41);
        let data = synthetic::generate(Distribution::Independent, 50, 4, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        let focal = 7u32;
        let exact = ba::run(&data, &tree, focal, 0, &AlgoConfig::default());
        let (sampled, q) = sampled_min_order(&data, data.record(focal), 30_000, &mut rng);
        assert!(sampled >= exact.k_star);
        assert_eq!(data.order_of(data.record(focal), &q), sampled);
        // With this many samples on 4-d data the bound is usually tight.
        assert!(
            sampled <= exact.k_star + 1,
            "sampled {sampled} vs exact {}",
            exact.k_star
        );
    }

    #[test]
    fn exhaustive_imaxrank_region_orders_verified() {
        let mut rng = StdRng::seed_from_u64(43);
        let data = synthetic::generate(Distribution::Independent, 30, 3, &mut rng);
        let focal = well_ranked_focals(&data, 1)[0];
        let p = data.record(focal).to_vec();
        let res = exhaustive(&data, &p, Some(focal), 2);
        assert!(!res.regions.is_empty());
        for region in &res.regions {
            let q = region.representative_query();
            assert_eq!(data.order_of(&p, &q), region.order);
            assert!(region.order <= res.k_star + 2);
        }
    }
}
