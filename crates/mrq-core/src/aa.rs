//! AA — the advanced approach (paper, Section 6).
//!
//! BA's weakness is that it must access *every* incomparable record.  AA
//! avoids this by exploiting dominance among the incomparable records: if `r`
//! dominates `r'`, the half-space of `r'` is contained in the half-space of
//! `r`, so `r'` cannot affect the smallest-order cells unless `r` is already
//! part of them.  AA therefore maintains a **mixed arrangement** of
//!
//! * *singular* half-spaces (records whose dominees have been surfaced), and
//! * *augmented* half-spaces (records that may still implicitly subsume
//!   unseen dominees),
//!
//! and expands augmented half-spaces only when they contain a candidate
//! smallest-order cell.  Which records are subsumed under which is decided
//! *implicitly and dynamically* (Section 6.2) by maintaining the skyline of
//! the not-yet-expanded incomparable records with the incremental BBS of
//! [`mrq_index::bbs`].
//!
//! The iteration below follows Algorithm 1 of the paper, restated as an
//! expansion fix-point so that cells never need to be tracked across
//! iterations:
//!
//! 1. enumerate the cells of the mixed arrangement up to the current bound;
//! 2. cells whose containing half-spaces are all singular are *accurate* —
//!    they lower-bound `o*`;
//! 3. augmented half-spaces containing any still-relevant cell are expanded
//!    (marked singular; their newly surfaced skyline dominees are inserted);
//! 4. stop when nothing is left to expand and the enumeration covered every
//!    order up to `o* + τ`.

use crate::ba::AlgoConfig;
use crate::common::{build_result, trivial_result, HalfSpaceRegistry, Mapped, RecordMapper};
use crate::result::{MaxRankResult, QueryStats};
use crate::withinleaf::{ArrangementCell, CellEnumerator};
use mrq_data::{Dataset, RecordId};
use mrq_index::{IncrementalSkyline, RStarTree};
use mrq_quadtree::{HalfSpaceId, HalfSpaceQuadTree, QuadTreeConfig};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Runs AA for a focal record identified by id.
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

/// Runs AA for an arbitrary focal point.
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
    let mut stats = QueryStats::default();

    let dominators = tree.count_dominators(p, focal_id) as usize;
    stats.dominators = dominators;

    let qt_config = config
        .quadtree
        .unwrap_or_else(|| QuadTreeConfig::for_reduced_dims(d - 1));
    let mut state = AaState {
        data,
        mapper: RecordMapper::new(p),
        skyline: IncrementalSkyline::new(tree, p, focal_id),
        qt: HalfSpaceQuadTree::with_config(d - 1, qt_config),
        registry: HalfSpaceRegistry::default(),
        singular: HashSet::new(),
        always_above: 0,
    };

    // Seed the mixed arrangement with the skyline of the incomparable records
    // (all half-spaces start out augmented).
    let initial: Vec<RecordId> = state.skyline.skyline().iter().map(|(id, _)| *id).collect();
    state.insert_records(initial);

    let base = dominators + state.always_above;
    if state.qt.halfspace_count() == 0 {
        stats.iterations = 1;
        return trivial_result(d, base, tau, stats);
    }

    let mut o_star: Option<usize> = None;
    let mut enumerator = CellEnumerator::new();
    let final_cells: Vec<ArrangementCell>;
    loop {
        stats.iterations += 1;
        let hard_limit = o_star.map(|o| o + tau);
        let (cells, effective_limit) = enumerator.enumerate(
            &mut state.qt,
            hard_limit,
            tau,
            &config.cell_enum_options(),
            &mut stats,
        );
        if cells.is_empty() {
            // Defensive: with at least one half-space the arrangement always
            // has a full-dimensional cell; numerical degeneracy could in
            // principle filter everything, in which case we fall back to the
            // trivial description.
            final_cells = cells;
            break;
        }
        let min_order = cells.iter().map(|c| c.order).min().expect("non-empty");
        // Accurate cells (all containing half-spaces singular) tighten o*.
        for c in &cells {
            if c.containing_ids().all(|id| state.singular.contains(&id)) {
                o_star = Some(o_star.map_or(c.order, |o| o.min(c.order)));
            }
        }
        let threshold = o_star
            .unwrap_or(usize::MAX)
            .min(min_order)
            .saturating_add(tau);
        let mut expand: BTreeSet<HalfSpaceId> = BTreeSet::new();
        for c in cells.iter().filter(|c| c.order <= threshold) {
            for id in c.containing_ids() {
                if !state.singular.contains(&id) {
                    expand.insert(id);
                }
            }
        }
        if expand.is_empty() {
            match o_star {
                Some(o) if effective_limit >= o + tau => {
                    final_cells = cells;
                    break;
                }
                Some(_) => continue, // re-enumerate with the full bound next round
                None => {
                    final_cells = cells;
                    break;
                }
            }
        }
        for hid in expand {
            state.expand_halfspace(hid);
        }
    }

    let base = dominators + state.always_above;
    stats.halfspaces_inserted = state.registry.len();
    if final_cells.is_empty() {
        return trivial_result(d, base, tau, stats);
    }
    let accurate: Vec<ArrangementCell> = final_cells
        .into_iter()
        .filter(|c| c.containing_ids().all(|id| state.singular.contains(&id)))
        .collect();
    build_result(d, base, tau, accurate, &state.registry, stats)
}

/// Mutable state of one AA evaluation.
struct AaState<'a> {
    data: &'a Dataset,
    mapper: RecordMapper<'a>,
    skyline: IncrementalSkyline<'a>,
    qt: HalfSpaceQuadTree,
    registry: HalfSpaceRegistry,
    /// Half-spaces whose record has been expanded (no longer subsuming).
    singular: HashSet<HalfSpaceId>,
    /// Incomparable records that (numerically) outrank the focal record for
    /// every permissible query vector.
    always_above: usize,
}

impl<'a> AaState<'a> {
    /// Inserts the half-spaces of newly surfaced skyline records, transitively
    /// expanding any record whose half-space degenerates to "always above".
    fn insert_records(&mut self, records: Vec<RecordId>) {
        let mut queue: VecDeque<RecordId> = records.into();
        while let Some(rid) = queue.pop_front() {
            match self.mapper.map(self.data.record(rid)) {
                Mapped::Usable(row, rhs) => self.registry.push(self.qt.insert_row(row, rhs), rid),
                Mapped::AlwaysAbove => {
                    // Counts like a dominator; its dominees must still surface.
                    self.always_above += 1;
                    queue.extend(self.skyline.expand(rid).iter().map(|(id, _)| *id));
                }
                Mapped::NeverAbove => {
                    // Never outranks the focal record; its dominees are
                    // contained in an empty half-space and are irrelevant too.
                }
            }
        }
    }

    /// Expands an augmented half-space: marks it singular, removes its record
    /// from the skyline and inserts the half-spaces of the records it was
    /// implicitly subsuming.
    fn expand_halfspace(&mut self, hid: HalfSpaceId) {
        self.singular.insert(hid);
        let rid = self.registry.record(hid);
        let newly = self.skyline.expand(rid).iter().map(|(id, _)| *id).collect();
        self.insert_records(newly);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ba, Algorithm, MaxRankConfig, MaxRankQuery};
    use mrq_data::{synthetic, Distribution};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_dataset(n: usize, d: usize, dist: Distribution, seed: u64) -> (Dataset, RStarTree) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = synthetic::generate(dist, n, d, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        (data, tree)
    }

    #[test]
    fn aa_matches_ba_small_3d() {
        let (data, tree) = random_dataset(120, 3, Distribution::Independent, 100);
        for focal in [0u32, 13, 59, 99] {
            let aa = run(&data, &tree, focal, 0, &AlgoConfig::default());
            let ba = ba::run(&data, &tree, focal, 0, &AlgoConfig::default());
            assert_eq!(aa.k_star, ba.k_star, "focal {focal}");
            for region in &aa.regions {
                let q = region.representative_query();
                assert_eq!(data.order_of(data.record(focal), &q), aa.k_star);
            }
        }
    }

    #[test]
    fn aa_matches_ba_anticorrelated_4d() {
        let (data, tree) = random_dataset(90, 4, Distribution::AntiCorrelated, 200);
        for focal in [5u32, 44] {
            let aa = run(&data, &tree, focal, 0, &AlgoConfig::default());
            let ba = ba::run(&data, &tree, focal, 0, &AlgoConfig::default());
            assert_eq!(aa.k_star, ba.k_star, "focal {focal}");
        }
    }

    #[test]
    fn aa_imaxrank_matches_ba() {
        let (data, tree) = random_dataset(80, 3, Distribution::Correlated, 300);
        for tau in [1usize, 3] {
            let aa = run(&data, &tree, 7, tau, &AlgoConfig::default());
            let ba = ba::run(&data, &tree, 7, tau, &AlgoConfig::default());
            assert_eq!(aa.k_star, ba.k_star, "tau {tau}");
            // Region witnesses must achieve the region order, and orders stay
            // within [k*, k*+tau].
            for region in &aa.regions {
                assert!(region.order >= aa.k_star && region.order <= aa.k_star + tau);
                let q = region.representative_query();
                assert_eq!(data.order_of(data.record(7), &q), region.order);
            }
        }
    }

    #[test]
    fn aa_accesses_fewer_records_than_ba() {
        let (data, tree) = random_dataset(1200, 3, Distribution::Independent, 400);
        let focal = 11u32;
        let engine = MaxRankQuery::new(&data, &tree);
        let aa = engine.evaluate(
            focal,
            &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach),
        );
        let ba = engine.evaluate(
            focal,
            &MaxRankConfig::new().with_algorithm(Algorithm::BasicApproach),
        );
        assert_eq!(aa.k_star, ba.k_star);
        assert!(
            aa.stats.halfspaces_inserted < ba.stats.halfspaces_inserted / 2,
            "AA inserted {} half-spaces, BA {}",
            aa.stats.halfspaces_inserted,
            ba.stats.halfspaces_inserted
        );
        assert!(
            aa.stats.io_reads < ba.stats.io_reads,
            "AA I/O {} must be below BA I/O {}",
            aa.stats.io_reads,
            ba.stats.io_reads
        );
    }

    #[test]
    fn aa_witnesses_are_optimal_larger_instance() {
        let (data, tree) = random_dataset(2000, 3, Distribution::Independent, 500);
        let focal = 123u32;
        let aa = run(&data, &tree, focal, 0, &AlgoConfig::default());
        let p = data.record(focal);
        // Sampling cannot beat k*.
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            let mut q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() + 1e-6).collect();
            let s: f64 = q.iter().sum();
            q.iter_mut().for_each(|x| *x /= s);
            assert!(data.order_of(p, &q) >= aa.k_star);
        }
        // And the witnesses achieve it.
        for region in &aa.regions {
            let q = region.representative_query();
            assert_eq!(data.order_of(p, &q), aa.k_star);
        }
    }

    #[test]
    fn aa_handles_top_and_bottom_focal_points() {
        let (data, tree) = random_dataset(500, 3, Distribution::Independent, 600);
        let best = run_point(
            &data,
            &tree,
            &[0.999, 0.999, 0.999],
            None,
            0,
            &AlgoConfig::default(),
        );
        assert_eq!(best.k_star, 1);
        let worst = run_point(
            &data,
            &tree,
            &[0.001, 0.001, 0.001],
            None,
            0,
            &AlgoConfig::default(),
        );
        assert!(worst.k_star > 400, "k* = {}", worst.k_star);
    }
}
