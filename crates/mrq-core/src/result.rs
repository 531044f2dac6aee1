//! Result and statistics types shared by every MaxRank algorithm.

use mrq_data::RecordId;
use mrq_geometry::{reduced::expand_query, Region};
use std::time::Duration;

/// One region of the MaxRank / iMaxRank result: a convex cell of the reduced
/// query space together with the order the focal record achieves inside it.
#[derive(Debug, Clone)]
pub struct ResultRegion {
    /// The cell (H-representation + witness) in the reduced query space.
    pub region: Region,
    /// The 1-based order (rank) of the focal record for every query vector in
    /// the region.  Equals `k*` for plain MaxRank regions and lies in
    /// `[k*, k* + τ]` for iMaxRank.
    pub order: usize,
    /// Ids of the incomparable records that outrank the focal record inside
    /// this region (the set `R_c` of the paper).  Dominators are not listed
    /// (they outrank the focal record everywhere); records that were never
    /// accessed by AA are not listed either — the paper reports the region
    /// extents and `k*`, not the full outranking sets.
    pub outranking: Vec<RecordId>,
}

impl ResultRegion {
    /// A representative *full-dimensional* permissible query vector inside the
    /// region (the LP witness expanded back to `d` weights summing to one).
    pub fn representative_query(&self) -> Vec<f64> {
        expand_query(&self.region.witness)
    }
}

/// Execution statistics of one MaxRank evaluation, mirroring the measurements
/// of the paper's Section 8 (CPU time and I/O) plus implementation-level
/// counters that the ablation experiments report.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Wall-clock time of [`MaxRankQuery::evaluate`](crate::MaxRankQuery::evaluate)
    /// (index building excluded).  Zero when an algorithm module's `run` is
    /// called directly.
    pub cpu_time: Duration,
    /// Simulated page accesses charged to the R\*-tree during
    /// [`MaxRankQuery::evaluate`](crate::MaxRankQuery::evaluate) (see
    /// [`mrq_index::iostats`]).  Zero when an algorithm module's `run` is
    /// called directly.
    pub io_reads: u64,
    /// Number of dominators of the focal record (`|D+|`).
    pub dominators: usize,
    /// Number of incomparable records whose half-space was inserted into the
    /// (mixed) arrangement.  For BA this is *all* incomparable records; for AA
    /// it is the (much smaller) number of records surfaced by the skyline.
    pub halfspaces_inserted: usize,
    /// Number of quad-tree leaves processed by the within-leaf module.
    pub leaves_processed: usize,
    /// Number of quad-tree leaves split by the enumeration's frontier.
    pub nodes_split: usize,
    /// Number of half-space/box tests those splits made: each split tests
    /// every half-space of the leaf's `P_l` against every child quadrant
    /// inside the permissible simplex.
    pub box_tests: usize,
    /// Number of candidate cells whose non-emptiness was decided (by the
    /// witness cache or by an LP).
    pub cells_tested: usize,
    /// Number of simplex LPs actually solved by the within-leaf module:
    /// candidate feasibility tests plus the four tiny pair-condition LPs per
    /// half-space pair.  The headline cost metric the witness cache drives
    /// down.
    pub lp_calls: usize,
    /// Number of feasibility decisions answered by a cached witness point
    /// instead of an LP: candidate cells proven non-empty by a whole-pattern
    /// match, plus pairwise-condition combinations proven feasible by a
    /// witness realising the two-row sign combination.
    pub witness_hits: usize,
    /// Number of combination-search subtrees cut by a violated pairwise
    /// condition before their bit-strings were ever generated.
    pub subtrees_pruned: usize,
    /// Number of bit-strings dismissed by the pairwise containment conditions
    /// without an LP call (the optimisation of Section 5.2; every bit-string
    /// inside a cut subtree counts once).
    pub bitstrings_pruned: usize,
    /// Number of expansion decisions skipped by the 2-d event sweep because
    /// the swap at the event cannot bring any interval below the current
    /// candidate threshold (an augmented half-line re-examined across
    /// iterations counts once per iteration it is pruned in).
    pub events_pruned: usize,
    /// Number of AA iterations (always 1 for FCA/BA).
    pub iterations: usize,
}

/// The complete answer of a MaxRank / iMaxRank query.
#[derive(Debug, Clone)]
pub struct MaxRankResult {
    /// Dimensionality of the data (the regions live in `d − 1` dimensions).
    pub dims: usize,
    /// The minimum attainable order `k*` of the focal record.
    pub k_star: usize,
    /// The value of `τ` the query was evaluated with (0 = plain MaxRank).
    pub tau: usize,
    /// All regions where the focal record achieves an order in
    /// `[k*, k* + τ]`.
    pub regions: Vec<ResultRegion>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl MaxRankResult {
    /// Number of result regions (the paper's `|T|`).
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// The regions achieving exactly the optimum `k*` (for iMaxRank results
    /// this filters out the slack regions).
    pub fn optimal_regions(&self) -> impl Iterator<Item = &ResultRegion> {
        let k = self.k_star;
        self.regions.iter().filter(move |r| r.order == k)
    }

    /// Whether a *reduced* query vector is covered by some reported region,
    /// returning the region's order.
    pub fn order_at(&self, reduced_q: &[f64]) -> Option<usize> {
        self.regions
            .iter()
            .filter(|r| r.region.contains(reduced_q))
            .map(|r| r.order)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_geometry::{BoundingBox, CellSpec, HalfSpace};

    fn region(order: usize) -> ResultRegion {
        let spec = CellSpec::new(
            vec![HalfSpace::new(vec![1.0], 0.2 + order as f64 * 0.1)],
            vec![],
            BoundingBox::unit(1),
        );
        ResultRegion {
            region: spec.solve().unwrap(),
            order,
            outranking: vec![],
        }
    }

    #[test]
    fn representative_query_is_permissible() {
        let r = region(3);
        let q = r.representative_query();
        assert_eq!(q.len(), 2);
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(q.iter().all(|w| *w > 0.0));
    }

    #[test]
    fn result_accessors() {
        let res = MaxRankResult {
            dims: 2,
            k_star: 3,
            tau: 1,
            regions: vec![region(3), region(4), region(3)],
            stats: QueryStats::default(),
        };
        assert_eq!(res.region_count(), 3);
        assert_eq!(res.optimal_regions().count(), 2);
    }

    #[test]
    fn order_at_picks_smallest_cover() {
        let res = MaxRankResult {
            dims: 2,
            k_star: 2,
            tau: 3,
            regions: vec![region(2), region(4)],
            stats: QueryStats::default(),
        };
        // 0.9 is inside both regions (x > 0.4 and x > 0.6): the smaller order wins.
        assert_eq!(res.order_at(&[0.9]), Some(2));
        // 0.1 is inside neither.
        assert_eq!(res.order_at(&[0.1]), None);
    }
}
