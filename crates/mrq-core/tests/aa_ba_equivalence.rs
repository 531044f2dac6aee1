//! AA against BA, and each against itself on three threads, on the population
//! of the serving benchmark's `cold_read` workload (IND, n = 1000, d = 3,
//! dataset seed 2015, focals 0–299) at τ ∈ {0, 2}.
//!
//! * **AA and BA** must report the same `k*` and the same arrangement cells:
//!   per cell, its order and the sorted ids of the records outranking the
//!   focal there.  A region is the piece of a cell inside one quad-tree
//!   leaf, and the two algorithms index different half-space sets, so they
//!   cut a cell into different pieces and list its ids in different orders;
//!   the set of cells is what both must agree on.
//! * **AA, and BA, on one and on three threads** must return identical
//!   results: the same regions in the same order, with the same orders,
//!   witnesses, slacks, constraints and outranking ids.  The threads share
//!   one leaf frontier under a lock and split the leaves they pop, so this
//!   also runs as a race regression.  BA is what `auto` runs at d = 3, so
//!   threaded requests reach it by default.

use mrq_core::{Algorithm, MaxRankConfig, MaxRankQuery, MaxRankResult};
use mrq_data::{synthetic, Distribution};
use mrq_index::RStarTree;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::BTreeSet;

/// The distinct arrangement cells of an answer: order and sorted outranking
/// record ids.
fn cells(res: &MaxRankResult) -> BTreeSet<(usize, Vec<u32>)> {
    res.regions
        .iter()
        .map(|r| {
            let mut ids = r.outranking.clone();
            ids.sort_unstable();
            (r.order, ids)
        })
        .collect()
}

/// Everything a result lists: `k*` and every region's order, witness,
/// slack, constraints and outranking ids (`{:?}` prints each float so that
/// it parses back to the same bits).
fn listing(res: &MaxRankResult) -> String {
    format!("{} {:?}", res.k_star, res.regions)
}

#[test]
fn aa_agrees_with_ba_and_each_with_itself_on_three_threads() {
    let mut rng = StdRng::seed_from_u64(2015);
    let data = synthetic::generate(Distribution::Independent, 1000, 3, &mut rng);
    let tree = RStarTree::bulk_load(&data);
    let engine = MaxRankQuery::new(&data, &tree);
    for tau in [0usize, 2] {
        let config = |algorithm, threads| MaxRankConfig {
            tau,
            algorithm,
            threads,
            ..MaxRankConfig::new()
        };
        for focal in 0..300u32 {
            let aa = engine.evaluate(focal, &config(Algorithm::AdvancedApproach, 1));
            let ba = engine.evaluate(focal, &config(Algorithm::BasicApproach, 1));
            let label = format!("focal {focal} τ {tau}");
            assert_eq!(aa.k_star, ba.k_star, "{label}: AA vs BA k*");
            assert_eq!(cells(&aa), cells(&ba), "{label}: AA vs BA cells");
            let threaded = engine.evaluate(focal, &config(Algorithm::AdvancedApproach, 3));
            assert_eq!(
                listing(&aa),
                listing(&threaded),
                "{label}: AA on 1 vs 3 threads"
            );
            let threaded = engine.evaluate(focal, &config(Algorithm::BasicApproach, 3));
            assert_eq!(
                listing(&ba),
                listing(&threaded),
                "{label}: BA on 1 vs 3 threads"
            );
        }
    }
}
