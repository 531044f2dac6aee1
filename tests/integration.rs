//! Integration tests spanning the whole workspace: data generation, index
//! construction, MaxRank evaluation with every algorithm, and validation of
//! the answers against independent oracles.

use maxrank::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn build(dist: Distribution, n: usize, d: usize, seed: u64) -> (Dataset, RStarTree) {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = mrq_data::synthetic::generate(dist, n, d, &mut rng);
    let tree = RStarTree::bulk_load(&data);
    (data, tree)
}

#[test]
fn paper_figure1_end_to_end() {
    let data = Dataset::from_rows(
        2,
        &[
            vec![0.8, 0.9],
            vec![0.2, 0.7],
            vec![0.9, 0.4],
            vec![0.7, 0.2],
            vec![0.4, 0.3],
            vec![0.5, 0.5],
        ],
    );
    let tree = RStarTree::bulk_load(&data);
    let engine = MaxRankQuery::new(&data, &tree);
    for algorithm in [
        Algorithm::Auto,
        Algorithm::Fca,
        Algorithm::BasicApproach,
        Algorithm::AdvancedApproach,
        Algorithm::AdvancedApproach2D,
    ] {
        let res = engine.evaluate(5, &MaxRankConfig::new().with_algorithm(algorithm));
        assert_eq!(res.k_star, 3, "{algorithm:?}");
        // All reported witnesses really achieve rank 3.
        for region in &res.regions {
            let q = region.representative_query();
            assert_eq!(data.order_of(&[0.5, 0.5], &q), 3, "{algorithm:?}");
        }
    }
}

#[test]
fn algorithms_agree_across_dimensions_and_distributions() {
    for (d, dist, seed) in [
        (2, Distribution::Independent, 1u64),
        (3, Distribution::Correlated, 2),
        (3, Distribution::AntiCorrelated, 3),
        (4, Distribution::Independent, 4),
    ] {
        let (data, tree) = build(dist, 150, d, seed);
        let engine = MaxRankQuery::new(&data, &tree);
        let mut rng = StdRng::seed_from_u64(seed + 100);
        for _ in 0..3 {
            let focal = rng.gen_range(0..data.len() as u32);
            let aa = engine.evaluate(
                focal,
                &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach),
            );
            let ba = engine.evaluate(
                focal,
                &MaxRankConfig::new().with_algorithm(Algorithm::BasicApproach),
            );
            assert_eq!(aa.k_star, ba.k_star, "d={d} dist={dist:?} focal={focal}");
            // The sampling oracle can never do better than the exact optimum.
            let (sampled, _) = oracle::sampled_min_order(&data, data.record(focal), 3000, &mut rng);
            assert!(sampled >= aa.k_star);
        }
    }
}

#[test]
fn exhaustive_oracle_agrees_on_small_inputs() {
    for d in [2usize, 3, 4] {
        let (data, tree) = build(Distribution::Independent, 30, d, d as u64 * 7);
        let engine = MaxRankQuery::new(&data, &tree);
        // The exhaustive oracle enumerates bit-strings up to weight k*, so it
        // is only tractable for focal records that can rank well; take the
        // three records with the highest attribute sums.
        let mut by_sum: Vec<(f64, u32)> = data
            .iter()
            .map(|(id, r)| (r.iter().sum::<f64>(), id))
            .collect();
        by_sum.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        for &(_, focal) in by_sum.iter().take(3) {
            let fast = engine.evaluate(focal, &MaxRankConfig::new());
            let exact = oracle::exhaustive(&data, data.record(focal), Some(focal), 0);
            assert_eq!(fast.k_star, exact.k_star, "d={d} focal={focal}");
        }
    }
}

#[test]
fn imaxrank_results_are_consistent_supersets() {
    let (data, tree) = build(Distribution::AntiCorrelated, 120, 3, 42);
    let engine = MaxRankQuery::new(&data, &tree);
    let focal = 17u32;
    let mut previous_regions = 0usize;
    for tau in 0..4usize {
        let res = engine.evaluate(focal, &MaxRankConfig::with_tau(tau));
        assert!(res.region_count() >= previous_regions, "τ={tau}");
        previous_regions = res.region_count();
        for region in &res.regions {
            assert!(region.order >= res.k_star && region.order <= res.k_star + tau);
            let q = region.representative_query();
            assert_eq!(data.order_of(data.record(focal), &q), region.order);
        }
    }
}

#[test]
fn query_top_k_and_maxrank_are_mutually_consistent() {
    // If MaxRank says the best attainable rank of p is k*, then (a) p appears
    // in the top-k* result at a witness query vector, and (b) p never appears
    // in any top-(k*-1) result over a large random probe set.
    let (data, tree) = build(Distribution::Independent, 500, 3, 77);
    let engine = MaxRankQuery::new(&data, &tree);
    let focal = 99u32;
    let res = engine.evaluate(focal, &MaxRankConfig::new());
    let witness = res.regions[0].representative_query();
    let at_witness = top_k(&tree, &witness, res.k_star);
    assert!(at_witness.ids.contains(&focal));

    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..500 {
        let mut q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() + 1e-9).collect();
        let s: f64 = q.iter().sum();
        q.iter_mut().for_each(|x| *x /= s);
        if res.k_star > 1 {
            let shortlist = top_k(&tree, &q, res.k_star - 1);
            assert!(
                !shortlist.ids.contains(&focal),
                "p must never crack the top-{}",
                res.k_star - 1
            );
        }
    }
}

#[test]
fn simulated_real_datasets_run_end_to_end() {
    let mut rng = StdRng::seed_from_u64(2015);
    for ds in [RealDataset::Hotel, RealDataset::Nba] {
        let data = ds.generate_scaled(0.002, &mut rng);
        let tree = RStarTree::bulk_load(&data);
        tree.check_invariants().unwrap();
        let engine = MaxRankQuery::new(&data, &tree);
        // A mid-pack focal in 8-d has k* in the tens, which makes the cell
        // enumeration combinatorially infeasible (the paper reports ~1000 s
        // per query at d = 8); take a record from the top of the attribute-sum
        // order so k* stays small, as exhaustive_oracle_agrees_on_small_inputs
        // does.
        let mut by_sum: Vec<(f64, u32)> = data
            .iter()
            .map(|(id, r)| (r.iter().sum::<f64>(), id))
            .collect();
        by_sum.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let focal = by_sum[2].1;
        let res = engine.evaluate(focal, &MaxRankConfig::new());
        assert!(res.k_star >= 1 && res.k_star <= data.len());
        assert!(!res.regions.is_empty());
        for region in res.regions.iter().take(3) {
            let q = region.representative_query();
            assert_eq!(data.order_of(data.record(focal), &q), res.k_star);
        }
    }
}

#[test]
fn incremental_index_matches_bulk_loaded_index() {
    let (data, bulk) = build(Distribution::Correlated, 400, 3, 11);
    let mut incremental = RStarTree::new(3);
    for (id, r) in data.iter() {
        incremental.insert(id, r);
    }
    incremental.check_invariants().unwrap();
    let engine_bulk = MaxRankQuery::new(&data, &bulk);
    let engine_incr = MaxRankQuery::new(&data, &incremental);
    for focal in [5u32, 200, 399] {
        let a = engine_bulk.evaluate(focal, &MaxRankConfig::new());
        let b = engine_incr.evaluate(focal, &MaxRankConfig::new());
        assert_eq!(a.k_star, b.k_star, "focal {focal}");
    }
}

#[test]
fn what_if_improvement_never_hurts() {
    let (data, tree) = build(Distribution::Independent, 300, 4, 123);
    let engine = MaxRankQuery::new(&data, &tree);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..5 {
        let focal = rng.gen_range(0..data.len() as u32);
        let base = engine.evaluate(focal, &MaxRankConfig::new());
        let mut improved = data.record(focal).to_vec();
        let attr = rng.gen_range(0..4usize);
        improved[attr] = (improved[attr] + 0.2).min(1.0);
        let better = engine.evaluate_point(&improved, &MaxRankConfig::new());
        assert!(better.k_star <= base.k_star);
    }
}
