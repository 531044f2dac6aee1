//! Cross-crate property-based tests: for random datasets and focal records,
//! the MaxRank algorithms must agree with each other and with independent
//! oracles.

use maxrank::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn dataset_strategy(d: usize, max_n: usize) -> impl Strategy<Value = (Dataset, u32)> {
    (10usize..max_n, any::<u64>()).prop_map(move |(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let dist = match seed % 3 {
            0 => Distribution::Independent,
            1 => Distribution::Correlated,
            _ => Distribution::AntiCorrelated,
        };
        let data = mrq_data::synthetic::generate(dist, n, d, &mut rng);
        let focal = (seed % n as u64) as u32;
        (data, focal)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// In 2-d, FCA, the specialised AA and the general (quad-tree) AA agree
    /// on k* and their witnesses achieve it.
    #[test]
    fn d2_algorithms_agree((data, focal) in dataset_strategy(2, 120)) {
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        let fca = engine.evaluate(focal, &MaxRankConfig::new().with_algorithm(Algorithm::Fca));
        let aa2d = engine.evaluate(focal, &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach2D));
        let aa = engine.evaluate(focal, &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach));
        prop_assert_eq!(fca.k_star, aa2d.k_star);
        prop_assert_eq!(fca.k_star, aa.k_star);
        let p = data.record(focal);
        for region in aa2d.regions.iter().chain(&aa.regions).chain(&fca.regions) {
            let q = region.representative_query();
            prop_assert_eq!(data.order_of(p, &q), region.order);
        }
    }

    /// In 3-d, BA and AA agree with each other, their witnesses achieve k*,
    /// and no sampled query vector ever achieves a better order than k*.
    #[test]
    fn d3_exact_and_bounded((data, focal) in dataset_strategy(3, 60)) {
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        let aa = engine.evaluate(focal, &MaxRankConfig::new().with_algorithm(Algorithm::AdvancedApproach));
        let ba = engine.evaluate(focal, &MaxRankConfig::new().with_algorithm(Algorithm::BasicApproach));
        prop_assert_eq!(aa.k_star, ba.k_star);
        let p = data.record(focal);
        for region in aa.regions.iter().chain(&ba.regions) {
            let q = region.representative_query();
            prop_assert_eq!(data.order_of(p, &q), aa.k_star);
        }
        let mut rng = StdRng::seed_from_u64(focal as u64);
        let (sampled, _) = oracle::sampled_min_order(&data, p, 2000, &mut rng);
        prop_assert!(sampled >= aa.k_star);
    }

    /// iMaxRank region orders always lie in [k*, k*+tau] and every region
    /// witness achieves exactly its region's order (any dimension 2..4).
    #[test]
    fn imaxrank_region_invariants(
        (data, focal) in dataset_strategy(3, 80),
        tau in 0usize..3,
    ) {
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        let res = engine.evaluate(focal, &MaxRankConfig::with_tau(tau));
        prop_assert!(!res.regions.is_empty());
        let p = data.record(focal);
        for region in &res.regions {
            prop_assert!(region.order >= res.k_star);
            prop_assert!(region.order <= res.k_star + tau);
            let q = region.representative_query();
            prop_assert_eq!(data.order_of(p, &q), region.order);
            // The representative query must be permissible.
            prop_assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(q.iter().all(|w| *w > 0.0));
        }
    }

    /// k* is monotone under component-wise improvement of the focal point.
    #[test]
    fn improving_attributes_never_hurts((data, focal) in dataset_strategy(4, 80), attr in 0usize..4) {
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        let base = engine.evaluate(focal, &MaxRankConfig::new());
        let mut improved = data.record(focal).to_vec();
        improved[attr] = (improved[attr] + 0.3).min(1.0);
        let better = engine.evaluate_point(&improved, &MaxRankConfig::new());
        prop_assert!(better.k_star <= base.k_star);
    }
}
