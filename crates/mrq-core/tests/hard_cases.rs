//! Hard d = 3 inputs for the within-leaf enumeration: integer grids full of
//! ties and duplicate records.
//!
//! Each dataset has 30 rows whose coordinates are `i / L` (`i ∈ 1..=L`,
//! `L = 3 + seed % 4`), plus exact copies of rows 0 and 5, so lines coincide,
//! run through each other's crossings and meet the leaf boxes at corners.
//! For seeds 0–39, focals {0, 3, 7, 11, 19} and τ ∈ {0, 2}, BA and AA must
//! report the exhaustive oracle's `k*`, every answer must list at least one
//! region, and every region's witness must attain the region's order by
//! brute force.  At d = 3 the algorithms build cells by polygon clipping and
//! the oracle decides them with LPs, so the two are independent.

use mrq_core::oracle;
use mrq_core::{Algorithm, MaxRankConfig, MaxRankQuery, MaxRankResult};
use mrq_data::Dataset;
use mrq_index::RStarTree;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn grid_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let l = 3 + seed % 4;
    let mut rows: Vec<Vec<f64>> = (0..30)
        .map(|_| {
            (0..3)
                .map(|_| rng.gen_range(1..=l) as f64 / l as f64)
                .collect()
        })
        .collect();
    rows.push(rows[0].clone());
    rows.push(rows[5].clone());
    Dataset::from_rows(3, &rows)
}

/// Every region is listed, and its witness attains the region's order.
fn check_regions(data: &Dataset, p: &[f64], res: &MaxRankResult, label: &str) {
    assert!(
        !res.regions.is_empty(),
        "{label}: k* {} with no region",
        res.k_star
    );
    for r in &res.regions {
        let q = r.representative_query();
        assert_eq!(
            data.order_of(p, &q),
            r.order,
            "{label}: witness {:?} of an order-{} region",
            r.region.witness,
            r.order
        );
    }
}

// The exhaustive oracle is most of the cost: about 30 s in release and over
// ten minutes in a debug build, so debug test runs skip this test and CI
// runs it in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release --test hard_cases"
)]
fn ba_and_aa_match_the_oracle_on_integer_grids_with_duplicates() {
    for seed in 0..40u64 {
        let data = grid_dataset(seed);
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        for focal in [0u32, 3, 7, 11, 19] {
            let p = data.record(focal).to_vec();
            for tau in [0usize, 2] {
                let ex = oracle::exhaustive(&data, &p, Some(focal), tau);
                check_regions(
                    &data,
                    &p,
                    &ex,
                    &format!("seed {seed} focal {focal} τ {tau} oracle"),
                );
                for algo in [Algorithm::BasicApproach, Algorithm::AdvancedApproach] {
                    let label = format!("seed {seed} focal {focal} τ {tau} {}", algo.name());
                    let res = engine.evaluate(
                        focal,
                        &MaxRankConfig {
                            tau,
                            algorithm: algo,
                            ..MaxRankConfig::new()
                        },
                    );
                    assert_eq!(res.k_star, ex.k_star, "{label} vs oracle");
                    check_regions(&data, &p, &res, &label);
                }
            }
        }
    }
}
