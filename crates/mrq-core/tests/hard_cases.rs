//! Hard d = 3 inputs for the within-leaf enumeration: integer grids full of
//! ties and duplicate records, and records on the focal's score hyperplane.
//!
//! * **Integer grids.**  Each dataset has 30 rows whose coordinates are
//!   `i / L` (`i ∈ 1..=L`, `L = 3 + seed % 4`), plus exact copies of rows 0
//!   and 5, so lines coincide, run through each other's crossings and meet
//!   the leaf boxes at corners.  Seeds 0–39, focals {0, 3, 7, 11, 19}.
//! * **The focal's score hyperplane.**  Most records tie with the focal
//!   under one query vector `q₀`: their half-space boundaries all pass
//!   through `q₀` (for two of the three `q₀` used, a quad-tree box corner),
//!   and records that differ from the focal by multiples of one direction
//!   give duplicate and opposite half-spaces.  Seeds 0–29, focals
//!   {0, 1, 9}.
//!
//! For τ ∈ {0, 2}, BA and AA must report the exhaustive oracle's `k*`, every
//! answer must list at least one region, and every region's witness must
//! attain the region's order by brute force.  At d = 3 the algorithms build
//! cells by polygon clipping and the oracle decides them with LPs, so the
//! two are independent.

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

/// A focal `p` on a grid of eighths, then records `p + δ` with `q₀ · δ = 0`
/// exactly (dyadic coordinates, so no rounding), where `q₀` is the uniform
/// vector or a dyadic one whose reduced point is a quad-tree box corner,
/// then a few grid records off the hyperplane and an exact copy of `p`.
/// Record 0 is `p`; records 1–13 lie on the hyperplane.
fn hyperplane_dataset(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let p: Vec<f64> = (0..3).map(|_| rng.gen_range(3..=5) as f64 / 8.0).collect();
    // Two directions spanning the plane `q₀ · δ = 0`.
    let (u, v): ([f64; 3], [f64; 3]) = match seed % 3 {
        0 => ([1.0, -1.0, 0.0], [0.0, 1.0, -1.0]), // q₀ = (1/3, 1/3, 1/3)
        1 => ([1.0, -1.0, 0.0], [2.0, 0.0, -1.0]), // q₀ = (1/4, 1/4, 1/2)
        _ => ([0.0, 1.0, -1.0], [1.0, -2.0, 0.0]), // q₀ = (1/2, 1/4, 1/4)
    };
    let mut rows = vec![p.clone()];
    while rows.len() < 14 {
        let (a, b) = (rng.gen_range(-3..=3) as f64, rng.gen_range(-3..=3) as f64);
        if a == 0.0 && b == 0.0 {
            continue;
        }
        rows.push(
            (0..3)
                .map(|i| p[i] + (a * u[i] + b * v[i]) / 32.0)
                .collect(),
        );
    }
    for _ in 0..6 {
        rows.push((0..3).map(|_| rng.gen_range(1..=8) as f64 / 8.0).collect());
    }
    rows.push(p);
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

/// BA and AA against the exhaustive oracle for every focal and τ ∈ {0, 2}.
fn check_against_oracle(data: &Dataset, focals: &[u32], case: &str) {
    let tree = RStarTree::bulk_load(data);
    let engine = MaxRankQuery::new(data, &tree);
    for &focal in focals {
        let p = data.record(focal).to_vec();
        for tau in [0usize, 2] {
            let ex = oracle::exhaustive(data, &p, Some(focal), tau);
            check_regions(
                data,
                &p,
                &ex,
                &format!("{case} focal {focal} τ {tau} oracle"),
            );
            for algo in [Algorithm::BasicApproach, Algorithm::AdvancedApproach] {
                let label = format!("{case} focal {focal} τ {tau} {}", algo.name());
                let res = engine.evaluate(
                    focal,
                    &MaxRankConfig {
                        tau,
                        algorithm: algo,
                        ..MaxRankConfig::new()
                    },
                );
                assert_eq!(res.k_star, ex.k_star, "{label} vs oracle");
                check_regions(data, &p, &res, &label);
            }
        }
    }
}

// The exhaustive oracle is most of the cost: about 45 s in release and over
// ten minutes in a debug build, so debug test runs skip these tests and CI
// runs them in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release --test hard_cases"
)]
fn ba_and_aa_match_the_oracle_on_integer_grids_with_duplicates() {
    for seed in 0..40u64 {
        check_against_oracle(
            &grid_dataset(seed),
            &[0, 3, 7, 11, 19],
            &format!("seed {seed}"),
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release only: cargo test --release --test hard_cases"
)]
fn ba_and_aa_match_the_oracle_with_records_on_the_focal_hyperplane() {
    for seed in 0..30u64 {
        let data = hyperplane_dataset(seed);
        check_against_oracle(&data, &[0, 1, 9], &format!("hyperplane seed {seed}"));
    }
}
