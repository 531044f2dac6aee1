//! Differential test harness: one table-driven runner that pits every
//! applicable algorithm (FCA / BA / AA / AA2D) against the reference oracles
//! (`oracle::exhaustive`, `oracle::sampled_min_order`) and against each other,
//! across seeded IND / COR / ANTI datasets, τ ∈ {0, 2}, and both focal kinds
//! (a record of the dataset, and an arbitrary "what-if" point).
//!
//! This replaces the ad-hoc per-module `matches_fca_*` tests: every algorithm
//! pair goes through the same checks, so a divergence anywhere in the stack
//! (sweep, quad-tree, within-leaf enumeration, skyline subsumption) fails
//! with a case label identifying dataset, focal and τ.
//!
//! Checks per case:
//!
//! * every algorithm reports the same `k*`;
//! * grid ground truth: at a dense grid of reduced query vectors, each
//!   algorithm's reported coverage (`order_at`) must equal the brute-force
//!   order whenever that order is within `k* + τ`, and report nothing there
//!   otherwise (grid points within numerical tolerance of a region boundary
//!   are skipped — regions are open sets);
//! * `oracle::exhaustive` (small inputs only) agrees on `k*`;
//! * `oracle::sampled_min_order` never beats `k*` (it is an upper bound);
//! * every region's representative query achieves exactly the region's
//!   order, and orders stay within `[k*, k* + τ]`;
//! * skyband cross-check (`mrq_index::k_skyband_incomparable`): a record
//!   listed as outranking inside a region of rank `k` is accompanied there by
//!   all of its incomparable dominators, so it must belong to the
//!   `(k − |D⁺| − 1)`-skyband of the incomparable records.

use mrq_core::oracle;
use mrq_core::{Algorithm, MaxRankConfig, MaxRankQuery, MaxRankResult};
use mrq_data::{synthetic, Dataset, Distribution};
use mrq_index::{k_skyband_incomparable, RStarTree};
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashSet;

/// Which focal the case evaluates.
#[derive(Debug, Clone, Copy)]
enum Focal {
    /// A record of the dataset, picked among the best-ranked ones so the
    /// exhaustive oracle stays tractable (its cost is combinatorial in `k*`).
    WellRankedRecord(usize),
    /// An arbitrary point that does not belong to the dataset.
    Point([f64; 2]),
}

struct Case {
    label: &'static str,
    dist: Distribution,
    n: usize,
    d: usize,
    seed: u64,
    tau: usize,
    focal: Focal,
    /// Run the exhaustive oracle (exponential — small inputs only).
    exhaustive: bool,
}

const CASES: &[Case] = &[
    // --- 2-d: all four algorithms + both oracles ---
    Case {
        label: "ind-2d-record-tau0",
        dist: Distribution::Independent,
        n: 50,
        d: 2,
        seed: 101,
        tau: 0,
        focal: Focal::WellRankedRecord(2),
        exhaustive: true,
    },
    Case {
        label: "cor-2d-record-tau0",
        dist: Distribution::Correlated,
        n: 50,
        d: 2,
        seed: 102,
        tau: 0,
        focal: Focal::WellRankedRecord(1),
        exhaustive: true,
    },
    Case {
        label: "anti-2d-record-tau0",
        dist: Distribution::AntiCorrelated,
        n: 50,
        d: 2,
        seed: 103,
        tau: 0,
        focal: Focal::WellRankedRecord(3),
        exhaustive: true,
    },
    Case {
        label: "ind-2d-record-tau2",
        dist: Distribution::Independent,
        n: 45,
        d: 2,
        seed: 104,
        tau: 2,
        focal: Focal::WellRankedRecord(0),
        exhaustive: true,
    },
    Case {
        label: "anti-2d-record-tau2",
        dist: Distribution::AntiCorrelated,
        n: 45,
        d: 2,
        seed: 105,
        tau: 2,
        focal: Focal::WellRankedRecord(2),
        exhaustive: true,
    },
    Case {
        label: "ind-2d-point-tau0",
        dist: Distribution::Independent,
        n: 50,
        d: 2,
        seed: 106,
        tau: 0,
        focal: Focal::Point([0.72, 0.55]),
        exhaustive: true,
    },
    Case {
        label: "cor-2d-point-tau2",
        dist: Distribution::Correlated,
        n: 45,
        d: 2,
        seed: 107,
        tau: 2,
        focal: Focal::Point([0.6, 0.62]),
        exhaustive: true,
    },
    // --- 2-d at a scale the exhaustive oracle cannot reach: the algorithms
    // (and the sampling oracle) still cross-check each other ---
    Case {
        label: "ind-2d-record-tau0-large",
        dist: Distribution::Independent,
        n: 900,
        d: 2,
        seed: 108,
        tau: 0,
        focal: Focal::WellRankedRecord(40),
        exhaustive: false,
    },
    Case {
        label: "anti-2d-record-tau2-large",
        dist: Distribution::AntiCorrelated,
        n: 900,
        d: 2,
        seed: 109,
        tau: 2,
        focal: Focal::WellRankedRecord(25),
        exhaustive: false,
    },
    Case {
        label: "cor-2d-record-tau0-large",
        dist: Distribution::Correlated,
        n: 900,
        d: 2,
        seed: 110,
        tau: 0,
        focal: Focal::WellRankedRecord(33),
        exhaustive: false,
    },
    // --- 3-d: BA and AA against the oracles ---
    Case {
        label: "ind-3d-record-tau0",
        dist: Distribution::Independent,
        n: 40,
        d: 3,
        seed: 111,
        tau: 0,
        focal: Focal::WellRankedRecord(1),
        exhaustive: true,
    },
    Case {
        label: "anti-3d-record-tau0",
        dist: Distribution::AntiCorrelated,
        n: 35,
        d: 3,
        seed: 112,
        tau: 0,
        focal: Focal::WellRankedRecord(2),
        exhaustive: true,
    },
    Case {
        label: "cor-3d-record-tau2",
        dist: Distribution::Correlated,
        n: 35,
        d: 3,
        seed: 113,
        tau: 2,
        focal: Focal::WellRankedRecord(0),
        exhaustive: true,
    },
    // --- 4-d: BA and AA with the 3-d reduced grid as ground truth (added
    // with the witness-guided within-leaf fast path, whose savings start to
    // matter here) ---
    Case {
        label: "ind-4d-record-tau0",
        dist: Distribution::Independent,
        n: 32,
        d: 4,
        seed: 114,
        tau: 0,
        focal: Focal::WellRankedRecord(1),
        exhaustive: true,
    },
    Case {
        label: "anti-4d-record-tau2",
        dist: Distribution::AntiCorrelated,
        n: 28,
        d: 4,
        seed: 115,
        tau: 2,
        focal: Focal::WellRankedRecord(0),
        exhaustive: true,
    },
];

/// Focal records whose best attainable rank is small keep the exhaustive
/// enumeration tractable.
fn well_ranked_focal(data: &Dataset, rank: usize) -> u32 {
    let mut by_sum: Vec<(f64, u32)> = data
        .iter()
        .map(|(id, r)| (r.iter().sum::<f64>(), id))
        .collect();
    by_sum.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    by_sum[rank].1
}

/// The algorithms applicable at dimensionality `d`.
fn algorithms(d: usize) -> Vec<Algorithm> {
    if d == 2 {
        vec![
            Algorithm::Fca,
            Algorithm::BasicApproach,
            Algorithm::AdvancedApproach,
            Algorithm::AdvancedApproach2D,
        ]
    } else {
        vec![Algorithm::BasicApproach, Algorithm::AdvancedApproach]
    }
}

/// Grid of reduced query vectors strictly inside the permissible simplex.
fn reduced_grid(d: usize) -> Vec<Vec<f64>> {
    match d {
        2 => (1..200).map(|i| vec![i as f64 / 200.0]).collect(),
        3 => {
            let mut grid = Vec::new();
            for i in 1..40 {
                for j in 1..40 {
                    let (q1, q2) = (i as f64 / 40.0, j as f64 / 40.0);
                    if q1 + q2 < 1.0 - 1e-9 {
                        grid.push(vec![q1, q2]);
                    }
                }
            }
            grid
        }
        4 => {
            // Coarser in 3 reduced dimensions: ~12³ candidate points, ~200
            // of which survive the simplex filter.
            let mut grid = Vec::new();
            for i in 1..12 {
                for j in 1..12 {
                    for k in 1..12 {
                        let (q1, q2, q3) = (i as f64 / 12.0, j as f64 / 12.0, k as f64 / 12.0);
                        if q1 + q2 + q3 < 1.0 - 1e-9 {
                            grid.push(vec![q1, q2, q3]);
                        }
                    }
                }
            }
            grid
        }
        other => unimplemented!("no grid for d = {other}"),
    }
}

/// Whether `q` lies within `tol` of any constraint of any reported region —
/// regions are open sets, so containment right at a boundary is undefined.
fn near_region_boundary(res: &MaxRankResult, q: &[f64], tol: f64) -> bool {
    res.regions
        .iter()
        .flat_map(|r| r.region.constraints.iter())
        .any(|h| !h.is_degenerate() && h.normalized().slack(q).abs() < tol)
}

fn check_case(case: &Case) {
    let mut rng = StdRng::seed_from_u64(case.seed);
    let data = synthetic::generate(case.dist, case.n, case.d, &mut rng);
    let tree = RStarTree::bulk_load(&data);
    let engine = MaxRankQuery::new(&data, &tree);
    let (p, focal_id) = match case.focal {
        Focal::WellRankedRecord(rank) => {
            let id = well_ranked_focal(&data, rank);
            (data.record(id).to_vec(), Some(id))
        }
        Focal::Point(p) => (p.to_vec(), None),
    };

    let grid = reduced_grid(case.d);
    let results: Vec<(Algorithm, MaxRankResult)> = algorithms(case.d)
        .into_iter()
        .map(|algo| {
            let config = MaxRankConfig {
                tau: case.tau,
                algorithm: algo,
                ..MaxRankConfig::new()
            };
            let res = match focal_id {
                Some(id) => engine.evaluate(id, &config),
                None => engine.evaluate_point(&p, &config),
            };
            (algo, res)
        })
        .collect();

    let (ref_algo, reference) = &results[0];
    for (algo, res) in &results {
        assert_eq!(
            res.k_star,
            reference.k_star,
            "[{}] {} k* {} vs {} k* {}",
            case.label,
            algo.name(),
            res.k_star,
            ref_algo.name(),
            reference.k_star
        );
        // Grid ground truth: reported coverage must equal the brute-force
        // order wherever that order is within k* + τ, and be absent
        // elsewhere.  This pins down region *extents*, not just k*.
        for q in &grid {
            if near_region_boundary(res, q, 1e-6) {
                continue;
            }
            let full_q = mrq_geometry::reduced::expand_query(q);
            let truth = data.order_of(&p, &full_q);
            let expected = (truth <= res.k_star + case.tau).then_some(truth);
            assert_eq!(
                res.order_at(q),
                expected,
                "[{}] {} at {q:?} (true order {truth}, k* {})",
                case.label,
                algo.name(),
                res.k_star
            );
        }
        // Region-level invariants, algorithm-independent.
        for region in &res.regions {
            assert!(
                region.order >= res.k_star && region.order <= res.k_star + case.tau,
                "[{}] {} region order {} outside [k*, k*+tau]",
                case.label,
                algo.name(),
                region.order
            );
            let q = region.representative_query();
            assert_eq!(
                data.order_of(&p, &q),
                region.order,
                "[{}] {} witness order mismatch",
                case.label,
                algo.name()
            );
        }
        // Skyband cross-check: outranking records of a rank-k region lie in
        // the (k − |D⁺| − 1)-skyband of the incomparable records.
        let dominators = res.stats.dominators;
        for region in &res.regions {
            if region.outranking.is_empty() {
                continue;
            }
            let band_k = region.order.saturating_sub(dominators + 1).max(1);
            let band: HashSet<u32> = k_skyband_incomparable(&tree, &p, focal_id, band_k)
                .into_iter()
                .collect();
            for &rid in &region.outranking {
                assert!(
                    band.contains(&rid),
                    "[{}] {} outranking record {rid} missing from the \
                     {band_k}-skyband of the incomparable records",
                    case.label,
                    algo.name()
                );
            }
        }
    }

    if case.exhaustive {
        let ex = oracle::exhaustive(&data, &p, focal_id, case.tau);
        assert_eq!(
            ex.k_star,
            reference.k_star,
            "[{}] exhaustive oracle k* {} vs {} k* {}",
            case.label,
            ex.k_star,
            ref_algo.name(),
            reference.k_star
        );
    }

    let (sampled, q) = oracle::sampled_min_order(&data, &p, 20_000, &mut rng);
    assert!(
        sampled >= reference.k_star,
        "[{}] sampling found order {sampled} below k* {}",
        case.label,
        reference.k_star
    );
    assert_eq!(data.order_of(&p, &q), sampled, "[{}]", case.label);
}

#[test]
fn all_algorithm_pairs_agree_with_the_oracles() {
    for case in CASES {
        check_case(case);
    }
}

#[test]
fn case_table_covers_the_advertised_matrix() {
    // The table must keep exercising every distribution, both τ values, both
    // focal kinds and both dimensionalities — guard against future shrinkage.
    assert!(CASES.iter().any(|c| c.dist == Distribution::Independent));
    assert!(CASES.iter().any(|c| c.dist == Distribution::Correlated));
    assert!(CASES.iter().any(|c| c.dist == Distribution::AntiCorrelated));
    assert!(CASES.iter().any(|c| c.tau == 0));
    assert!(CASES.iter().any(|c| c.tau == 2));
    assert!(CASES.iter().any(|c| matches!(c.focal, Focal::Point(_))));
    assert!(CASES
        .iter()
        .any(|c| matches!(c.focal, Focal::WellRankedRecord(_))));
    assert!(CASES.iter().any(|c| c.d == 2) && CASES.iter().any(|c| c.d == 3));
    assert!(CASES.iter().any(|c| c.d == 4));
    assert!(CASES.iter().any(|c| c.exhaustive) && CASES.iter().any(|c| !c.exhaustive));
}

/// Integer-grid data is full of ties: records that coincide, and half-lines
/// that cross the sweep axis at the same point. Coincident events create
/// zero-length sweep intervals, which carry no region, so they must not
/// define `k*` either. Each dataset has 40 rows on the grid `{1/L, …, L/L}²`
/// plus two exact copies of row 0.
#[test]
fn fca_ties_on_integer_grid_with_duplicate_focal() {
    use rand::Rng;
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let l = 3 + seed % 4;
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|_| {
                (0..2)
                    .map(|_| rng.gen_range(1..=l) as f64 / l as f64)
                    .collect()
            })
            .collect();
        rows.push(rows[0].clone());
        rows.push(rows[0].clone());
        let data = Dataset::from_rows(2, &rows);
        let tree = RStarTree::bulk_load(&data);
        let engine = MaxRankQuery::new(&data, &tree);
        for focal in [0u32, 3, 7, 11] {
            let p = data.record(focal).to_vec();
            let ex = oracle::exhaustive(&data, &p, Some(focal), 0);
            for algo in algorithms(2) {
                let config = MaxRankConfig {
                    algorithm: algo,
                    ..MaxRankConfig::new()
                };
                let res = engine.evaluate(focal, &config);
                assert_eq!(
                    res.k_star,
                    ex.k_star,
                    "seed {seed} focal {focal}: {} k* {} vs oracle k* {}",
                    algo.name(),
                    res.k_star,
                    ex.k_star
                );
                assert!(
                    ex.regions.is_empty() || !res.regions.is_empty(),
                    "seed {seed} focal {focal}: {} reports no region at k* {}",
                    algo.name(),
                    res.k_star
                );
            }
        }
    }
}
