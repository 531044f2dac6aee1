//! Pins the quad-tree split work of BA and AA on the population of the
//! serving benchmark's `cold_read` workload (IND, n = 1000, d = 3, dataset
//! seed 2015): for 8 fixed focals and τ ∈ {0, 2}, `k*`, the region count,
//! the leaves processed, the leaves split (`nodes_split`) and the half-space
//! box tests those splits made (`box_tests`) must equal the recorded table.
//!
//! Which leaves a frontier splits, and which ids each split classifies
//! against which children, depend only on the inserted half-spaces and the
//! order bound, never on how a box test is computed.  A change to the split
//! kernel or the box test must therefore leave every row identical: the
//! same splits and the same tests, only cheaper.  After an intended
//! behaviour change, re-record the table with
//! `MRQ_PRINT_PINNED=1 cargo test -p mrq-core --test split_counters -- --nocapture`.

use mrq_core::{Algorithm, MaxRankConfig, MaxRankQuery};
use mrq_data::{synthetic, Distribution};
use mrq_index::RStarTree;
use rand::{rngs::StdRng, SeedableRng};

/// What one evaluation pins.  `algorithm` is `'B'` for BA, `'A'` for AA.
#[derive(Debug, PartialEq)]
struct Pinned {
    algorithm: char,
    focal: u32,
    tau: usize,
    k_star: usize,
    regions: usize,
    leaves_processed: usize,
    nodes_split: usize,
    box_tests: usize,
}

/// A spread of `cold_read`'s focals 0–299.
const FOCALS: [u32; 8] = [0, 15, 45, 105, 135, 195, 255, 285];

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    Pinned { algorithm: 'B', focal: 0, tau: 0, k_star: 44, regions: 2, leaves_processed: 23, nodes_split: 35, box_tests: 9705 },
    Pinned { algorithm: 'B', focal: 15, tau: 0, k_star: 503, regions: 13, leaves_processed: 18, nodes_split: 68, box_tests: 25389 },
    Pinned { algorithm: 'B', focal: 45, tau: 0, k_star: 41, regions: 2, leaves_processed: 3, nodes_split: 16, box_tests: 4959 },
    Pinned { algorithm: 'B', focal: 105, tau: 0, k_star: 281, regions: 3, leaves_processed: 12, nodes_split: 54, box_tests: 20735 },
    Pinned { algorithm: 'B', focal: 135, tau: 0, k_star: 32, regions: 4, leaves_processed: 17, nodes_split: 35, box_tests: 15521 },
    Pinned { algorithm: 'B', focal: 195, tau: 0, k_star: 101, regions: 1, leaves_processed: 8, nodes_split: 37, box_tests: 15631 },
    Pinned { algorithm: 'B', focal: 255, tau: 0, k_star: 15, regions: 2, leaves_processed: 8, nodes_split: 10, box_tests: 6922 },
    Pinned { algorithm: 'B', focal: 285, tau: 0, k_star: 348, regions: 2, leaves_processed: 3, nodes_split: 41, box_tests: 19985 },
    Pinned { algorithm: 'B', focal: 0, tau: 2, k_star: 44, regions: 88, leaves_processed: 49, nodes_split: 44, box_tests: 10953 },
    Pinned { algorithm: 'B', focal: 15, tau: 2, k_star: 503, regions: 118, leaves_processed: 37, nodes_split: 86, box_tests: 26933 },
    Pinned { algorithm: 'B', focal: 45, tau: 2, k_star: 41, regions: 23, leaves_processed: 14, nodes_split: 21, box_tests: 6121 },
    Pinned { algorithm: 'B', focal: 105, tau: 2, k_star: 281, regions: 45, leaves_processed: 23, nodes_split: 63, box_tests: 21822 },
    Pinned { algorithm: 'B', focal: 135, tau: 2, k_star: 32, regions: 50, leaves_processed: 31, nodes_split: 45, box_tests: 17166 },
    Pinned { algorithm: 'B', focal: 195, tau: 2, k_star: 101, regions: 24, leaves_processed: 17, nodes_split: 43, box_tests: 16140 },
    Pinned { algorithm: 'B', focal: 255, tau: 2, k_star: 15, regions: 55, leaves_processed: 12, nodes_split: 12, box_tests: 7038 },
    Pinned { algorithm: 'B', focal: 285, tau: 2, k_star: 348, regions: 21, leaves_processed: 10, nodes_split: 51, box_tests: 23009 },
    Pinned { algorithm: 'A', focal: 0, tau: 0, k_star: 44, regions: 2, leaves_processed: 77, nodes_split: 61, box_tests: 4218 },
    Pinned { algorithm: 'A', focal: 15, tau: 0, k_star: 503, regions: 13, leaves_processed: 95, nodes_split: 78, box_tests: 14672 },
    Pinned { algorithm: 'A', focal: 45, tau: 0, k_star: 41, regions: 2, leaves_processed: 19, nodes_split: 20, box_tests: 1362 },
    Pinned { algorithm: 'A', focal: 105, tau: 0, k_star: 281, regions: 3, leaves_processed: 76, nodes_split: 100, box_tests: 12657 },
    Pinned { algorithm: 'A', focal: 135, tau: 0, k_star: 32, regions: 4, leaves_processed: 81, nodes_split: 46, box_tests: 3408 },
    Pinned { algorithm: 'A', focal: 195, tau: 0, k_star: 101, regions: 1, leaves_processed: 56, nodes_split: 51, box_tests: 3899 },
    Pinned { algorithm: 'A', focal: 255, tau: 0, k_star: 15, regions: 2, leaves_processed: 24, nodes_split: 10, box_tests: 892 },
    Pinned { algorithm: 'A', focal: 285, tau: 0, k_star: 348, regions: 2, leaves_processed: 33, nodes_split: 77, box_tests: 12600 },
    Pinned { algorithm: 'A', focal: 0, tau: 2, k_star: 44, regions: 88, leaves_processed: 147, nodes_split: 71, box_tests: 5360 },
    Pinned { algorithm: 'A', focal: 15, tau: 2, k_star: 503, regions: 118, leaves_processed: 184, nodes_split: 97, box_tests: 16115 },
    Pinned { algorithm: 'A', focal: 45, tau: 2, k_star: 41, regions: 23, leaves_processed: 60, nodes_split: 24, box_tests: 1566 },
    Pinned { algorithm: 'A', focal: 105, tau: 2, k_star: 281, regions: 45, leaves_processed: 124, nodes_split: 119, box_tests: 13834 },
    Pinned { algorithm: 'A', focal: 135, tau: 2, k_star: 32, regions: 50, leaves_processed: 129, nodes_split: 58, box_tests: 3985 },
    Pinned { algorithm: 'A', focal: 195, tau: 2, k_star: 101, regions: 24, leaves_processed: 102, nodes_split: 61, box_tests: 4794 },
    Pinned { algorithm: 'A', focal: 255, tau: 2, k_star: 15, regions: 55, leaves_processed: 43, nodes_split: 13, box_tests: 1084 },
    Pinned { algorithm: 'A', focal: 285, tau: 2, k_star: 348, regions: 21, leaves_processed: 79, nodes_split: 96, box_tests: 13922 },
];

fn observe(engine: &MaxRankQuery<'_>, algorithm: char, focal: u32, tau: usize) -> Pinned {
    let res = engine.evaluate(
        focal,
        &MaxRankConfig {
            tau,
            algorithm: match algorithm {
                'B' => Algorithm::BasicApproach,
                _ => Algorithm::AdvancedApproach,
            },
            ..MaxRankConfig::new()
        },
    );
    let s = &res.stats;
    Pinned {
        algorithm,
        focal,
        tau,
        k_star: res.k_star,
        regions: res.region_count(),
        leaves_processed: s.leaves_processed,
        nodes_split: s.nodes_split,
        box_tests: s.box_tests,
    }
}

#[test]
fn split_counters_match_the_recorded_table() {
    let mut rng = StdRng::seed_from_u64(2015);
    let data = synthetic::generate(Distribution::Independent, 1000, 3, &mut rng);
    let tree = RStarTree::bulk_load(&data);
    let engine = MaxRankQuery::new(&data, &tree);
    let mut rows = Vec::new();
    for algorithm in ['B', 'A'] {
        for tau in [0usize, 2] {
            for &focal in &FOCALS {
                rows.push(observe(&engine, algorithm, focal, tau));
            }
        }
    }
    if std::env::var_os("MRQ_PRINT_PINNED").is_some() {
        for row in &rows {
            println!("    {row:?},");
        }
        return;
    }
    assert_eq!(rows.len(), PINNED.len());
    for (got, want) in rows.iter().zip(PINNED) {
        assert_eq!(got, want);
    }
    // Every BA evaluation here splits its root.
    assert!(rows
        .iter()
        .filter(|r| r.algorithm == 'B')
        .all(|r| r.nodes_split > 0 && r.box_tests > 0));
}
