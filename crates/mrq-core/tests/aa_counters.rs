//! Pins AA's observable behaviour on the population of the serving
//! benchmark's `cold_read` workload (IND, n = 1000, d = 3, dataset seed
//! 2015): for 20 fixed focals and τ ∈ {0, 2}, `k*`, the region count, every
//! `QueryStats` counter except the timing- and concurrency-dependent
//! `cpu_time` / `io_reads`, and a digest of every region's witness bits,
//! slack bits, constraint count and ordered `outranking` list must equal the
//! recorded table.
//!
//! A refactor of the enumeration machinery (leaf walks, caches, skyline
//! maintenance) must leave all of these identical, so any drift here means
//! the change altered which cells AA visits, not only how fast it visits
//! them.  After an intended behaviour change, re-record the table with
//! `MRQ_PRINT_PINNED=1 cargo test -p mrq-core --test aa_counters -- --nocapture`.

use mrq_core::{Algorithm, MaxRankConfig, MaxRankQuery, MaxRankResult};
use mrq_data::{synthetic, Distribution};
use mrq_index::RStarTree;
use rand::{rngs::StdRng, SeedableRng};

/// What one evaluation pins.  `counters` are, in order: dominators,
/// halfspaces_inserted, iterations, leaves_processed, cells_tested,
/// lp_calls, witness_hits, subtrees_pruned, bitstrings_pruned and
/// events_pruned.
#[derive(Debug, PartialEq)]
struct Pinned {
    focal: u32,
    tau: usize,
    k_star: usize,
    regions: usize,
    counters: [usize; 10],
    digest: u64,
}

/// Every 15th record of `cold_read`'s focals 0–299.
const FOCALS: [u32; 20] = [
    0, 15, 30, 45, 60, 75, 90, 105, 120, 135, 150, 165, 180, 195, 210, 225, 240, 255, 270, 285,
];

#[rustfmt::skip]
const PINNED: &[Pinned] = &[
    Pinned { focal: 0, tau: 0, k_star: 44, regions: 2, counters: [9, 110, 5, 77, 306, 863, 1691, 188, 888, 0], digest: 7744474845583220576 },
    Pinned { focal: 15, tau: 0, k_star: 503, regions: 13, counters: [257, 521, 21, 95, 224, 426, 638, 49, 203, 0], digest: 5552232248905478734 },
    Pinned { focal: 30, tau: 0, k_star: 338, regions: 2, counters: [157, 346, 11, 36, 273, 1264, 1861, 582, 4699, 0], digest: 15579659195792785875 },
    Pinned { focal: 45, tau: 0, k_star: 41, regions: 2, counters: [20, 62, 3, 19, 118, 421, 737, 278, 1080, 0], digest: 2468102624494310186 },
    Pinned { focal: 60, tau: 0, k_star: 767, regions: 1, counters: [541, 385, 13, 17, 68, 112, 68, 10, 27, 0], digest: 12203859268740916205 },
    Pinned { focal: 75, tau: 0, k_star: 97, regions: 2, counters: [55, 103, 6, 10, 79, 177, 430, 68, 128, 0], digest: 13274882415787987077 },
    Pinned { focal: 90, tau: 0, k_star: 39, regions: 1, counters: [28, 43, 4, 4, 3, 3, 0, 0, 0, 0], digest: 9123759445668341267 },
    Pinned { focal: 105, tau: 0, k_star: 281, regions: 3, counters: [110, 371, 12, 76, 472, 2243, 2257, 431, 9217, 0], digest: 1630633153661721971 },
    Pinned { focal: 120, tau: 0, k_star: 405, regions: 1, counters: [225, 317, 12, 18, 57, 122, 155, 16, 53, 0], digest: 15340364546628038738 },
    Pinned { focal: 135, tau: 0, k_star: 32, regions: 4, counters: [11, 74, 4, 81, 425, 2386, 2031, 570, 7720, 0], digest: 5164327239174682165 },
    Pinned { focal: 150, tau: 0, k_star: 56, regions: 3, counters: [22, 87, 6, 35, 201, 821, 1056, 313, 3466, 0], digest: 2431354261926463223 },
    Pinned { focal: 165, tau: 0, k_star: 26, regions: 1, counters: [6, 73, 4, 25, 115, 233, 410, 65, 344, 0], digest: 15109296938835435114 },
    Pinned { focal: 180, tau: 0, k_star: 319, regions: 1, counters: [285, 107, 5, 11, 77, 423, 394, 237, 2184, 0], digest: 2210465683613834694 },
    Pinned { focal: 195, tau: 0, k_star: 101, regions: 1, counters: [39, 155, 6, 56, 445, 2732, 2945, 914, 12042, 0], digest: 8431472129335827347 },
    Pinned { focal: 210, tau: 0, k_star: 92, regions: 3, counters: [58, 96, 8, 65, 389, 1628, 2337, 408, 3054, 0], digest: 4617810028753076909 },
    Pinned { focal: 225, tau: 0, k_star: 689, regions: 1, counters: [659, 65, 6, 7, 19, 111, 172, 28, 285, 0], digest: 18227377822005698839 },
    Pinned { focal: 240, tau: 0, k_star: 83, regions: 1, counters: [59, 58, 6, 6, 53, 53, 0, 0, 0, 0], digest: 5427449582289683511 },
    Pinned { focal: 255, tau: 0, k_star: 15, regions: 2, counters: [4, 51, 4, 24, 91, 301, 630, 167, 426, 0], digest: 6881763946770320577 },
    Pinned { focal: 270, tau: 0, k_star: 395, regions: 1, counters: [243, 320, 14, 27, 227, 1397, 1626, 617, 4777, 0], digest: 13412248665660875449 },
    Pinned { focal: 285, tau: 0, k_star: 348, regions: 2, counters: [134, 416, 14, 33, 195, 459, 872, 278, 679, 0], digest: 8019518939925672052 },
    Pinned { focal: 0, tau: 2, k_star: 44, regions: 88, counters: [9, 127, 4, 147, 980, 2477, 4791, 1370, 6453, 0], digest: 14716144484075123828 },
    Pinned { focal: 15, tau: 2, k_star: 503, regions: 118, counters: [257, 524, 20, 184, 1202, 3283, 6635, 1143, 4001, 0], digest: 14401138841066392768 },
    Pinned { focal: 30, tau: 2, k_star: 338, regions: 19, counters: [157, 371, 10, 68, 604, 1771, 2353, 1213, 6106, 0], digest: 10605489856169126495 },
    Pinned { focal: 45, tau: 2, k_star: 41, regions: 23, counters: [20, 81, 4, 60, 400, 861, 1303, 1010, 6378, 0], digest: 1554360231251714125 },
    Pinned { focal: 60, tau: 2, k_star: 767, regions: 6, counters: [541, 382, 11, 20, 216, 834, 1250, 258, 1538, 0], digest: 9750698715704558149 },
    Pinned { focal: 75, tau: 2, k_star: 97, regions: 10, counters: [55, 108, 6, 20, 170, 341, 713, 299, 775, 0], digest: 1661532044756932794 },
    Pinned { focal: 90, tau: 2, k_star: 39, regions: 3, counters: [28, 44, 4, 4, 28, 103, 209, 32, 68, 0], digest: 1467136030961202868 },
    Pinned { focal: 105, tau: 2, k_star: 281, regions: 45, counters: [110, 377, 10, 124, 1045, 4957, 6100, 1863, 24594, 0], digest: 14911227358304936117 },
    Pinned { focal: 120, tau: 2, k_star: 405, regions: 4, counters: [225, 326, 10, 14, 153, 557, 1136, 250, 774, 0], digest: 3255399218567506007 },
    Pinned { focal: 135, tau: 2, k_star: 32, regions: 50, counters: [11, 92, 4, 129, 972, 4356, 5100, 2222, 23158, 0], digest: 2718650464988776523 },
    Pinned { focal: 150, tau: 2, k_star: 56, regions: 20, counters: [22, 105, 6, 95, 882, 2690, 4160, 1756, 13856, 0], digest: 3546556243302329991 },
    Pinned { focal: 165, tau: 2, k_star: 26, regions: 37, counters: [6, 91, 5, 64, 583, 1469, 2958, 861, 3506, 0], digest: 9513078405249079190 },
    Pinned { focal: 180, tau: 2, k_star: 319, regions: 4, counters: [285, 111, 4, 12, 99, 523, 700, 270, 1364, 0], digest: 9771398068944850375 },
    Pinned { focal: 195, tau: 2, k_star: 101, regions: 24, counters: [39, 160, 6, 102, 759, 3735, 4020, 1501, 19084, 0], digest: 5857338117166587893 },
    Pinned { focal: 210, tau: 2, k_star: 92, regions: 46, counters: [58, 114, 7, 89, 719, 2673, 3974, 1276, 9852, 0], digest: 505695032069147158 },
    Pinned { focal: 225, tau: 2, k_star: 689, regions: 5, counters: [659, 47, 5, 6, 64, 241, 543, 72, 172, 0], digest: 7801792312414154115 },
    Pinned { focal: 240, tau: 2, k_star: 83, regions: 4, counters: [59, 62, 6, 11, 80, 390, 926, 260, 1176, 0], digest: 8727590455277518917 },
    Pinned { focal: 255, tau: 2, k_star: 15, regions: 55, counters: [4, 62, 4, 43, 378, 826, 1624, 698, 2695, 0], digest: 3549973449157592125 },
    Pinned { focal: 270, tau: 2, k_star: 395, regions: 4, counters: [243, 320, 13, 52, 439, 1914, 2373, 1536, 10351, 0], digest: 15484418660857710876 },
    Pinned { focal: 285, tau: 2, k_star: 348, regions: 21, counters: [134, 424, 13, 79, 740, 1886, 3874, 1702, 8075, 0], digest: 5941262808356558931 },
];

/// FNV-1a over the regions in result order: order, witness and slack bits,
/// constraint count and the outranking ids in their listed order.
fn region_digest(res: &MaxRankResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in &res.regions {
        eat(r.order as u64);
        for w in &r.region.witness {
            eat(w.to_bits());
        }
        eat(r.region.slack.to_bits());
        eat(r.region.constraints.len() as u64);
        eat(r.outranking.len() as u64);
        for &id in &r.outranking {
            eat(u64::from(id));
        }
    }
    h
}

fn observe(engine: &MaxRankQuery<'_>, focal: u32, tau: usize) -> Pinned {
    let res = engine.evaluate(
        focal,
        &MaxRankConfig {
            tau,
            algorithm: Algorithm::AdvancedApproach,
            ..MaxRankConfig::new()
        },
    );
    let s = &res.stats;
    Pinned {
        focal,
        tau,
        k_star: res.k_star,
        regions: res.region_count(),
        counters: [
            s.dominators,
            s.halfspaces_inserted,
            s.iterations,
            s.leaves_processed,
            s.cells_tested,
            s.lp_calls,
            s.witness_hits,
            s.subtrees_pruned,
            s.bitstrings_pruned,
            s.events_pruned,
        ],
        digest: region_digest(&res),
    }
}

#[test]
fn aa_answers_and_counters_match_the_recorded_table() {
    let mut rng = StdRng::seed_from_u64(2015);
    let data = synthetic::generate(Distribution::Independent, 1000, 3, &mut rng);
    let tree = RStarTree::bulk_load(&data);
    let engine = MaxRankQuery::new(&data, &tree);
    let rows: Vec<Pinned> = [0usize, 2]
        .into_iter()
        .flat_map(|tau| FOCALS.iter().map(move |&f| (f, tau)))
        .map(|(focal, tau)| observe(&engine, focal, tau))
        .collect();
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
}
