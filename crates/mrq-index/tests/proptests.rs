//! Property-based tests for the spatial index: whatever the data and the
//! insertion order, queries must agree with a plain linear scan and the
//! structural invariants must hold.

use mrq_data::{dominates, naive_skyline, partition_by_focal, Dataset, Update};
use mrq_geometry::BoundingBox;
use mrq_index::{
    count_reads, k_skyband, order_of, top_k, IncrementalSkyline, RStarConfig, RStarTree,
};
use proptest::prelude::*;

fn dataset_strategy(d: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, d), 1..200)
        .prop_map(move |rows| Dataset::from_rows(d, &rows))
}

fn build_both(data: &Dataset) -> (RStarTree, RStarTree) {
    let config = RStarConfig {
        max_entries: 8,
        min_entries: 3,
        reinsert_count: 2,
    };
    let bulk = RStarTree::bulk_load_with_config(data, config);
    let mut incr = RStarTree::with_config(data.dims(), config);
    for (id, r) in data.iter() {
        incr.insert(id, r);
    }
    (bulk, incr)
}

/// A small-integer grid at `d` ∈ {2, 3} built to break skyline code: grid
/// values repeat coordinates and attribute sums (equal heap keys), and on
/// top of the rows drawn come copies of the focal record, duplicates of
/// other records and coordinate-reversed records (equal sums).  Returns the
/// data and the focal id.
fn hard_grid(three_d: bool, cells: &[Vec<u8>], seed: u64) -> (Dataset, u32) {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let d = if three_d { 3 } else { 2 };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<f64>> = cells
        .iter()
        .map(|c| c[..d].iter().map(|&v| f64::from(v)).collect())
        .collect();
    let focal = rng.gen_range(0..rows.len());
    for _ in 0..rng.gen_range(1..=3usize) {
        rows.push(rows[focal].clone());
    }
    for _ in 0..rng.gen_range(0..=cells.len() / 2) {
        let pick = rng.gen_range(0..cells.len());
        let mut row = rows[pick].clone();
        if rng.gen::<bool>() {
            row.reverse();
        }
        rows.push(row);
    }
    (Dataset::from_rows(d, &rows), focal as u32)
}

/// Checks the live skyline against the definition: its points, deduplicated,
/// are the maximal points of the incomparable records not yet expanded, and
/// no two live records share coordinates.
fn check_live_skyline(
    data: &Dataset,
    incomparable: &[u32],
    live: &[(u32, Vec<f64>)],
    expanded: &[u32],
) -> Result<(), TestCaseError> {
    let remaining: Vec<u32> = incomparable
        .iter()
        .copied()
        .filter(|id| !expanded.contains(id))
        .collect();
    let mut expected: Vec<Vec<f64>> = naive_skyline(data, &remaining)
        .into_iter()
        .map(|id| data.record(id).to_vec())
        .collect();
    expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
    expected.dedup();
    let mut got: Vec<Vec<f64>> = live.iter().map(|(_, p)| p.clone()).collect();
    got.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let live_len = got.len();
    got.dedup();
    prop_assert_eq!(got.len(), live_len, "two live records share coordinates");
    prop_assert_eq!(got, expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Range reporting and counting agree with a linear scan for both the
    /// bulk-loaded and the incrementally built tree, and the invariants hold.
    #[test]
    fn range_queries_match_scan(data in dataset_strategy(3), qlo in prop::collection::vec(0.0f64..1.0, 3), ext in prop::collection::vec(0.0f64..0.6, 3)) {
        let (bulk, incr) = build_both(&data);
        bulk.check_invariants().map_err(TestCaseError::fail)?;
        incr.check_invariants().map_err(TestCaseError::fail)?;
        let qhi: Vec<f64> = qlo.iter().zip(&ext).map(|(l, e)| (l + e).min(1.0)).collect();
        let query = BoundingBox::new(qlo.clone(), qhi);
        let mut expected: Vec<u32> = data
            .iter()
            .filter(|(_, r)| query.contains(r))
            .map(|(id, _)| id)
            .collect();
        expected.sort_unstable();
        for tree in [&bulk, &incr] {
            let mut got = tree.range_ids(&query);
            got.sort_unstable();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(tree.range_count(&query) as usize, expected.len());
        }
    }

    /// Dominator counts and incomparable-record retrieval match the dominance
    /// definitions for an arbitrary focal point.
    #[test]
    fn focal_partition_queries_match(data in dataset_strategy(3), p in prop::collection::vec(0.0f64..1.0, 3)) {
        let (bulk, _) = build_both(&data);
        let expected_dom = data.iter().filter(|(_, r)| dominates(r, &p)).count();
        prop_assert_eq!(bulk.count_dominators(&p, None) as usize, expected_dom);
        let part = partition_by_focal(&data, &p, None);
        let mut got = bulk.incomparable_ids(&p, None);
        got.sort_unstable();
        let mut expected = part.incomparable.clone();
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// Best-first top-k returns the same score sequence as sorting, and the
    /// aggregate order computation matches the scan-based one.
    #[test]
    fn topk_and_order_match_scan(data in dataset_strategy(4), seed in any::<u64>()) {
        let (bulk, _) = build_both(&data);
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q: Vec<f64> = (0..4).map(|_| rng.gen::<f64>() + 1e-6).collect();
        let s: f64 = q.iter().sum();
        q.iter_mut().for_each(|x| *x /= s);
        let k = 1 + (seed as usize % 10).min(data.len() - 1);
        let res = top_k(&bulk, &q, k);
        let mut scores: Vec<f64> = data
            .iter()
            .map(|(_, r)| r.iter().zip(&q).map(|(a, b)| a * b).sum::<f64>())
            .collect();
        scores.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (got, want) in res.scores.iter().zip(scores.iter().take(k)) {
            prop_assert!((got - want).abs() < 1e-9);
        }
        let focal = (seed % data.len() as u64) as u32;
        let p = data.record(focal);
        prop_assert_eq!(order_of(&bulk, p, &q), data.order_of(p, &q));
    }

    /// The incremental skyline (before any expansion) equals the naive skyline
    /// of the incomparable records, and the k-skyband contains the skyline.
    #[test]
    fn skyline_and_skyband_consistent(data in dataset_strategy(3), seed in any::<u64>()) {
        let (bulk, _) = build_both(&data);
        let focal = (seed % data.len() as u64) as u32;
        let p = data.record(focal).to_vec();
        let sky = IncrementalSkyline::new(&bulk, &p, Some(focal));
        let part = partition_by_focal(&data, &p, Some(focal));
        let mut expected = naive_skyline(&data, &part.incomparable);
        expected.sort_unstable();
        let mut got: Vec<u32> = sky.skyline().iter().map(|(id, _)| *id).collect();
        got.sort_unstable();
        prop_assert_eq!(got, expected);

        let band1 = {
            let mut b = k_skyband(&bulk, 1);
            b.sort_unstable();
            b
        };
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let mut full_sky = naive_skyline(&data, &ids);
        full_sky.sort_unstable();
        prop_assert_eq!(&band1, &full_sky);
        let band3 = k_skyband(&bulk, 3);
        prop_assert!(band3.len() >= full_sky.len());
    }

    /// After an arbitrary interleaving of inserts and deletes the tree is
    /// structurally valid (MBR containment/tightness, min/max fan-out,
    /// aggregate counts, arena accounting — all enforced by
    /// `check_invariants`) and behaves exactly like a tree bulk-loaded over
    /// the final live records: range reporting, BBS skyline / k-skyband and
    /// best-first top-k all agree.
    #[test]
    fn insert_delete_interleavings_match_bulk_load(
        data in dataset_strategy(3),
        ops in prop::collection::vec((any::<bool>(), any::<u64>(), prop::collection::vec(0.0f64..1.0, 3)), 1..60),
        seed in any::<u64>(),
    ) {
        let config = RStarConfig {
            max_entries: 5,
            min_entries: 2,
            reinsert_count: 1,
        };
        let mut data = data;
        let mut tree = RStarTree::bulk_load_with_config(&data, config);
        for (is_delete, pick, row) in ops {
            if is_delete && data.live_len() > 0 {
                let live: Vec<u32> = data.iter().map(|(id, _)| id).collect();
                let id = live[(pick % live.len() as u64) as usize];
                let point = data.record(id).to_vec();
                data.apply(&Update::Delete(id)).map_err(|e| TestCaseError::fail(e.to_string()))?;
                prop_assert!(tree.delete(id, &point));
            } else {
                let applied = data
                    .apply(&Update::Insert(row.clone()))
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                tree.insert(applied.inserted.unwrap(), &row);
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
        }
        prop_assert_eq!(tree.len(), data.live_len());
        let rebuilt = RStarTree::bulk_load_with_config(&data, config);
        rebuilt.check_invariants().map_err(TestCaseError::fail)?;

        // Range reporting and counting agree.
        let query = BoundingBox::new(vec![0.2, 0.1, 0.3], vec![0.8, 0.9, 0.75]);
        let mut a = tree.range_ids(&query);
        let mut b = rebuilt.range_ids(&query);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert_eq!(tree.range_count(&query), rebuilt.range_count(&query));

        if data.live_len() == 0 {
            prop_assert!(tree.is_empty());
            return Ok(());
        }

        // BBS: 1-skyband == skyline of the live records, and the
        // incremental skyline seen through both trees agrees.
        let mut sky_incr = k_skyband(&tree, 1);
        let mut sky_bulk = k_skyband(&rebuilt, 1);
        sky_incr.sort_unstable();
        sky_bulk.sort_unstable();
        prop_assert_eq!(&sky_incr, &sky_bulk);
        let live_ids: Vec<u32> = data.iter().map(|(id, _)| id).collect();
        let mut naive = naive_skyline(&data, &live_ids);
        naive.sort_unstable();
        prop_assert_eq!(&sky_incr, &naive);
        let focal = live_ids[(seed % live_ids.len() as u64) as usize];
        let p = data.record(focal).to_vec();
        let mut inc_a: Vec<u32> = IncrementalSkyline::new(&tree, &p, Some(focal))
            .skyline().iter().map(|(id, _)| *id).collect();
        let mut inc_b: Vec<u32> = IncrementalSkyline::new(&rebuilt, &p, Some(focal))
            .skyline().iter().map(|(id, _)| *id).collect();
        inc_a.sort_unstable();
        inc_b.sort_unstable();
        prop_assert_eq!(inc_a, inc_b);

        // Top-k score sequences and order computations agree.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q: Vec<f64> = (0..3).map(|_| rng.gen::<f64>() + 1e-6).collect();
        let s: f64 = q.iter().sum();
        q.iter_mut().for_each(|x| *x /= s);
        let k = 1 + (seed as usize % 8).min(data.live_len() - 1);
        let got = top_k(&tree, &q, k);
        let want = top_k(&rebuilt, &q, k);
        prop_assert_eq!(got.scores.len(), want.scores.len());
        for (x, y) in got.scores.iter().zip(&want.scores) {
            prop_assert!((x - y).abs() < 1e-12);
        }
        prop_assert_eq!(order_of(&tree, &p, &q), data.order_of(&p, &q));
        prop_assert_eq!(order_of(&rebuilt, &p, &q), data.order_of(&p, &q));
    }

    /// Crash-recovery replay drives the index the same way live updates do:
    /// an op sequence is committed through a `DatasetStore` WAL, the store
    /// is reopened (snapshot load + replay), and the recovered batches are
    /// fed into an incrementally maintained tree.  The invariants must hold
    /// after **every** replayed batch, and the final tree must agree with a
    /// bulk load over the recovered records.
    #[test]
    fn recovery_replayed_sequences_preserve_tree_invariants(
        data in dataset_strategy(3),
        ops in prop::collection::vec((any::<bool>(), any::<u64>(), prop::collection::vec(0.0f64..1.0, 3)), 1..40),
    ) {
        use mrq_data::storage::{read_wal, replay_batch, DatasetStore, WalBatch, WalOp};
        use std::sync::atomic::{AtomicUsize, Ordering};

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "mrq_index_replay_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // Commit the op sequence through the WAL, one batch per op.
        let base = data;
        let mut live = base.clone();
        let mut store = DatasetStore::create(&dir, &base).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut committed = 0u64;
        for (is_delete, pick, row) in ops {
            let op = if is_delete && live.live_len() > 0 {
                let ids: Vec<u32> = live.iter().map(|(id, _)| id).collect();
                let id = ids[(pick % ids.len() as u64) as usize];
                live.apply(&Update::Delete(id)).map_err(|e| TestCaseError::fail(e.to_string()))?;
                WalOp::Delete { id }
            } else {
                let applied = live
                    .apply(&Update::Insert(row.clone()))
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
                WalOp::Insert { id: applied.inserted.unwrap(), row }
            };
            let batch = WalBatch { lsn: live.version(), ops: vec![op] };
            store.append(&batch).map_err(|e| TestCaseError::fail(e.to_string()))?;
            committed += 1;
        }
        drop(store);

        // Recover, then replay the recovered log into an incremental tree
        // over the snapshot state — exactly what a durable registry does.
        let (_store, recovered, report) =
            DatasetStore::open(&dir).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(report.batches_replayed, committed);
        prop_assert_eq!(&recovered, &live);

        let wal = read_wal(&DatasetStore::wal_path(&dir)).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let config = RStarConfig { max_entries: 5, min_entries: 2, reinsert_count: 1 };
        let mut replayed = base.clone();
        let mut tree = RStarTree::bulk_load_with_config(&base, config);
        for batch in &wal.batches {
            prop_assert!(replay_batch(&mut replayed, batch).map_err(TestCaseError::fail)?);
            for op in &batch.ops {
                match op {
                    WalOp::Insert { id, row } => tree.insert(*id, row),
                    // A tombstoned slot still exposes its coordinates —
                    // exactly what the tree search needs.
                    WalOp::Delete { id } => prop_assert!(tree.delete(*id, replayed.record(*id))),
                }
            }
            tree.check_invariants().map_err(TestCaseError::fail)?;
        }
        prop_assert_eq!(&replayed, &recovered);
        prop_assert_eq!(tree.len(), recovered.live_len());

        // The replay-maintained tree answers like a bulk load over the
        // recovered records.
        let rebuilt = RStarTree::bulk_load_with_config(&recovered, config);
        let query = BoundingBox::new(vec![0.1, 0.2, 0.0], vec![0.9, 0.8, 0.7]);
        let mut a = tree.range_ids(&query);
        let mut b = rebuilt.range_ids(&query);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        prop_assert_eq!(tree.range_count(&query), rebuilt.range_count(&query));

        std::fs::remove_dir_all(&dir).map_err(|e| TestCaseError::fail(e.to_string()))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Expanding live skyline records in a random order on hard grids keeps
    /// the live skyline exact after every step, returns the newcomers as
    /// the live skyline's tail, and reads every R\*-tree node at most once
    /// over the whole expansion, on a bulk-loaded and an incrementally built
    /// tree alike.
    #[test]
    fn expansion_on_hard_grids_keeps_the_skyline_exact(
        three_d in any::<bool>(),
        cells in prop::collection::vec(prop::collection::vec(0u8..5, 3), 1..50),
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (data, focal) = hard_grid(three_d, &cells, seed);
        let p = data.record(focal).to_vec();
        let incomparable = partition_by_focal(&data, &p, Some(focal)).incomparable;
        let (bulk, incr) = build_both(&data);
        for tree in [&bulk, &incr] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let (mut sky, mut reads) = count_reads(|| IncrementalSkyline::new(tree, &p, Some(focal)));
            let mut live: Vec<(u32, Vec<f64>)> =
                sky.skyline().iter().map(|(id, row)| (*id, row.to_vec())).collect();
            check_live_skyline(&data, &incomparable, &live, sky.expanded())?;
            while !live.is_empty() {
                let id = live[rng.gen_range(0..live.len())].0;
                let (newcomers, step_reads) = count_reads(|| {
                    sky.expand(id)
                        .iter()
                        .map(|(rid, row)| (*rid, row.to_vec()))
                        .collect::<Vec<_>>()
                });
                reads += step_reads;
                // The newcomers are new, the live skyline lost one record
                // (`id`) besides gaining them, and they form its tail.
                prop_assert!(newcomers.iter().all(|(rid, _)| live.iter().all(|(old, _)| old != rid)));
                let before = live.len();
                live = sky.skyline().iter().map(|(rid, row)| (*rid, row.to_vec())).collect();
                prop_assert_eq!(live.len(), before - 1 + newcomers.len());
                prop_assert_eq!(&live[live.len() - newcomers.len()..], &newcomers[..]);
                check_live_skyline(&data, &incomparable, &live, sky.expanded())?;
                prop_assert!(
                    reads <= tree.node_count() as u64,
                    "{} page reads for {} nodes", reads, tree.node_count()
                );
            }
        }
    }
}
