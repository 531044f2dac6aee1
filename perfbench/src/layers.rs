//! Sequential replays through each layer's public functions, on private
//! copies of the run's data, with a span around every call.  Nothing here
//! runs concurrently, so the counters these calls report (page reads, LPs)
//! are exact.

use crate::trace::Tracer;
use crate::workload::{Op, Workload, DATASET};
use mrq_core::maintain::{shift_result, triage_delete, triage_insert, DeltaTriage};
use mrq_core::withinleaf::{enumerate_cells, CellEnumOptions};
use mrq_core::{Algorithm, MaxRankConfig, MaxRankQuery, MaxRankResult, QueryStats};
use mrq_data::storage::{DatasetStore, WalBatch, WalOp};
use mrq_data::{Dataset, RecordId, Update};
use mrq_geometry::halfspace_for_record;
use mrq_index::{IncrementalSkyline, RStarTree};
use mrq_quadtree::{HalfSpaceQuadTree, QuadTreeConfig};
use mrq_service::protocol::{json, notify_payload, query_payload, Request};
use mrq_service::{
    CacheKey, DatasetRegistry, DurabilityOptions, NotifyEvent, NotifyKind, QueryAnswer, ResultCache,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

/// Distinct focals replayed through the query layers (enough for a p90).
pub const LAYER_FOCALS: usize = 100;
/// Checkpoints timed at the end of the write-path replay.
const CHECKPOINTS: usize = 3;

/// Counts the replays accumulate, keyed by per-layer metric name.
pub type Counts = BTreeMap<&'static str, f64>;

fn add(counts: &mut Counts, name: &'static str, value: f64) {
    *counts.entry(name).or_default() += value;
}

/// Replays each focal through dominator counting, BBS, the quad-tree build
/// of the initial skyline, the first within-leaf pass, the full evaluation
/// and the protocol encode/decode of its reply.
pub fn replay_queries(
    data: &Dataset,
    focals: &[RecordId],
    tracer: &mut Tracer,
    counts: &mut Counts,
) {
    let tree = RStarTree::bulk_load(data);
    let engine = MaxRankQuery::new(data, &tree);
    let config = MaxRankConfig::new();
    let dr = data.dims() - 1;
    for &focal in focals {
        let p = data.record(focal).to_vec();
        let request = Request::Query {
            dataset: DATASET.to_string(),
            focal,
            algorithm: Algorithm::Auto,
            tau: 0,
            timeout_ms: None,
            no_cache: false,
            max_regions: None,
            threads: 1,
        }
        .encode();
        tracer.begin("layer.query");
        let parsed = tracer.time("protocol.request_parse", || Request::parse(&request));
        debug_assert!(parsed.is_ok());
        tracer.time("index.dominators", || {
            tree.count_dominators(&p, Some(focal))
        });
        let skyline = tracer.time("index.bbs", || {
            IncrementalSkyline::new(&tree, &p, Some(focal))
        });
        let qt = tracer.time("quadtree.build", || {
            let mut qt = HalfSpaceQuadTree::with_config(dr, QuadTreeConfig::for_reduced_dims(dr));
            for (_, row) in skyline.skyline() {
                let h = halfspace_for_record(row, &p);
                if !h.is_degenerate() {
                    qt.insert(h);
                }
            }
            qt
        });
        let mut first = QueryStats::default();
        tracer.time("withinleaf.first_pass", || {
            enumerate_cells(&qt, None, 0, &CellEnumOptions::default(), &mut first)
        });
        let result = tracer.time("core.evaluate", || engine.evaluate(focal, &config));
        let answer = QueryAnswer {
            result: Arc::new(result),
            cached: false,
            algorithm: config.algorithm.resolve(data.dims()),
            version: data.version(),
        };
        let payload = tracer.time("protocol.reply_render", || query_payload(&answer, None));
        let decoded = tracer.time("protocol.reply_parse", || json::parse(&payload));
        debug_assert!(decoded.is_ok());
        tracer.end();

        let s = &answer.result.stats;
        add(counts, "quadtree.leaves", qt.leaf_count() as f64);
        add(counts, "core.iterations", s.iterations as f64);
        add(counts, "core.halfspaces", s.halfspaces_inserted as f64);
        add(counts, "core.regions", answer.result.region_count() as f64);
        add(counts, "core.cells_tested", s.cells_tested as f64);
        add(counts, "core.subtrees_pruned", s.subtrees_pruned as f64);
        add(counts, "index.io_reads", s.io_reads as f64);
        add(counts, "geometry.lp_calls", s.lp_calls as f64);
        add(counts, "geometry.witness_hits", s.witness_hits as f64);
        add(counts, "protocol.reply_bytes", payload.len() as f64);
    }
}

/// One standing query of the write-path replay.
struct Standing {
    focal: RecordId,
    result: Arc<MaxRankResult>,
}

/// Replays an update stream through the write path: the copy-on-write
/// apply of a durable replica as a whole (`registry.apply`), then its
/// stages on private copies (clone, index insert/delete, WAL append with
/// fsync), the triage of every delta against every standing query, the
/// re-evaluations triage asks for and the NOTIFY rendering, each as the
/// service's subscription maintenance does them.  Ends with timed
/// checkpoints.
pub fn replay_updates(
    data: &Dataset,
    updates: &[Op],
    subscriptions: &[RecordId],
    dir: &Path,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let registry = DatasetRegistry::new();
    registry.register_loaded_durable(
        DATASET,
        data.clone(),
        &dir.join("replica"),
        DurabilityOptions::default(),
    )?;
    let handle = registry.handle(DATASET).ok_or("replica vanished")?;
    let mut store = DatasetStore::create(&dir.join("store"), data).map_err(|e| e.to_string())?;
    let mut current = (data.clone(), RStarTree::bulk_load(data));
    let config = MaxRankConfig::new();
    let algorithm = config.algorithm.resolve(data.dims());
    let mut standing: Vec<Standing> = subscriptions
        .iter()
        .map(|&focal| Standing {
            focal,
            result: Arc::new(MaxRankQuery::new(&current.0, &current.1).evaluate(focal, &config)),
        })
        .collect();
    let mut inserted: VecDeque<RecordId> = VecDeque::new();

    for op in updates {
        let Op::Update { row, delete_oldest } = op else {
            continue;
        };
        let mut batch = vec![Update::Insert(row.clone())];
        if *delete_oldest {
            batch.extend(inserted.pop_front().map(Update::Delete));
        }
        tracer.begin("layer.update");
        let outcome = tracer
            .time("registry.apply", || handle.apply(&batch))
            .map_err(|e| format!("replica apply: {e}"))?;
        let (mut data, mut tree) = tracer.time("registry.cow_clone", || {
            (current.0.clone(), current.1.clone())
        });
        let mut ops = Vec::with_capacity(batch.len());
        for update in &batch {
            let applied = tracer
                .time("dataset.apply", || data.apply(update))
                .map_err(|e| format!("private apply: {e}"))?;
            match update {
                Update::Insert(row) => {
                    let id = applied.inserted.ok_or("insert without an id")?;
                    tracer.time("index.insert", || tree.insert(id, row));
                    ops.push(WalOp::Insert {
                        id,
                        row: row.clone(),
                    });
                }
                Update::Delete(id) => {
                    tracer.time("index.delete", || tree.delete(*id, data.record(*id)));
                    ops.push(WalOp::Delete { id: *id });
                }
            }
        }
        let wal = WalBatch {
            lsn: data.version(),
            ops,
        };
        let bytes = tracer
            .time("storage.wal_append", || store.append(&wal))
            .map_err(|e| format!("WAL append: {e}"))?;
        add(counts, "storage.wal_bytes", bytes as f64);
        current = (data, tree);
        let (data, tree) = (&current.0, &current.1);

        // Timing only: the triage, repair and re-evaluation counts are the
        // server's own, from its `metrics` verb.
        for sub in &mut standing {
            let focal_row = data.record(sub.focal);
            let mut changed = false;
            for update in &batch {
                let verdict = tracer.time("maintain.triage", || match update {
                    Update::Insert(row) => triage_insert(&sub.result, focal_row, row),
                    Update::Delete(id) => triage_delete(&sub.result, focal_row, data.record(*id)),
                });
                match verdict {
                    DeltaTriage::Unaffected => {}
                    DeltaTriage::RankShift(shift) => {
                        sub.result = tracer.time("maintain.shift", || {
                            Arc::new(shift_result(&sub.result, shift))
                        });
                        changed = true;
                    }
                    DeltaTriage::ReEnumerate => {
                        sub.result = tracer.time("subscriptions.reeval", || {
                            Arc::new(MaxRankQuery::new(data, tree).evaluate(sub.focal, &config))
                        });
                        changed = true;
                        break;
                    }
                }
            }
            if changed {
                let event = NotifyEvent {
                    subscription: 1,
                    dataset: DATASET.to_string(),
                    focal: sub.focal,
                    version: data.version(),
                    kind: NotifyKind::Changed {
                        result: Arc::clone(&sub.result),
                        algorithm,
                    },
                };
                let payload = tracer.time("protocol.notify_render", || notify_payload(&event));
                add(counts, "protocol.notify_bytes", payload.len() as f64);
            }
        }
        tracer.end();
        inserted.extend(outcome.inserted);
    }
    for _ in 0..CHECKPOINTS {
        tracer.begin("layer.checkpoint");
        tracer
            .time("storage.checkpoint", || store.checkpoint(&current.0))
            .map_err(|e| format!("checkpoint: {e}"))?;
        tracer.end();
    }
    Ok(())
}

/// Replays the schedule's cache keys through a [`ResultCache`] of the
/// workload's capacity: a span per lookup, a placeholder result inserted on
/// each miss, stale entries purged at each update as the service does.
pub fn replay_cache(w: &Workload, ops: &[Op], tracer: &mut Tracer) {
    let cache = ResultCache::new(w.service_config().cache_capacity);
    let placeholder = Arc::new(MaxRankResult {
        dims: w.dims,
        k_star: 1,
        tau: 0,
        regions: Vec::new(),
        stats: QueryStats::default(),
    });
    let algorithm = Algorithm::Auto.resolve(w.dims);
    let mut version = 0u64;
    for op in ops {
        match op {
            Op::Query(focal) => {
                let key = CacheKey {
                    dataset: DATASET.to_string(),
                    version,
                    focal: *focal,
                    algorithm,
                    tau: 0,
                };
                if tracer.time("cache.get", || cache.get(&key)).is_none() {
                    cache.insert(key, Arc::clone(&placeholder));
                }
            }
            Op::Update { delete_oldest, .. } => {
                version += 1 + u64::from(*delete_oldest);
                cache.purge_stale(DATASET, version);
            }
        }
    }
}
