//! The benchmark's workloads and the inputs each one draws from `--seed`.
//!
//! All workloads serve the same dataset: `n` independent uniform records in
//! `d` dimensions, written to a CSV file and served as `csv:path=…,dims=d`.
//! The dataset, the standing queries and the multiset of operations a run
//! sends are fixed; the seed decides their order.  MaxRank cost varies by
//! orders of magnitude from one focal record to the next, so with data or
//! focals drawn per seed the runs would mostly measure which records the seed
//! happened to pick.  The program under test only ever sees the file and the
//! operations.

use mrq_data::{synthetic, Dataset, Distribution, RecordId};
use mrq_service::ServiceConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Name under which every workload serves its dataset.
pub const DATASET: &str = "bench";
/// Seed of the served dataset (the same for every run).
pub const DATASET_SEED: u64 = 2015;
/// Every `DELETE_EVERY`-th update also deletes the oldest row the benchmark
/// inserted (the benchmark never deletes a record it did not insert, so every
/// focal of the initial id range stays live).
pub const DELETE_EVERY: usize = 16;
/// Updates a traced run of a read-only workload replays through the
/// write-path layers, so every per-layer metric has a value on every workload.
pub const WRITE_PROBE: usize = 64;
/// Standing queries the write-path probe maintains.
pub const PROBE_SUBSCRIPTIONS: usize = 8;
/// Worker threads of the server: the benchmark is sized for two cores,
/// shared by the load generator and the server.
pub const WORKERS: usize = 2;

/// Which focals a run's queries use.
#[derive(Debug, Clone, Copy)]
pub enum Focals {
    /// Zipf-distributed over every record, with skew `theta`.  Popularity
    /// follows quality: rank `r` is the record with the `r`-th highest
    /// attribute sum.
    Zipf(f64),
    /// Records `0..universe`, each queried equally often (±1).
    Balanced(usize),
}

/// One traffic mix and the server flags it runs against.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in reports.
    pub name: &'static str,
    /// Records in the dataset.
    pub records: usize,
    /// Attributes per record.
    pub dims: usize,
    /// Result-cache entries (`None` keeps the server default of 1024).
    pub cache: Option<usize>,
    /// Serve from a fresh `--data-dir`: every update is appended to the WAL
    /// and fsynced before it is acknowledged.
    pub durable: bool,
    /// Untimed warm-up: every distinct focal of the schedule once.
    pub warm_up: bool,
    /// Open-loop arrival rate over all connections, operations per second.
    pub rate: f64,
    /// Share of the open-loop operations that are updates.
    pub update_share: f64,
    /// How query focals are drawn.
    pub focals: Focals,
    /// Load connections (one load thread each).
    pub connections: usize,
    /// Standing queries registered on a separate subscriber connection.
    pub subscriptions: usize,
}

impl Workload {
    /// Every workload, in the order the suite runs them.
    pub fn all() -> Vec<Workload> {
        let base = Workload {
            name: "",
            records: 1000,
            dims: 3,
            cache: None,
            durable: false,
            warm_up: false,
            rate: 0.0,
            update_share: 0.0,
            focals: Focals::Zipf(0.99),
            connections: 2,
            subscriptions: 0,
        };
        vec![
            // Every timed answer is a cache hit: the time goes to framing,
            // JSON, TCP, connection threads, the pool hand-off and the cache
            // lookup, and evaluation is bypassed.
            Workload {
                name: "hot_read",
                warm_up: true,
                rate: 1000.0,
                ..base.clone()
            },
            // The working set is four times the cache, so most queries run
            // AA: BBS, quad-tree and within-leaf LPs.
            Workload {
                name: "cold_read",
                cache: Some(75),
                rate: 30.0,
                focals: Focals::Balanced(300),
                ..base.clone()
            },
            // Updates through the copy-on-write apply, the WAL, stale-cache
            // purging and subscription maintenance, with reads beside them.
            Workload {
                name: "standing_write",
                durable: true,
                rate: 20.0,
                update_share: 0.5,
                focals: Focals::Zipf(0.8),
                connections: 1,
                subscriptions: 8,
                ..base
            },
        ]
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// The same mix on a small dataset, for smoke tests of debug builds.
    pub fn tiny(mut self) -> Workload {
        self.records = 150;
        if let Focals::Balanced(universe) = &mut self.focals {
            *universe = (*universe).min(self.records);
        }
        self
    }

    /// Flags of a spawned `maxrank-serve` (besides listen address and port
    /// file).
    pub fn server_args(&self, csv: &Path, data_dir: Option<&Path>) -> Vec<String> {
        let mut args = vec![
            "--dataset".to_string(),
            format!("{DATASET}=csv:path={},dims={}", csv.display(), self.dims),
            "--workers".to_string(),
            WORKERS.to_string(),
        ];
        if let Some(cache) = self.cache {
            args.extend(["--cache".to_string(), cache.to_string()]);
        }
        if let Some(dir) = data_dir {
            args.extend(["--data-dir".to_string(), dir.display().to_string()]);
        }
        args
    }

    /// The service configuration equivalent to [`Workload::server_args`].
    pub fn service_config(&self) -> ServiceConfig {
        let defaults = ServiceConfig::default();
        ServiceConfig {
            workers: WORKERS,
            cache_capacity: self.cache.unwrap_or(defaults.cache_capacity),
            ..defaults
        }
    }
}

/// One operation of a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// A MaxRank query on a focal record of the initial id range.
    Query(RecordId),
    /// Insert `row`; with `delete_oldest`, the same batch also deletes the
    /// oldest row the benchmark inserted.
    Update {
        /// The inserted row.
        row: Vec<f64>,
        /// Whether the batch also deletes the oldest benchmark-inserted row.
        delete_oldest: bool,
    },
}

/// Everything a run sends, derived from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The served dataset.
    pub data: Dataset,
    /// Open-loop schedule: operation `i` is due `i / rate` seconds after the
    /// phase starts.
    pub ops: Vec<Op>,
    /// Focals of the standing queries: the most popular records.
    pub subscriptions: Vec<RecordId>,
}

impl Inputs {
    /// Draws a run's inputs: the same seed always gives the same inputs.
    pub fn generate(w: &Workload, seed: u64, seconds: f64) -> Inputs {
        let mut data_rng = StdRng::seed_from_u64(DATASET_SEED);
        let data = synthetic::generate(Distribution::Independent, w.records, w.dims, &mut data_rng);
        let count = (w.rate * seconds).round().max(1.0) as usize;
        let ranked = by_popularity(&data);
        let ops = schedule(w, &ranked, count, mix(seed, 2));
        Inputs {
            data,
            ops,
            subscriptions: ranked[..w.subscriptions].to_vec(),
        }
    }

    /// Distinct query focals of the open-loop schedule, in first-use order.
    pub fn distinct_focals(&self) -> Vec<RecordId> {
        let mut seen = std::collections::HashSet::new();
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Query(f) if seen.insert(*f) => Some(*f),
                _ => None,
            })
            .collect()
    }

    /// The update stream a run of `w` would send, for replaying the write
    /// path: the schedule's own updates, or a probe of [`WRITE_PROBE`]
    /// updates drawn the same way for a read-only workload.
    pub fn write_path(&self, w: &Workload, seed: u64) -> (Vec<Op>, Vec<RecordId>) {
        let updates: Vec<Op> = self
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Update { .. }))
            .cloned()
            .collect();
        if !updates.is_empty() {
            return (updates, self.subscriptions.clone());
        }
        let probe = Workload {
            update_share: 1.0,
            ..w.clone()
        };
        let ranked = by_popularity(&self.data);
        let updates = schedule(&probe, &ranked, WRITE_PROBE, mix(seed, 3));
        (updates, ranked[..PROBE_SUBSCRIPTIONS].to_vec())
    }
}

/// Record ids by descending attribute sum (ties by id): popularity rank
/// order.
fn by_popularity(data: &Dataset) -> Vec<RecordId> {
    let mut ids: Vec<(f64, RecordId)> = data
        .iter()
        .map(|(id, r)| (-r.iter().sum::<f64>(), id))
        .collect();
    ids.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ids.into_iter().map(|(_, id)| id).collect()
}

/// `count` operations: `update_share` of them updates, the rest queries.
/// The multiset (which focals, which inserted rows) is drawn from a fixed
/// stream; `order_seed` shuffles where each operation goes.
fn schedule(w: &Workload, ranked: &[RecordId], count: usize, order_seed: u64) -> Vec<Op> {
    let mut fixed = StdRng::seed_from_u64(mix(DATASET_SEED, 2));
    let mut order = StdRng::seed_from_u64(order_seed);
    let updates = (count as f64 * w.update_share).round() as usize;
    let queries = count - updates;
    let mut focals: Vec<RecordId> = match w.focals {
        Focals::Zipf(theta) => {
            let zipf = Zipf::new(w.records, theta);
            (0..queries)
                .map(|_| ranked[zipf.sample(&mut fixed)])
                .collect()
        }
        Focals::Balanced(universe) => (0..queries).map(|i| (i % universe) as RecordId).collect(),
    };
    let mut rows: Vec<Vec<f64>> = (0..updates)
        .map(|_| (0..w.dims).map(|_| fixed.gen::<f64>()).collect())
        .collect();
    let mut is_update: Vec<bool> = (0..count).map(|i| i < updates).collect();
    shuffle(&mut focals, &mut order);
    shuffle(&mut rows, &mut order);
    shuffle(&mut is_update, &mut order);
    let (mut focals, mut rows) = (focals.into_iter(), rows.into_iter());
    let mut done = 0;
    is_update
        .into_iter()
        .map(|update| {
            if update {
                done += 1;
                Op::Update {
                    row: rows.next().expect("one row per update"),
                    delete_oldest: done % DELETE_EVERY == 0,
                }
            } else {
                Op::Query(focals.next().expect("one focal per query"))
            }
        })
        .collect()
}

/// Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Zipf sampler over ranks `0..n` (`P(r) ∝ 1/(r+1)^θ`), by binary search
/// over the cumulative weights.  Ranks map to record ids directly: the
/// records are independent draws, so any fixed mapping is as good.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(theta);
                total
            })
            .collect();
        Self { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("empty zipf table");
        let u = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c <= u)
    }
}

/// Derives an independent stream seed (SplitMix64 finaliser).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let w = Workload::by_name("standing_write").unwrap().tiny();
        let a = Inputs::generate(&w, 7, 4.0);
        let b = Inputs::generate(&w, 7, 4.0);
        let c = Inputs::generate(&w, 8, 4.0);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, c.ops);
        assert_eq!(a.ops.len(), 80);
        assert_eq!(a.subscriptions.len(), 8);
        // The standing queries sit on the best records by attribute sum.
        let sum = |id: RecordId| a.data.record(id).iter().sum::<f64>();
        let best = a
            .data
            .iter()
            .map(|(_, r)| r.iter().sum::<f64>())
            .fold(0.0, f64::max);
        assert_eq!(sum(a.subscriptions[0]), best);
        assert!(a.subscriptions.windows(2).all(|p| sum(p[0]) >= sum(p[1])));
    }

    #[test]
    fn every_sixteenth_update_deletes() {
        let w = Workload::by_name("standing_write").unwrap().tiny();
        let inputs = Inputs::generate(&w, 3, 40.0);
        let flags: Vec<bool> = inputs
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Update { delete_oldest, .. } => Some(*delete_oldest),
                Op::Query(_) => None,
            })
            .collect();
        for (i, flag) in flags.iter().enumerate() {
            assert_eq!(*flag, (i + 1) % DELETE_EVERY == 0, "update {i}");
        }
    }

    #[test]
    fn balanced_focals_cover_the_universe_evenly() {
        let w = Workload::by_name("cold_read").unwrap();
        let inputs = Inputs::generate(&w, 11, 20.0);
        let Focals::Balanced(universe) = w.focals else {
            panic!("cold_read draws balanced focals");
        };
        let mut counts = vec![0usize; universe];
        for op in &inputs.ops {
            let Op::Query(f) = op else {
                panic!("read-only")
            };
            counts[*f as usize] += 1;
        }
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "{lo}..{hi}");
        assert_ne!(inputs.ops, Inputs::generate(&w, 12, 20.0).ops);
    }

    #[test]
    fn read_workloads_get_a_write_probe() {
        let w = Workload::by_name("cold_read").unwrap().tiny();
        let inputs = Inputs::generate(&w, 5, 2.0);
        assert!(inputs.ops.iter().all(|op| matches!(op, Op::Query(_))));
        let (updates, subs) = inputs.write_path(&w, 5);
        assert_eq!(updates.len(), WRITE_PROBE);
        assert_eq!(subs.len(), PROBE_SUBSCRIPTIONS);
    }
}
