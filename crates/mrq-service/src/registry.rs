//! The dataset registry: load or generate each named dataset **once**, build
//! its R\*-tree index once, and hand out `Arc` handles that every worker
//! thread (and every request) shares.
//!
//! This is the piece that turns the one-shot CLI shape ("load CSV, build
//! tree, answer one query, exit") into a serving shape: index construction is
//! amortised over the lifetime of the process.
//!
//! # Snapshots and versions
//!
//! A registered name resolves to a [`DatasetHandle`], which owns the
//! *current* immutable snapshot ([`DatasetEntry`]: dataset + index + the
//! dataset's version).  Queries take an `Arc` of the snapshot and keep using
//! it for their whole lifetime, so a concurrent update never moves data out
//! from under an evaluation.  [`DatasetHandle::apply`] is copy-on-write: it
//! clones the snapshot, applies the batch through `Dataset::apply` and the
//! R\*-tree's incremental `insert`/`delete`, and atomically swaps the handle
//! to the new snapshot.  Updates to one dataset are serialized by a
//! per-handle mutex; queries are never blocked (they read the previous
//! snapshot until the swap).  A batch is atomic: if any update in it is
//! rejected the swap does not happen and the visible snapshot is unchanged.
//!
//! # Durability
//!
//! [`DatasetRegistry::register_durable`] backs a dataset with an on-disk
//! store (`mrq_data::storage`): a binary snapshot plus a write-ahead log.
//! [`DatasetHandle::apply`] then appends each batch to the WAL (fsynced)
//! *before* swapping the new snapshot in, so a batch is committed exactly
//! when it is durable; when the log outgrows
//! [`DurabilityOptions::checkpoint_wal_bytes`] the snapshot is rewritten and
//! the log truncated.  On restart the registry recovers the dataset from
//! disk (snapshot load + idempotent WAL replay with torn-tail detection)
//! and reports what it did through [`RecoveryReport`] and the cumulative
//! [`DurabilityStats`].

use crate::sync::{lock_or_recover, read_or_recover, write_or_recover};
use mrq_core::MaxRankQuery;
use mrq_data::io::read_csv;
use mrq_data::storage::{DatasetStore, RecoveryReport, WalBatch, WalOp};
use mrq_data::{synthetic, Dataset, Distribution, RealDataset, RecordId, Update, UpdateError};
use mrq_index::RStarTree;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// How many `(request_id → receipt)` pairs each dataset remembers for
/// exactly-once UPDATE retries (see [`DatasetHandle::apply_with_id`]).  Old
/// entries fall out FIFO; a retry arriving after its receipt was evicted is
/// re-applied, so clients should keep retry horizons well under the window.
pub const DEDUP_WINDOW: usize = 128;

/// One immutable snapshot of a dataset: records, index, version.
#[derive(Debug)]
pub struct DatasetEntry {
    name: String,
    data: Dataset,
    tree: RStarTree,
}

impl DatasetEntry {
    /// Builds an entry by bulk-loading the R\*-tree over `data`.
    pub fn build(name: impl Into<String>, data: Dataset) -> Self {
        let tree = RStarTree::bulk_load(&data);
        Self {
            name: name.into(),
            data,
            tree,
        }
    }

    /// The registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dataset.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// The shared R\*-tree index.
    pub fn tree(&self) -> &RStarTree {
        &self.tree
    }

    /// The dataset version this snapshot was taken at (see
    /// [`mrq_data::Dataset::version`]).  Result-cache keys carry it so a
    /// cached answer can never outlive the data it was computed from.
    pub fn version(&self) -> u64 {
        self.data.version()
    }

    /// A query engine borrowing this entry's dataset and index.
    pub fn engine(&self) -> MaxRankQuery<'_> {
        MaxRankQuery::new(&self.data, &self.tree)
    }
}

/// Receipt of one applied update batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Dataset version after the batch.
    pub version: u64,
    /// Ids assigned to the batch's insertions, in input order.
    pub inserted: Vec<RecordId>,
    /// Number of records deleted by the batch.
    pub deleted: usize,
    /// Live records after the batch.
    pub records: usize,
}

/// Durable-registration knobs (see [`DatasetRegistry::register_durable`]).
#[derive(Debug, Clone, Copy)]
pub struct DurabilityOptions {
    /// When the WAL grows past this many bytes, the next applied batch
    /// triggers a checkpoint (snapshot rewrite + log truncation).
    pub checkpoint_wal_bytes: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            checkpoint_wal_bytes: 4 * 1024 * 1024,
        }
    }
}

/// Cumulative durability counters, shared by every durable dataset of one
/// registry.  All counters are **real** file I/O — bytes genuinely written
/// to or read from disk — in contrast to the simulated per-query `io_reads`
/// cost model (see the `mrq_data::storage` and `mrq_index::iostats` docs).
#[derive(Debug, Default)]
struct DurabilityBook {
    durable_datasets: AtomicU64,
    recovered_datasets: AtomicU64,
    wal_batches_replayed: AtomicU64,
    torn_bytes_discarded: AtomicU64,
    recovery_pages_read: AtomicU64,
    wal_appends: AtomicU64,
    wal_appended_bytes: AtomicU64,
    checkpoints: AtomicU64,
}

impl DurabilityBook {
    fn record_recovery(&self, report: &RecoveryReport) {
        self.recovered_datasets.fetch_add(1, Ordering::Relaxed);
        self.wal_batches_replayed
            .fetch_add(report.batches_replayed, Ordering::Relaxed);
        self.torn_bytes_discarded
            .fetch_add(report.torn_bytes_discarded, Ordering::Relaxed);
        self.recovery_pages_read
            .fetch_add(report.pages_read, Ordering::Relaxed);
    }

    fn snapshot(&self) -> DurabilityStats {
        DurabilityStats {
            durable_datasets: self.durable_datasets.load(Ordering::Relaxed),
            recovered_datasets: self.recovered_datasets.load(Ordering::Relaxed),
            wal_batches_replayed: self.wal_batches_replayed.load(Ordering::Relaxed),
            torn_bytes_discarded: self.torn_bytes_discarded.load(Ordering::Relaxed),
            recovery_pages_read: self.recovery_pages_read.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_appended_bytes: self.wal_appended_bytes.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time durability counters, exported through `metrics` (see
/// [`DatasetRegistry::durability_stats`]).  All zeros when no dataset was
/// registered durably.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Datasets currently backed by an on-disk store.
    pub durable_datasets: u64,
    /// Datasets recovered from an existing store at registration time.
    pub recovered_datasets: u64,
    /// WAL batches replayed across all recoveries.
    pub wal_batches_replayed: u64,
    /// Torn WAL tail bytes discarded across all recoveries.
    pub torn_bytes_discarded: u64,
    /// Real 4 KiB pages read from disk during recovery (actual file reads,
    /// *not* the paper's simulated page-access model).
    pub recovery_pages_read: u64,
    /// Update batches appended (and fsynced) to write-ahead logs.
    pub wal_appends: u64,
    /// Bytes appended to write-ahead logs.
    pub wal_appended_bytes: u64,
    /// Checkpoints taken (snapshot rewrite + WAL truncation).
    pub checkpoints: u64,
}

/// The storage side of a durable handle: the open store plus the
/// checkpoint policy and the registry-wide counter book.
#[derive(Debug)]
struct DurableState {
    store: Mutex<DatasetStore>,
    options: DurabilityOptions,
    book: Arc<DurabilityBook>,
}

/// A bounded FIFO window of applied-update receipts keyed by client
/// `request_id`, giving UPDATE retries exactly-once semantics (the retry
/// replays the receipt instead of re-applying the batch).
#[derive(Debug, Default)]
struct DedupWindow {
    receipts: HashMap<String, UpdateOutcome>,
    order: VecDeque<String>,
}

impl DedupWindow {
    fn get(&self, id: &str) -> Option<&UpdateOutcome> {
        self.receipts.get(id)
    }

    fn record(&mut self, id: &str, outcome: &UpdateOutcome) {
        if self
            .receipts
            .insert(id.to_string(), outcome.clone())
            .is_none()
        {
            self.order.push_back(id.to_string());
            while self.order.len() > DEDUP_WINDOW {
                if let Some(old) = self.order.pop_front() {
                    self.receipts.remove(&old);
                }
            }
        }
    }
}

/// The mutable cell behind a registered name: the current snapshot plus the
/// per-dataset update serialization lock (and, for durable datasets, the
/// on-disk store).
#[derive(Debug)]
pub struct DatasetHandle {
    current: RwLock<Arc<DatasetEntry>>,
    /// Serializes [`DatasetHandle::apply`] calls; queries never take it.
    update_lock: Mutex<()>,
    /// Present when the dataset is backed by a snapshot + WAL on disk.
    durable: Option<DurableState>,
    /// `Some(reason)` once a storage failure put the dataset into degraded
    /// read-only mode.  Never cleared in-process: a restart against a
    /// healthy disk recovers from the last durable state instead.
    degraded: Mutex<Option<String>>,
    /// Receipts for exactly-once UPDATE retries.
    dedup: Mutex<DedupWindow>,
}

impl DatasetHandle {
    fn new(entry: Arc<DatasetEntry>) -> Self {
        Self {
            current: RwLock::new(entry),
            update_lock: Mutex::new(()),
            durable: None,
            degraded: Mutex::new(None),
            dedup: Mutex::new(DedupWindow::default()),
        }
    }

    fn new_durable(entry: Arc<DatasetEntry>, state: DurableState) -> Self {
        Self {
            current: RwLock::new(entry),
            update_lock: Mutex::new(()),
            durable: Some(state),
            degraded: Mutex::new(None),
            dedup: Mutex::new(DedupWindow::default()),
        }
    }

    /// The degradation reason, if a storage failure put this dataset into
    /// read-only mode.
    pub fn degraded(&self) -> Option<String> {
        lock_or_recover(&self.degraded).clone()
    }

    fn mark_degraded(&self, reason: &str) {
        let mut slot = lock_or_recover(&self.degraded);
        if slot.is_none() {
            *slot = Some(reason.to_string());
        }
    }

    /// Checkpoints a durable dataset now (no-op returning `false` for an
    /// in-memory one): rewrites the snapshot at the current version and
    /// truncates the WAL.
    pub fn checkpoint(&self) -> Result<bool, UpdateError> {
        let Some(dur) = &self.durable else {
            return Ok(false);
        };
        let _serial = lock_or_recover(&self.update_lock);
        if let Some(reason) = self.degraded() {
            return Err(UpdateError::Degraded(reason));
        }
        let snap = self.snapshot();
        // Fail-stop on poison (see `crate::sync`): a panic mid-append leaves
        // the store's in-memory offset disagreeing with the file.
        let mut store = dur.store.lock().expect("store lock poisoned");
        store
            .checkpoint(&snap.data)
            .map_err(|e| UpdateError::Storage(e.to_string()))?;
        dur.book.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(true)
    }

    /// The current snapshot (a cheap `Arc` clone).
    pub fn snapshot(&self) -> Arc<DatasetEntry> {
        Arc::clone(&read_or_recover(&self.current))
    }

    /// Applies an update batch copy-on-write and swaps in the new snapshot.
    ///
    /// The batch is atomic: on the first rejected update the whole batch is
    /// discarded and the visible snapshot stays as it was.  Concurrent
    /// `apply` calls on the same handle are serialized; queries keep reading
    /// the previous snapshot until the swap and finish on whichever snapshot
    /// they started with.
    ///
    /// For a durable dataset the batch is appended to the write-ahead log
    /// (and fsynced) **before** the snapshot swap — durability before
    /// visibility, so a crash can lose at most updates that were never
    /// acknowledged.  A failed append ([`UpdateError::Storage`]) discards
    /// the batch entirely **and** transitions the dataset into degraded
    /// read-only mode: queries keep serving the last durable snapshot,
    /// further updates are refused with [`UpdateError::Degraded`] until the
    /// process restarts against a healthy disk.
    pub fn apply(&self, updates: &[Update]) -> Result<UpdateOutcome, UpdateError> {
        self.apply_with_id(updates, None)
            .map(|(outcome, _)| outcome)
    }

    /// Like [`DatasetHandle::apply`], with an optional client-generated
    /// `request_id` for exactly-once retries.  When the id matches a receipt
    /// in the bounded dedup window (see [`DEDUP_WINDOW`]) the batch is *not*
    /// re-applied; the original receipt is returned with the replay flag
    /// set.  The window is consulted and recorded under the per-dataset
    /// update lock, so a retry racing its original observes the receipt.
    pub fn apply_with_id(
        &self,
        updates: &[Update],
        request_id: Option<&str>,
    ) -> Result<(UpdateOutcome, bool), UpdateError> {
        let _serial = lock_or_recover(&self.update_lock);
        if let Some(id) = request_id {
            if let Some(receipt) = lock_or_recover(&self.dedup).get(id) {
                return Ok((receipt.clone(), true));
            }
        }
        if let Some(reason) = self.degraded() {
            return Err(UpdateError::Degraded(reason));
        }
        let base = self.snapshot();
        let mut data = base.data.clone();
        let mut tree = base.tree.clone();
        let mut inserted = Vec::new();
        let mut deleted = 0usize;
        let mut ops = Vec::with_capacity(updates.len());
        for update in updates {
            let applied = data.apply(update)?;
            match update {
                Update::Insert(row) => {
                    let id = applied.inserted.expect("insert reports an id");
                    tree.insert(id, row);
                    inserted.push(id);
                    ops.push(WalOp::Insert {
                        id,
                        row: row.clone(),
                    });
                }
                Update::Delete(id) => {
                    // The tombstoned slot still exposes its coordinates,
                    // which is exactly what the tree search needs.
                    let found = tree.delete(*id, data.record(*id));
                    debug_assert!(found, "dataset and index disagree on id {id}");
                    deleted += 1;
                    ops.push(WalOp::Delete { id: *id });
                }
            }
        }
        let mut checkpoint_failure = None;
        if let Some(dur) = &self.durable {
            // Fail-stop on poison (see `crate::sync`): a panic mid-append
            // leaves the store's in-memory offset disagreeing with the file.
            let mut store = dur.store.lock().expect("store lock poisoned");
            let batch = WalBatch {
                lsn: data.version(),
                ops,
            };
            let bytes = match store.append(&batch) {
                Ok(bytes) => bytes,
                Err(e) => {
                    // Not durable ⇒ not committed: reject the batch before
                    // the swap and go read-only.
                    let reason = e.to_string();
                    self.mark_degraded(&reason);
                    return Err(UpdateError::Storage(reason));
                }
            };
            dur.book.wal_appends.fetch_add(1, Ordering::Relaxed);
            dur.book
                .wal_appended_bytes
                .fetch_add(bytes, Ordering::Relaxed);
            if store.wal_bytes() > dur.options.checkpoint_wal_bytes {
                match store.checkpoint(&data) {
                    Ok(_) => {
                        dur.book.checkpoints.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        // The batch *is* durable (its append fsynced), so it
                        // commits; only the snapshot rewrite failed.  Recovery
                        // replays the longer WAL, and the dataset degrades so
                        // the unbounded log cannot keep growing.
                        checkpoint_failure = Some(e.to_string());
                    }
                }
            }
        }
        let entry = Arc::new(DatasetEntry {
            name: base.name.clone(),
            data,
            tree,
        });
        let outcome = UpdateOutcome {
            version: entry.version(),
            inserted,
            deleted,
            records: entry.data.live_len(),
        };
        // Swap under the write lock, free after releasing it: dropping the
        // superseded snapshot may free a whole dataset and tree, and
        // `snapshot()` readers must not wait for that.
        let superseded = std::mem::replace(&mut *write_or_recover(&self.current), entry);
        drop(superseded);
        if let Some(id) = request_id {
            lock_or_recover(&self.dedup).record(id, &outcome);
        }
        if let Some(reason) = checkpoint_failure {
            self.mark_degraded(&format!("checkpoint failed: {reason}"));
        }
        Ok((outcome, false))
    }
}

/// How to materialise a named dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// The paper's Figure 1 six-record example (focal record id 5).
    Demo,
    /// A synthetic benchmark distribution.
    Synthetic {
        /// IND / COR / ANTI.
        dist: Distribution,
        /// Cardinality.
        n: usize,
        /// Dimensionality.
        d: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A simulated real dataset, scaled.
    Real {
        /// Which of the five paper datasets.
        which: RealDataset,
        /// Cardinality scale factor (1.0 = paper cardinality).
        scale: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A CSV file on disk (one record per line, optional header).
    Csv {
        /// File path.
        path: PathBuf,
        /// Dimensionality.
        dims: usize,
    },
}

impl DatasetSpec {
    /// Parses the spec grammar used by `maxrank-serve --dataset NAME=SPEC`:
    ///
    /// ```text
    /// demo
    /// ind:n=1000,d=3,seed=42        (also cor: / anti:)
    /// hotel:scale=0.01,seed=1       (also house / nba / pitch / bat)
    /// csv:path=options.csv,dims=4
    /// ```
    pub fn parse(s: &str) -> Result<DatasetSpec, String> {
        let (head, rest) = match s.split_once(':') {
            Some((h, r)) => (h, r),
            None => (s, ""),
        };
        let mut params: HashMap<&str, &str> = HashMap::new();
        for kv in rest.split(',').filter(|kv| !kv.is_empty()) {
            let (k, v) = kv
                .split_once('=')
                .ok_or_else(|| format!("malformed parameter '{kv}' (expected key=value)"))?;
            params.insert(k.trim(), v.trim());
        }
        let num = |key: &str, default: u64| -> Result<u64, String> {
            match params.get(key) {
                None => Ok(default),
                Some(v) => v.parse().map_err(|e| format!("{key}: {e}")),
            }
        };
        match head {
            "demo" => Ok(DatasetSpec::Demo),
            "ind" | "cor" | "anti" => {
                let dist = match head {
                    "ind" => Distribution::Independent,
                    "cor" => Distribution::Correlated,
                    _ => Distribution::AntiCorrelated,
                };
                Ok(DatasetSpec::Synthetic {
                    dist,
                    n: num("n", 1000)? as usize,
                    d: num("d", 3)? as usize,
                    seed: num("seed", 2015)?,
                })
            }
            "hotel" | "house" | "nba" | "pitch" | "bat" => {
                let which = match head {
                    "hotel" => RealDataset::Hotel,
                    "house" => RealDataset::House,
                    "nba" => RealDataset::Nba,
                    "pitch" => RealDataset::Pitch,
                    _ => RealDataset::Bat,
                };
                let scale = match params.get("scale") {
                    None => 0.01,
                    Some(v) => v.parse().map_err(|e| format!("scale: {e}"))?,
                };
                Ok(DatasetSpec::Real {
                    which,
                    scale,
                    seed: num("seed", 2015)?,
                })
            }
            "csv" => {
                let path = params
                    .get("path")
                    .ok_or("csv spec needs path=FILE")?
                    .to_string();
                let dims = num("dims", 0)? as usize;
                if dims < 2 {
                    return Err("csv spec needs dims=D with D >= 2".into());
                }
                Ok(DatasetSpec::Csv {
                    path: PathBuf::from(path),
                    dims,
                })
            }
            other => Err(format!(
                "unknown dataset kind '{other}' (expected demo, ind, cor, anti, \
                 hotel, house, nba, pitch, bat or csv)"
            )),
        }
    }

    /// Materialises the dataset this spec describes.
    pub fn materialize(&self) -> Result<Dataset, String> {
        match self {
            DatasetSpec::Demo => Ok(Dataset::from_rows(
                2,
                &[
                    vec![0.8, 0.9],
                    vec![0.2, 0.7],
                    vec![0.9, 0.4],
                    vec![0.7, 0.2],
                    vec![0.4, 0.3],
                    vec![0.5, 0.5],
                ],
            )),
            DatasetSpec::Synthetic { dist, n, d, seed } => {
                if *d < 2 {
                    return Err("synthetic datasets need d >= 2".into());
                }
                let mut rng = StdRng::seed_from_u64(*seed);
                Ok(synthetic::generate(*dist, *n, *d, &mut rng))
            }
            DatasetSpec::Real { which, scale, seed } => {
                // `partial_cmp` so NaN is rejected alongside non-positives.
                if scale.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                    return Err("real dataset scale must be positive".into());
                }
                let mut rng = StdRng::seed_from_u64(*seed);
                Ok(which.generate_scaled(*scale, &mut rng))
            }
            DatasetSpec::Csv { path, dims } => {
                read_csv(path, *dims).map_err(|e| format!("{}: {e}", path.display()))
            }
        }
    }

    /// The dimensionality this spec would materialise to — known without
    /// materialising it.  Used to cross-check a recovered store against the
    /// spec it is registered under.
    pub fn dims(&self) -> usize {
        match self {
            DatasetSpec::Demo => 2,
            DatasetSpec::Synthetic { d, .. } => *d,
            DatasetSpec::Real { which, .. } => which.spec().dims,
            DatasetSpec::Csv { dims, .. } => *dims,
        }
    }
}

/// A named collection of loaded datasets and their indexes.
///
/// `register*` loads/generates the data and bulk-loads the index eagerly, so
/// the first query pays nothing; `get` is a cheap `Arc` clone under a read
/// lock.  Registering an existing name is an error — a serving process should
/// not silently swap the data a cache key refers to (updates move a dataset
/// *forward* through [`DatasetHandle::apply`], which versions every step).
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    entries: RwLock<HashMap<String, Arc<DatasetHandle>>>,
    durability: Arc<DurabilityBook>,
}

impl DatasetRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a dataset from a spec, loading it eagerly.
    pub fn register(&self, name: &str, spec: &DatasetSpec) -> Result<Arc<DatasetEntry>, String> {
        let data = spec.materialize()?;
        self.register_loaded(name, data)
    }

    /// Registers an already-loaded dataset (builds the index here).
    pub fn register_loaded(&self, name: &str, data: Dataset) -> Result<Arc<DatasetEntry>, String> {
        Self::validate_name(name)?;
        if data.is_empty() {
            return Err(format!("dataset '{name}' is empty"));
        }
        self.insert_entry(name, data, None)
    }

    /// Registers a dataset backed by an on-disk store at `data_dir/name`.
    ///
    /// If a store already exists there, the dataset is **recovered** from it
    /// (snapshot + WAL replay; the spec is only cross-checked for matching
    /// dimensionality) and the returned report says what recovery did.
    /// Otherwise the spec is materialised and a fresh store is created.
    pub fn register_durable(
        &self,
        name: &str,
        spec: &DatasetSpec,
        data_dir: &Path,
        options: DurabilityOptions,
    ) -> Result<(Arc<DatasetEntry>, Option<RecoveryReport>), String> {
        Self::validate_name(name)?;
        let dir = data_dir.join(name);
        if DatasetStore::exists(&dir) {
            let (store, data, report) =
                DatasetStore::open(&dir).map_err(|e| format!("dataset '{name}': {e}"))?;
            if data.dims() != spec.dims() {
                return Err(format!(
                    "dataset '{name}': the store at {} holds {}-dimensional records but the \
                     spec describes {} dimensions (refusing to serve mismatched data)",
                    dir.display(),
                    data.dims(),
                    spec.dims()
                ));
            }
            self.durability.record_recovery(&report);
            let entry = self.insert_durable(name, data, store, options)?;
            Ok((entry, Some(report)))
        } else {
            let data = spec.materialize()?;
            if data.is_empty() {
                return Err(format!("dataset '{name}' is empty"));
            }
            let store =
                DatasetStore::create(&dir, &data).map_err(|e| format!("dataset '{name}': {e}"))?;
            let entry = self.insert_durable(name, data, store, options)?;
            Ok((entry, None))
        }
    }

    /// Like [`DatasetRegistry::register_durable`] but with an in-memory
    /// initial state instead of a spec: `initial` seeds the store on first
    /// registration and is **ignored** when a store already exists at
    /// `data_dir/name` (the disk state, which includes every durably
    /// committed update, wins).
    pub fn register_loaded_durable(
        &self,
        name: &str,
        initial: Dataset,
        data_dir: &Path,
        options: DurabilityOptions,
    ) -> Result<(Arc<DatasetEntry>, Option<RecoveryReport>), String> {
        Self::validate_name(name)?;
        let dir = data_dir.join(name);
        if DatasetStore::exists(&dir) {
            let (store, data, report) =
                DatasetStore::open(&dir).map_err(|e| format!("dataset '{name}': {e}"))?;
            self.durability.record_recovery(&report);
            let entry = self.insert_durable(name, data, store, options)?;
            Ok((entry, Some(report)))
        } else {
            if initial.is_empty() {
                return Err(format!("dataset '{name}' is empty"));
            }
            let store = DatasetStore::create(&dir, &initial)
                .map_err(|e| format!("dataset '{name}': {e}"))?;
            let entry = self.insert_durable(name, initial, store, options)?;
            Ok((entry, None))
        }
    }

    fn validate_name(name: &str) -> Result<(), String> {
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "invalid dataset name '{name}' (use ASCII letters, digits, '-', '_')"
            ));
        }
        Ok(())
    }

    fn insert_durable(
        &self,
        name: &str,
        data: Dataset,
        store: DatasetStore,
        options: DurabilityOptions,
    ) -> Result<Arc<DatasetEntry>, String> {
        let state = DurableState {
            store: Mutex::new(store),
            options,
            book: Arc::clone(&self.durability),
        };
        let entry = self.insert_entry(name, data, Some(state))?;
        self.durability
            .durable_datasets
            .fetch_add(1, Ordering::Relaxed);
        Ok(entry)
    }

    fn insert_entry(
        &self,
        name: &str,
        data: Dataset,
        durable: Option<DurableState>,
    ) -> Result<Arc<DatasetEntry>, String> {
        // Check the name *before* paying for the index build (seconds on
        // large datasets); re-check under the write lock in case two
        // registrations raced past the pre-check.
        let taken = |map: &HashMap<String, Arc<DatasetHandle>>| {
            map.contains_key(name)
                .then(|| format!("dataset '{name}' is already registered"))
        };
        if let Some(err) = taken(&read_or_recover(&self.entries)) {
            return Err(err);
        }
        let entry = Arc::new(DatasetEntry::build(name, data));
        let handle = match durable {
            None => DatasetHandle::new(Arc::clone(&entry)),
            Some(state) => DatasetHandle::new_durable(Arc::clone(&entry), state),
        };
        let mut map = write_or_recover(&self.entries);
        if let Some(err) = taken(&map) {
            return Err(err);
        }
        map.insert(name.to_string(), Arc::new(handle));
        Ok(entry)
    }

    /// Checkpoints every durable dataset (snapshot rewrite + WAL
    /// truncation), e.g. on clean shutdown so the next start is a pure
    /// snapshot load.  Returns how many datasets were checkpointed.
    pub fn checkpoint_all(&self) -> Result<usize, String> {
        let handles: Vec<(String, Arc<DatasetHandle>)> = {
            let map = read_or_recover(&self.entries);
            map.iter()
                .map(|(name, handle)| (name.clone(), Arc::clone(handle)))
                .collect()
        };
        let mut checkpointed = 0;
        for (name, handle) in handles {
            match handle.checkpoint() {
                Ok(true) => checkpointed += 1,
                Ok(false) => {}
                Err(e) => return Err(format!("dataset '{name}': {e}")),
            }
        }
        Ok(checkpointed)
    }

    /// Point-in-time durability counters (all zeros when nothing is
    /// durable).
    pub fn durability_stats(&self) -> DurabilityStats {
        self.durability.snapshot()
    }

    /// Looks up the **current snapshot** of a dataset by name.  The returned
    /// entry stays valid (and unchanged) however many updates land after the
    /// call.
    pub fn get(&self, name: &str) -> Option<Arc<DatasetEntry>> {
        self.handle(name).map(|h| h.snapshot())
    }

    /// Looks up the mutable handle of a dataset by name (for updates).
    pub fn handle(&self, name: &str) -> Option<Arc<DatasetHandle>> {
        read_or_recover(&self.entries).get(name).cloned()
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_or_recover(&self.entries).keys().cloned().collect();
        names.sort();
        names
    }

    /// The names of datasets currently in degraded read-only mode, sorted
    /// (exported as the `mrq_dataset_degraded` gauge).
    pub fn degraded_datasets(&self) -> Vec<String> {
        let mut names: Vec<String> = read_or_recover(&self.entries)
            .iter()
            .filter(|(_, handle)| handle.degraded().is_some())
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        read_or_recover(&self.entries).len()
    }

    /// Whether no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_materialize_synthetic() {
        let spec = DatasetSpec::parse("ind:n=50,d=3,seed=7").unwrap();
        assert_eq!(
            spec,
            DatasetSpec::Synthetic {
                dist: Distribution::Independent,
                n: 50,
                d: 3,
                seed: 7
            }
        );
        let data = spec.materialize().unwrap();
        assert_eq!(data.len(), 50);
        assert_eq!(data.dims(), 3);
    }

    #[test]
    fn parse_defaults_and_errors() {
        assert_eq!(DatasetSpec::parse("demo").unwrap(), DatasetSpec::Demo);
        assert!(matches!(
            DatasetSpec::parse("anti").unwrap(),
            DatasetSpec::Synthetic { n: 1000, d: 3, .. }
        ));
        assert!(DatasetSpec::parse("nope:n=3").is_err());
        assert!(DatasetSpec::parse("ind:n").is_err());
        assert!(
            DatasetSpec::parse("csv:path=x.csv").is_err(),
            "dims required"
        );
    }

    #[test]
    fn parse_real() {
        let spec = DatasetSpec::parse("hotel:scale=0.002,seed=3").unwrap();
        let data = spec.materialize().unwrap();
        assert_eq!(data.dims(), 4);
        assert!(data.len() >= 100);
    }

    #[test]
    fn register_and_get() {
        let reg = DatasetRegistry::new();
        let entry = reg.register("demo", &DatasetSpec::Demo).unwrap();
        assert_eq!(entry.data().len(), 6);
        assert_eq!(entry.tree().len(), 6);
        let same = reg.get("demo").unwrap();
        assert!(Arc::ptr_eq(&entry, &same));
        assert!(reg.get("missing").is_none());
        assert_eq!(reg.names(), vec!["demo".to_string()]);
    }

    #[test]
    fn duplicate_and_invalid_names_rejected() {
        let reg = DatasetRegistry::new();
        reg.register("a", &DatasetSpec::Demo).unwrap();
        assert!(reg.register("a", &DatasetSpec::Demo).is_err());
        assert!(reg.register("bad name", &DatasetSpec::Demo).is_err());
        assert!(reg.register("", &DatasetSpec::Demo).is_err());
    }

    #[test]
    fn entry_engine_answers_figure1() {
        let reg = DatasetRegistry::new();
        let entry = reg.register("demo", &DatasetSpec::Demo).unwrap();
        let res = entry.engine().evaluate(5, &mrq_core::MaxRankConfig::new());
        assert_eq!(res.k_star, 3);
    }

    #[test]
    fn apply_swaps_snapshot_and_leaves_old_one_intact() {
        let reg = DatasetRegistry::new();
        reg.register("demo", &DatasetSpec::Demo).unwrap();
        let handle = reg.handle("demo").unwrap();
        let before = handle.snapshot();
        assert_eq!(before.version(), 0);

        let outcome = handle
            .apply(&[Update::Insert(vec![0.95, 0.95]), Update::Delete(0)])
            .unwrap();
        assert_eq!(outcome.version, 2);
        assert_eq!(outcome.inserted, vec![6]);
        assert_eq!(outcome.deleted, 1);
        assert_eq!(outcome.records, 6);

        // The old snapshot is untouched: in-flight queries finish on it.
        assert_eq!(before.version(), 0);
        assert_eq!(before.data().live_len(), 6);
        assert!(before.data().is_live(0));
        assert_eq!(before.tree().len(), 6);

        // The handle now serves the new snapshot, with a consistent index.
        let after = reg.get("demo").unwrap();
        assert_eq!(after.version(), 2);
        assert!(!after.data().is_live(0));
        assert!(after.data().is_live(6));
        assert_eq!(after.tree().len(), 6);
        after.tree().check_invariants().unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
    }

    #[test]
    fn apply_batch_is_atomic_on_rejection() {
        let reg = DatasetRegistry::new();
        reg.register("demo", &DatasetSpec::Demo).unwrap();
        let handle = reg.handle("demo").unwrap();
        let err = handle
            .apply(&[
                Update::Insert(vec![0.5, 0.6]),
                Update::Delete(42), // rejected: no such record
            ])
            .unwrap_err();
        assert_eq!(err, mrq_data::UpdateError::NoSuchRecord(42));
        // Nothing of the batch is visible.
        let snap = handle.snapshot();
        assert_eq!(snap.version(), 0);
        assert_eq!(snap.data().live_len(), 6);
    }

    #[test]
    fn apply_with_id_replays_receipt_instead_of_reapplying() {
        let reg = DatasetRegistry::new();
        reg.register("demo", &DatasetSpec::Demo).unwrap();
        let handle = reg.handle("demo").unwrap();
        let batch = vec![Update::Insert(vec![0.1, 0.2])];
        let (first, replayed) = handle.apply_with_id(&batch, Some("req-1")).unwrap();
        assert!(!replayed);
        assert_eq!(first.version, 1);
        // The retry does not double-apply: same receipt, same version.
        let (second, replayed) = handle.apply_with_id(&batch, Some("req-1")).unwrap();
        assert!(replayed);
        assert_eq!(first, second);
        assert_eq!(handle.snapshot().version(), 1);
        // A different id is a different request.
        let (third, replayed) = handle.apply_with_id(&batch, Some("req-2")).unwrap();
        assert!(!replayed);
        assert_eq!(third.version, 2);
    }

    #[test]
    fn dedup_window_is_bounded_fifo() {
        let reg = DatasetRegistry::new();
        reg.register("demo", &DatasetSpec::Demo).unwrap();
        let handle = reg.handle("demo").unwrap();
        let batch = vec![Update::Insert(vec![0.3, 0.4])];
        for i in 0..=DEDUP_WINDOW {
            handle
                .apply_with_id(&batch, Some(&format!("id-{i}")))
                .unwrap();
        }
        // The newest receipt survives…
        let (_, replayed) = handle
            .apply_with_id(&batch, Some(&format!("id-{DEDUP_WINDOW}")))
            .unwrap();
        assert!(replayed);
        // …but the oldest fell out of the window, so its retry re-applies.
        let before = handle.snapshot().version();
        let (outcome, replayed) = handle.apply_with_id(&batch, Some("id-0")).unwrap();
        assert!(!replayed);
        assert_eq!(outcome.version, before + 1);
    }

    #[test]
    fn concurrent_updates_serialize_and_all_land() {
        let reg = DatasetRegistry::new();
        reg.register(
            "d",
            &DatasetSpec::Synthetic {
                dist: Distribution::Independent,
                n: 50,
                d: 3,
                seed: 5,
            },
        )
        .unwrap();
        let handle = reg.handle("d").unwrap();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let handle = Arc::clone(&handle);
                scope.spawn(move || {
                    for i in 0..10 {
                        let x = f64::from(t * 10 + i) / 40.0;
                        handle
                            .apply(&[Update::Insert(vec![x, 1.0 - x, 0.5])])
                            .unwrap();
                    }
                });
            }
        });
        let snap = handle.snapshot();
        assert_eq!(snap.version(), 40);
        assert_eq!(snap.data().live_len(), 90);
        assert_eq!(snap.tree().len(), 90);
        snap.tree().check_invariants().unwrap();
        // Every assigned id is distinct (50..90 in some order).
        let mut ids: Vec<u32> = snap.data().iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..90).collect::<Vec<u32>>());
    }
}
