//! Graceful storage degradation: a WAL I/O failure must never panic the
//! server or half-apply a batch.  Instead the batch is rejected *before*
//! the copy-on-write swap and the dataset transitions to degraded
//! (read-only) mode — queries keep serving the last durable version,
//! further updates get the typed `dataset degraded` error, and a restart
//! against a healthy disk clears the mode.
//!
//! Faults are injected through the `MRQ_STORAGE_FAIL_WAL_IO` hook
//! (`mrq_data::storage::set_wal_fail_mode`), the runtime-settable sibling
//! of PR 6's `MRQ_STORAGE_CRASH_WAL_BYTES` abort hook.  The hook state is
//! process-global, so every test in this binary holds one mutex for its
//! whole body (healthy-disk updates included) and restores `Off` before
//! releasing it.

use mrq_data::storage::{set_wal_fail_mode, WalFailMode};
use mrq_data::{synthetic, Dataset, Distribution, Update};
use mrq_service::{
    render_metrics, DatasetRegistry, DurabilityOptions, MrqService, QueryRequest, ServiceConfig,
    ServiceError,
};
use rand::{rngs::StdRng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

const DATASET: &str = "frail";

/// Serializes the tests of this binary: a sibling's injected fault must not
/// hit another test's healthy-disk updates.
static HOOK: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    HOOK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII guard: sets the fault mode and always restores `Off`.  Only taken
/// while [`HOOK`] is held.
struct FaultGuard;

impl FaultGuard {
    fn engage(mode: WalFailMode) -> Self {
        set_wal_fail_mode(mode);
        Self
    }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        set_wal_fail_mode(WalFailMode::Off);
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mrq_degraded_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn initial_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(7);
    synthetic::generate(Distribution::Independent, 24, 2, &mut rng)
}

fn durable_service(dir: &Path) -> (Arc<DatasetRegistry>, MrqService) {
    let registry = Arc::new(DatasetRegistry::new());
    registry
        .register_loaded_durable(
            DATASET,
            initial_dataset(),
            dir,
            DurabilityOptions::default(),
        )
        .unwrap();
    let service = MrqService::new(
        Arc::clone(&registry),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    );
    (registry, service)
}

fn insert(x: f64) -> Vec<Update> {
    vec![Update::Insert(vec![x, 1.0 - x])]
}

/// The shared body: inject `mode`, verify reject-before-swap + read-only
/// serving + typed errors + observability, then restart on a healthy disk
/// and verify the mode cleared and updates flow again.
fn degrade_and_recover(mode: WalFailMode, tag: &str) {
    let _serial = serialize();
    let dir = scratch_dir(tag);
    let (registry, service) = durable_service(&dir);

    // One durable batch while the disk is healthy.
    let ok = service.update(DATASET, &insert(0.25)).unwrap();
    assert_eq!(ok.version, 1);
    let answer = service.query(&QueryRequest::new(DATASET, 3)).unwrap();
    let healthy_k = answer.result.k_star;
    assert_eq!(answer.version, 1);

    // Inject the fault: the next update must be rejected, not half-applied.
    let guard = FaultGuard::engage(mode);
    let err = service.update(DATASET, &insert(0.5)).unwrap_err();
    assert!(
        matches!(err, ServiceError::Internal(ref msg) if msg.contains("update not committed")),
        "first failing update should surface the storage error: {err}"
    );

    // No half-applied batch: still version 1, queries still answer.
    let handle = registry.handle(DATASET).unwrap();
    assert_eq!(handle.snapshot().data().version(), 1);
    let after = service.query(&QueryRequest::new(DATASET, 3)).unwrap();
    assert_eq!(after.version, 1);
    assert_eq!(after.result.k_star, healthy_k);

    // The dataset is now degraded: further updates get the typed error even
    // though the fault itself has been cleared (degraded mode is sticky
    // until a restart proves the disk state).
    drop(guard);
    let err = service.update(DATASET, &insert(0.5)).unwrap_err();
    match err {
        ServiceError::DatasetDegraded { dataset, reason } => {
            assert_eq!(dataset, DATASET);
            assert!(!reason.is_empty());
        }
        other => panic!("expected dataset degraded, got {other}"),
    }

    // The stats snapshot and /metrics both expose the mode.
    let stats = service.stats();
    assert_eq!(stats.degraded, vec![DATASET.to_string()]);
    let text = render_metrics(&stats);
    assert!(
        text.contains(&format!("mrq_dataset_degraded{{dataset=\"{DATASET}\"}} 1")),
        "{text}"
    );

    // Reads keep working in degraded mode.
    assert_eq!(
        service
            .query(&QueryRequest::new(DATASET, 3))
            .unwrap()
            .version,
        1
    );
    service.shutdown();
    drop(registry);

    // Restart with a healthy disk: recovery serves the last durable version
    // and the degraded mode is gone.
    let (registry, service) = durable_service(&dir);
    let handle = registry.handle(DATASET).unwrap();
    assert_eq!(
        handle.snapshot().data().version(),
        1,
        "recovery must land on the last durable batch boundary"
    );
    assert!(handle.degraded().is_none());
    assert!(service.stats().degraded.is_empty());
    let ok = service.update(DATASET, &insert(0.75)).unwrap();
    assert_eq!(ok.version, 2);
    assert_eq!(
        service
            .query(&QueryRequest::new(DATASET, 3))
            .unwrap()
            .version,
        2
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_append_error_degrades_to_read_only_and_restart_recovers() {
    degrade_and_recover(WalFailMode::Append, "append");
}

#[test]
fn wal_fsync_error_degrades_to_read_only_and_restart_recovers() {
    // The torn half-record the failed fsync left behind must be discarded
    // by recovery, exactly like a torn tail after a crash.
    degrade_and_recover(WalFailMode::Sync, "sync");
}

#[test]
fn disk_full_degrades_to_read_only_and_restart_recovers() {
    degrade_and_recover(WalFailMode::Full, "full");
}

#[test]
fn manual_checkpoint_of_a_degraded_dataset_is_refused() {
    let _serial = serialize();
    let dir = scratch_dir("checkpoint");
    let (registry, service) = durable_service(&dir);
    service.update(DATASET, &insert(0.25)).unwrap();
    let _guard = FaultGuard::engage(WalFailMode::Append);
    let _ = service.update(DATASET, &insert(0.5)).unwrap_err();
    let handle = registry.handle(DATASET).unwrap();
    let err = handle.checkpoint().unwrap_err();
    assert!(
        err.to_string().contains("degraded"),
        "checkpointing a degraded dataset must be refused: {err}"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
