//! The crate-wide lock-poisoning policy.
//!
//! A `std::sync::Mutex`/`RwLock` is *poisoned* when a thread panics while
//! holding it.  The question is what the **next** thread should do.  Before
//! this module existed every lock site said `.expect("… lock poisoned")`,
//! which turns one panicking request into a cascade: each subsequent thread
//! touching the lock panics too, until the whole server is wedged.
//!
//! The policy, applied everywhere in this crate:
//!
//! * **Recover** ([`lock_or_recover`] and friends) when the protected state
//!   is *provably consistent at every panic point* — i.e. every critical
//!   section either (a) performs a single atomic assignment (snapshot swap,
//!   queue push/pop of an owned value), or (b) only reads.  A panic inside
//!   such a section cannot leave the invariant half-updated, so the data
//!   under a poisoned lock is still valid and serving must continue.  This
//!   covers the live-connection set, notify mailboxes, the subscription
//!   book and lists, the registry map, snapshot cells, the result cache and
//!   the pool queue (jobs are pushed/popped whole; worker evaluation runs
//!   outside the lock under `catch_unwind`).
//!
//! * **Fail stop** (keep `.expect`) when a panic *can* strand a multi-step
//!   invariant.  The one such place is the durable `DatasetStore` mutex: an
//!   append updates the file *and* the in-memory `wal_bytes` offset in
//!   separate steps, so a panic between them leaves bookkeeping that
//!   disagrees with the disk.  Serving updates from that state could corrupt
//!   the log; crashing and re-running recovery (which re-derives state from
//!   the file alone) is strictly safer.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks `m`, recovering the guard if a previous holder panicked (see the
/// module docs for when this is sound).
pub fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering the guard if a previous writer panicked.
pub fn read_or_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering the guard if a previous holder panicked.
pub fn write_or_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn poisoned_mutex_recovers_with_state_intact() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_or_recover(&m), 7);
        *lock_or_recover(&m) = 8;
        assert_eq!(*lock_or_recover(&m), 8);
    }

    #[test]
    fn poisoned_rwlock_recovers_for_readers_and_writers() {
        let l = Arc::new(RwLock::new(vec![1, 2, 3]));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _guard = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(l.is_poisoned());
        assert_eq!(read_or_recover(&l).len(), 3);
        write_or_recover(&l).push(4);
        assert_eq!(read_or_recover(&l).len(), 4);
    }
}
