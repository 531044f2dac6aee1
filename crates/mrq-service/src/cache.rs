//! The result cache: an LRU map from `(dataset, version, focal, algorithm,
//! tau)` to a shared [`MaxRankResult`], with hit/miss/eviction counters for
//! the `metrics` verb.
//!
//! The **dataset version** in the key is what keeps caching sound under
//! updates: an `UPDATE` bumps the dataset's version, so every later query
//! keys to fresh entries and a stale answer can never be served — without
//! any global flush.  Entries computed at older versions simply stop being
//! requested and age out through the LRU policy.
//!
//! MaxRank evaluations are deterministic functions of the key — the service
//! always runs with the default engine tuning (`pair_pruning = true`, default
//! quad-tree configuration), and `Algorithm::Auto` is resolved to the
//! concrete algorithm *before* keying — so a cached answer is byte-identical
//! to a fresh one (`tests/cache_props.rs` proves this property).  Values are
//! `Arc`s: a hit never copies the region list.
//!
//! The LRU itself is a classic intrusive doubly-linked list threaded through
//! a slab, with a `HashMap` from key to slab slot: `get`, `insert` and
//! eviction are all O(1).  No `unsafe`, no external crates.
//!
//! Stale purging is O(purged), not O(capacity): alongside the LRU the cache
//! keeps a secondary index `dataset → version → {(focal, algorithm, tau)}`,
//! so [`ResultCache::purge_stale`] splits off exactly the stale generations
//! of one dataset instead of walking every resident entry under the mutex on
//! each update batch.

use crate::sync::lock_or_recover;
use mrq_core::{Algorithm, MaxRankResult};
use mrq_data::RecordId;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Cache key of one service answer.
///
/// `algorithm` must be pre-resolved (never [`Algorithm::Auto`]) so that
/// `auto` requests and explicit requests for the same concrete algorithm
/// share entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Registered dataset name.
    pub dataset: String,
    /// Dataset version the answer was computed at (see
    /// [`DatasetEntry::version`](crate::registry::DatasetEntry::version)).
    pub version: u64,
    /// Focal record id.
    pub focal: RecordId,
    /// Concrete (resolved) algorithm.
    pub algorithm: Algorithm,
    /// iMaxRank slack.
    pub tau: usize,
}

/// Counter snapshot exported through the `metrics` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries purged because their dataset moved past their version (they
    /// could never be hit again and were only occupying LRU capacity).
    pub evictions_stale: u64,
    /// Current number of cached entries.
    pub len: usize,
    /// Maximum number of entries (0 = caching disabled).
    pub capacity: usize,
}

const NIL: usize = usize::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A minimal O(1) LRU map (not thread safe; [`ResultCache`] wraps it in a
/// mutex).  Kept generic so the unit tests can exercise it with small keys.
struct Lru<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used.
    tail: usize,
    capacity: usize,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            evictions: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Inserts or refreshes `key`, returning the key evicted to make room
    /// (if any) so callers maintaining secondary indexes stay consistent.
    fn insert(&mut self, key: K, value: V) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            evicted = self.map.remove_entry(&self.slots[lru].key).map(|(k, _)| k);
            self.free.push(lru);
            self.evictions += 1;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.link_front(i);
        evicted
    }

    /// Removes `key` if resident, in O(1).  Returns whether it was present.
    fn remove(&mut self, key: &K) -> bool {
        let Some(i) = self.map.remove(key) else {
            return false;
        };
        self.unlink(i);
        self.free.push(i);
        true
    }

    /// Keys from most to least recently used (tests only).
    #[cfg(test)]
    fn keys_by_recency(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            out.push(self.slots[i].key.clone());
            i = self.slots[i].next;
        }
        out
    }
}

/// The thread-safe LRU result cache used by the worker pool.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
}

/// Secondary index over the resident keys: `dataset → version → the rest of
/// the key`.  The `BTreeMap` keeps versions ordered so a purge can split off
/// exactly the generations below the current one.
type StaleIndex = HashMap<String, BTreeMap<u64, HashSet<(RecordId, Algorithm, usize)>>>;

fn index_add(index: &mut StaleIndex, key: &CacheKey) {
    index
        .entry(key.dataset.clone())
        .or_default()
        .entry(key.version)
        .or_default()
        .insert((key.focal, key.algorithm, key.tau));
}

fn index_remove(index: &mut StaleIndex, key: &CacheKey) {
    let Some(versions) = index.get_mut(&key.dataset) else {
        return;
    };
    if let Some(keys) = versions.get_mut(&key.version) {
        keys.remove(&(key.focal, key.algorithm, key.tau));
        if keys.is_empty() {
            versions.remove(&key.version);
        }
    }
    if versions.is_empty() {
        index.remove(&key.dataset);
    }
}

struct CacheInner {
    lru: Lru<CacheKey, Arc<MaxRankResult>>,
    index: StaleIndex,
    hits: u64,
    misses: u64,
    evictions_stale: u64,
}

impl std::fmt::Debug for CacheInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheInner")
            .field("len", &self.lru.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` answers (0 disables it).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                lru: Lru::new(capacity),
                index: StaleIndex::new(),
                hits: 0,
                misses: 0,
                evictions_stale: 0,
            }),
        }
    }

    /// Looks up a key, counting a hit or a miss.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<MaxRankResult>> {
        let mut inner = lock_or_recover(&self.inner);
        match inner.lru.get(key).cloned() {
            Some(v) => {
                inner.hits += 1;
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Stores an answer (no-op when the cache is disabled).
    pub fn insert(&self, key: CacheKey, value: Arc<MaxRankResult>) {
        let mut inner = lock_or_recover(&self.inner);
        let inner = &mut *inner;
        if inner.lru.capacity == 0 {
            return;
        }
        if let Some(evicted) = inner.lru.insert(key.clone(), value) {
            index_remove(&mut inner.index, &evicted);
        }
        index_add(&mut inner.index, &key);
    }

    /// Proactively drops every entry of `dataset` computed before
    /// `current_version`.  Version-keyed lookups already make such entries
    /// unservable — this merely stops them from occupying LRU capacity that
    /// live entries could use.  Returns the number of entries purged.
    ///
    /// Cost is proportional to the number of purged entries (plus one
    /// dataset-index lookup), not to the cache capacity: the stale
    /// generations are split off the per-dataset version map and only their
    /// keys are unlinked from the LRU.
    pub fn purge_stale(&self, dataset: &str, current_version: u64) -> u64 {
        let mut inner = lock_or_recover(&self.inner);
        let inner = &mut *inner;
        let Some(versions) = inner.index.get_mut(dataset) else {
            return 0;
        };
        // Everything at `current_version` and above stays; what remains in
        // `stale` is exactly the set of entries to drop.
        let live = versions.split_off(&current_version);
        let stale = std::mem::replace(versions, live);
        if versions.is_empty() {
            inner.index.remove(dataset);
        }
        let mut purged = 0u64;
        for (version, keys) in stale {
            for (focal, algorithm, tau) in keys {
                let key = CacheKey {
                    dataset: dataset.to_string(),
                    version,
                    focal,
                    algorithm,
                    tau,
                };
                let removed = inner.lru.remove(&key);
                debug_assert!(removed, "stale index out of sync with the LRU");
                purged += u64::from(removed);
            }
        }
        inner.evictions_stale += purged;
        purged
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_or_recover(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.lru.evictions,
            evictions_stale: inner.evictions_stale,
            len: inner.lru.len(),
            capacity: inner.lru.capacity,
        }
    }

    /// Resident keys, most recently used first (tests only).
    #[cfg(test)]
    fn resident_keys(&self) -> Vec<CacheKey> {
        lock_or_recover(&self.inner).lru.keys_by_recency()
    }

    /// Checks that the stale index describes exactly the resident keys
    /// (tests only).
    #[cfg(test)]
    fn assert_index_consistent(&self) {
        let inner = lock_or_recover(&self.inner);
        let mut indexed = 0usize;
        for (dataset, versions) in &inner.index {
            for (version, keys) in versions {
                assert!(!keys.is_empty(), "empty version set left in the index");
                for &(focal, algorithm, tau) in keys {
                    let key = CacheKey {
                        dataset: dataset.clone(),
                        version: *version,
                        focal,
                        algorithm,
                        tau,
                    };
                    assert!(
                        inner.lru.map.contains_key(&key),
                        "indexed key {key:?} is not resident"
                    );
                    indexed += 1;
                }
            }
        }
        assert_eq!(indexed, inner.lru.len(), "index misses resident keys");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut lru: Lru<u32, u32> = Lru::new(3);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(3, 30);
        assert_eq!(lru.keys_by_recency(), vec![3, 2, 1]);
        // Touch 1 so 2 becomes the LRU.
        assert_eq!(lru.get(&1), Some(&10));
        lru.insert(4, 40);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.keys_by_recency(), vec![4, 1, 3]);
        assert_eq!(lru.evictions, 1);
    }

    #[test]
    fn lru_update_existing_key() {
        let mut lru: Lru<u32, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        lru.insert(1, 11);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions, 0);
        // Slot reuse after eviction.
        lru.insert(3, 30);
        lru.insert(4, 40);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.evictions, 2);
        assert_eq!(lru.keys_by_recency(), vec![4, 3]);
    }

    #[test]
    fn lru_capacity_one_and_zero() {
        let mut one: Lru<u32, u32> = Lru::new(1);
        one.insert(1, 10);
        one.insert(2, 20);
        assert_eq!(one.get(&1), None);
        assert_eq!(one.get(&2), Some(&20));
        assert_eq!(one.evictions, 1);

        let mut zero: Lru<u32, u32> = Lru::new(0);
        zero.insert(1, 10);
        assert_eq!(zero.get(&1), None);
        assert_eq!(zero.len(), 0);
    }

    fn dummy_result() -> Arc<MaxRankResult> {
        Arc::new(MaxRankResult {
            dims: 2,
            k_star: 3,
            tau: 0,
            regions: Vec::new(),
            stats: Default::default(),
        })
    }

    fn key(focal: RecordId) -> CacheKey {
        CacheKey {
            dataset: "demo".into(),
            version: 0,
            focal,
            algorithm: Algorithm::AdvancedApproach2D,
            tau: 0,
        }
    }

    #[test]
    fn version_distinguishes_keys() {
        let cache = ResultCache::new(8);
        cache.insert(key(0), dummy_result());
        let stale = CacheKey {
            version: 1,
            ..key(0)
        };
        assert!(
            cache.get(&stale).is_none(),
            "a bumped version must never see the old entry"
        );
        assert!(cache.get(&key(0)).is_some());
    }

    #[test]
    fn result_cache_counts_hits_misses_evictions() {
        let cache = ResultCache::new(2);
        assert!(cache.get(&key(0)).is_none());
        cache.insert(key(0), dummy_result());
        assert!(cache.get(&key(0)).is_some());
        cache.insert(key(1), dummy_result());
        cache.insert(key(2), dummy_result());
        assert!(cache.get(&key(1)).is_some());
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.len, 2);
        assert_eq!(s.capacity, 2);
    }

    #[test]
    fn purge_stale_drops_only_older_versions_of_the_dataset() {
        let cache = ResultCache::new(8);
        cache.insert(key(0), dummy_result()); // demo v0
        cache.insert(
            CacheKey {
                version: 2,
                ..key(1)
            },
            dummy_result(),
        ); // demo v2
        cache.insert(
            CacheKey {
                dataset: "other".into(),
                ..key(2)
            },
            dummy_result(),
        ); // other v0
        assert_eq!(cache.purge_stale("demo", 2), 1);
        let s = cache.stats();
        assert_eq!(s.evictions_stale, 1);
        assert_eq!(s.evictions, 0, "stale purges are not capacity evictions");
        assert_eq!(s.len, 2);
        assert!(cache.get(&key(0)).is_none());
        assert!(cache
            .get(&CacheKey {
                version: 2,
                ..key(1)
            })
            .is_some());
        assert!(cache
            .get(&CacheKey {
                dataset: "other".into(),
                ..key(2)
            })
            .is_some());
        // Purged slots are reusable: the cache keeps working at capacity.
        for focal in 10..30 {
            cache.insert(key(focal), dummy_result());
        }
        assert_eq!(cache.stats().len, 8);
    }

    #[test]
    fn purge_stale_is_a_noop_without_matches() {
        let cache = ResultCache::new(4);
        cache.insert(key(0), dummy_result());
        assert_eq!(cache.purge_stale("demo", 0), 0);
        assert_eq!(cache.purge_stale("absent", 9), 0);
        assert_eq!(cache.stats().evictions_stale, 0);
        assert!(cache.get(&key(0)).is_some());
    }

    /// The indexed purge must count exactly what the old O(capacity) filter
    /// walk (`dataset == d && version < v` over every resident key) counted:
    /// a deterministic mixed workload recomputes the naive answer before
    /// each purge and checks both the return value and `evictions_stale`.
    #[test]
    fn purge_stale_counters_match_the_naive_full_walk() {
        let cache = ResultCache::new(16);
        let datasets = ["a", "b", "c"];
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut step = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut expected_stale = 0u64;
        for round in 0u64..200 {
            for _ in 0..5 {
                let k = CacheKey {
                    dataset: datasets[(step() % 3) as usize].into(),
                    version: step() % 4 + round / 50,
                    focal: (step() % 32) as RecordId,
                    algorithm: Algorithm::AdvancedApproach2D,
                    tau: (step() % 2) as usize,
                };
                cache.insert(k, dummy_result());
            }
            if step() % 3 == 0 {
                let dataset = datasets[(step() % 3) as usize];
                let current = step() % 5 + round / 50;
                let naive = cache
                    .resident_keys()
                    .iter()
                    .filter(|k| k.dataset == dataset && k.version < current)
                    .count() as u64;
                assert_eq!(cache.purge_stale(dataset, current), naive);
                expected_stale += naive;
                assert_eq!(cache.stats().evictions_stale, expected_stale);
                cache.assert_index_consistent();
            }
        }
        assert!(expected_stale > 0, "the workload never purged anything");
        let s = cache.stats();
        assert_eq!(s.len, cache.resident_keys().len());
    }

    /// Capacity evictions must drop their index entries too, so a later
    /// purge neither double-counts them nor trips the consistency check.
    #[test]
    fn capacity_evicted_entries_do_not_count_as_stale() {
        let cache = ResultCache::new(2);
        cache.insert(key(0), dummy_result());
        cache.insert(key(1), dummy_result());
        cache.insert(key(2), dummy_result()); // evicts key(0)
        cache.assert_index_consistent();
        assert_eq!(cache.purge_stale("demo", 1), 2, "only the resident pair");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evictions_stale, 2);
        assert_eq!(s.len, 0);
        cache.assert_index_consistent();
        // Re-inserting the same key after a purge works and re-indexes it.
        cache.insert(key(0), dummy_result());
        assert!(cache.get(&key(0)).is_some());
        cache.assert_index_consistent();
    }

    #[test]
    fn result_cache_shared_across_threads() {
        // Room for every key, so no thread's insert can evict another
        // thread's key between its insert and get.
        let cache = Arc::new(ResultCache::new(256));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..50 {
                        let k = key(t * 50 + i);
                        cache.insert(k.clone(), dummy_result());
                        assert!(cache.get(&k).is_some());
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits, 200);
        assert_eq!(s.len, 200);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn result_cache_evicts_beyond_capacity() {
        let cache = ResultCache::new(64);
        for i in 0..200 {
            cache.insert(key(i), dummy_result());
        }
        let s = cache.stats();
        assert_eq!(s.len, 64);
        assert_eq!(s.evictions, 200 - 64);
    }
}
