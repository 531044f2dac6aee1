//! The result cache: an LRU map from `(dataset, version, focal, algorithm,
//! tau)` to a shared [`MaxRankResult`], with hit/miss/eviction counters for
//! the `metrics` verb.
//!
//! The **dataset version** in the key is what keeps caching sound under
//! updates: an `UPDATE` bumps the dataset's version, so a later query keys
//! to entries stamped with the new version and an answer computed before
//! the batch is never served as is.
//!
//! **The carry rule.**  Most update batches leave most answers exact: the
//! standing-query triage of [`mrq_core::maintain`] proves it per entry with
//! dominance tests and dot products against the answer's region boxes.
//! [`ResultCache::carry`] runs that triage for every entry of the dataset
//! stamped with the batch's parent version.  An entry the batch leaves
//! unaffected is restamped with the new version, as the same `Arc`; an
//! entry every delta of which is a uniform rank shift is restamped with
//! the shifted answer; an entry a delta may cross, or whose focal record
//! the batch deleted, is dropped, as is every entry older than the parent
//! version.  A carried answer therefore equals a fresh evaluation at the
//! new version (`tests/subscription_diff.rs` checks every resident entry
//! after every batch) except for its `stats`, which stay those of the
//! evaluation that produced it.  The triage runs outside the cache lock,
//! which is taken once to collect the parent-version entries and once to
//! restamp or drop them, each a walk over the resident entries.
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
//! Each walk covers at most the capacity (1 024 entries by default), a few
//! microseconds, so no second index is kept beside the LRU.

use crate::sync::lock_or_recover;
use mrq_core::maintain::{triage_batch, BatchTriage};
use mrq_core::{Algorithm, MaxRankResult};
use mrq_data::{Dataset, RecordId, Update};
use std::collections::HashMap;
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

/// A cache key within one dataset and version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CarryKey {
    focal: RecordId,
    algorithm: Algorithm,
    tau: usize,
}

impl CarryKey {
    fn of(key: &CacheKey) -> Self {
        Self {
            focal: key.focal,
            algorithm: key.algorithm,
            tau: key.tau,
        }
    }
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
    /// Entries an update could not prove exact (or left older than its
    /// parent version), dropped because they could never be hit again.
    pub evictions_stale: u64,
    /// Entries an update proved exact and restamped with its version.
    pub carried: u64,
    /// Current number of cached entries.
    pub len: usize,
    /// Maximum number of entries (0 = caching disabled).
    pub capacity: usize,
}

const NIL: usize = usize::MAX;

/// What [`Lru::restamp_where`] does with one resident entry.
enum Fate<V> {
    Keep,
    Drop,
    /// Move to a new key, with this value.
    Restamp(V),
}

struct Slot<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A minimal O(1) LRU map (not thread safe; [`ResultCache`] wraps it in a
/// mutex).  Kept generic so the unit tests can exercise it with small keys.
///
/// `slots` holds exactly the resident entries: an eviction overwrites the
/// least recently used slot in place, and a removal moves the last slot into
/// the hole, so a removed key and value are dropped at once.
struct Lru<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
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

    /// Inserts or refreshes `key`, evicting the least recently used entry
    /// when the map is full.
    fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.evictions += 1;
            self.slots[lru] = slot;
            lru
        } else {
            self.slots.push(slot);
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.link_front(i);
    }

    /// Walks the resident entries once, in recency order, and keeps, drops
    /// or restamps each as `fate` decides.  A restamped entry moves to the
    /// key `rekey` makes of its old one and takes the new value, keeping its
    /// recency; if that key is already resident, the entry is dropped
    /// instead.  Returns the dropped keys and values, for the caller to
    /// free after releasing its lock, and how many entries were restamped.
    fn restamp_where(
        &mut self,
        mut fate: impl FnMut(&K, &V) -> Fate<V>,
        rekey: impl Fn(&mut K),
    ) -> (Vec<(K, V)>, u64) {
        let (mut dropped, mut restamped) = (Vec::new(), 0);
        let mut i = self.head;
        while i != NIL {
            let next = self.slots[i].next;
            let slot = &self.slots[i];
            let drop_slot = match fate(&slot.key, &slot.value) {
                Fate::Keep => false,
                Fate::Drop => {
                    self.map.remove(&slot.key);
                    true
                }
                Fate::Restamp(value) => {
                    // Re-key the map's own copy of the key: no allocation.
                    let (mut key, _) = self
                        .map
                        .remove_entry(&slot.key)
                        .expect("a linked slot is mapped");
                    rekey(&mut key);
                    let taken = self.map.contains_key(&key);
                    if !taken {
                        rekey(&mut self.slots[i].key);
                        self.slots[i].value = value;
                        self.map.insert(key, i);
                        restamped += 1;
                    }
                    taken
                }
            };
            if drop_slot {
                self.unlink(i);
                let (moved, slot) = self.release(i);
                dropped.push((slot.key, slot.value));
                if next == moved {
                    continue; // the next slot now lives at `i`
                }
            }
            i = next;
        }
        (dropped, restamped)
    }

    /// Removes the unlinked, unmapped slot `i` by moving the last slot into
    /// its place, and returns the moved slot's old index and the removed
    /// slot.
    fn release(&mut self, i: usize) -> (usize, Slot<K, V>) {
        let last = self.slots.len() - 1;
        let removed = self.slots.swap_remove(i);
        if i != last {
            let (prev, next) = (self.slots[i].prev, self.slots[i].next);
            if prev == NIL {
                self.head = i;
            } else {
                self.slots[prev].next = i;
            }
            if next == NIL {
                self.tail = i;
            } else {
                self.slots[next].prev = i;
            }
            *self
                .map
                .get_mut(&self.slots[i].key)
                .expect("a linked slot is mapped") = i;
        }
        (last, removed)
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

/// The thread-safe LRU result cache: the service looks answers up, the
/// worker pool stores them.
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
}

struct CacheInner {
    lru: Lru<CacheKey, Arc<MaxRankResult>>,
    hits: u64,
    misses: u64,
    evictions_stale: u64,
    carried: u64,
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
                hits: 0,
                misses: 0,
                evictions_stale: 0,
                carried: 0,
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
        lock_or_recover(&self.inner).lru.insert(key, value);
    }

    /// Carries the entries of `dataset` across one applied update batch:
    /// `data` is the dataset after `batch`, which was applied on top of
    /// version `parent`.  Entries stamped `parent` that the batch provably
    /// leaves exact are restamped with `data`'s version (shifted, where the
    /// batch shifts every order); every other entry of the dataset older
    /// than that version is dropped.  Returns how many entries were carried.
    pub fn carry(&self, dataset: &str, parent: u64, data: &Dataset, batch: &[Update]) -> u64 {
        let resident: Vec<(CarryKey, Arc<MaxRankResult>)> = {
            let inner = lock_or_recover(&self.inner);
            inner
                .lru
                .slots
                .iter()
                .filter(|slot| slot.key.version == parent && slot.key.dataset == dataset)
                .map(|slot| (CarryKey::of(&slot.key), Arc::clone(&slot.value)))
                .collect()
        };
        // Outside the lock: each entry's verdict, as (entry, its carried form).
        let carried: HashMap<CarryKey, (Arc<MaxRankResult>, Arc<MaxRankResult>)> = resident
            .into_iter()
            .filter(|(key, _)| data.is_live(key.focal))
            .filter_map(|(key, result)| {
                let carried = match triage_batch(&result, data.record(key.focal), batch, data).0 {
                    BatchTriage::Unaffected => Arc::clone(&result),
                    BatchTriage::Shifted(shifted) => Arc::new(shifted),
                    BatchTriage::ReEnumerate => return None,
                };
                Some((key, (result, carried)))
            })
            .collect();
        self.restamp(dataset, parent, data.version(), &carried).1
    }

    /// Drops every entry of `dataset` computed before `current_version`.
    /// Version-keyed lookups already make such entries unservable; this
    /// stops them from occupying LRU capacity that live entries could use.
    /// Returns the number of entries purged.
    pub fn purge_stale(&self, dataset: &str, current_version: u64) -> u64 {
        self.restamp(dataset, 0, current_version, &HashMap::new()).0
    }

    /// Under the lock: restamps the entries of `dataset` at `parent` that
    /// `carried` holds (if each is still the `Arc` triaged) with `version`,
    /// and drops every other entry of the dataset older than `version`.
    /// Returns how many entries were dropped and restamped.
    fn restamp(
        &self,
        dataset: &str,
        parent: u64,
        version: u64,
        carried: &HashMap<CarryKey, (Arc<MaxRankResult>, Arc<MaxRankResult>)>,
    ) -> (u64, u64) {
        let mut inner = lock_or_recover(&self.inner);
        let (dropped, restamped) = inner.lru.restamp_where(
            |key, value| {
                if key.version >= version || key.dataset != dataset {
                    return Fate::Keep;
                }
                match carried.get(&CarryKey::of(key)) {
                    Some((triaged, result))
                        if key.version == parent && Arc::ptr_eq(triaged, value) =>
                    {
                        Fate::Restamp(Arc::clone(result))
                    }
                    _ => Fate::Drop,
                }
            },
            |key| key.version = version,
        );
        inner.evictions_stale += dropped.len() as u64;
        inner.carried += restamped;
        drop(inner);
        // A dropped answer may be the last reference to its regions: free
        // them outside the lock.
        (dropped.len() as u64, restamped)
    }

    /// The resident entries of `dataset`, most recently used first, without
    /// touching their recency or the hit counters.
    pub fn entries(&self, dataset: &str) -> Vec<(CacheKey, Arc<MaxRankResult>)> {
        let inner = lock_or_recover(&self.inner);
        let lru = &inner.lru;
        let mut out = Vec::new();
        let mut i = lru.head;
        while i != NIL {
            let slot = &lru.slots[i];
            if slot.key.dataset == dataset {
                out.push((slot.key.clone(), Arc::clone(&slot.value)));
            }
            i = slot.next;
        }
        out
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_or_recover(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.lru.evictions,
            evictions_stale: inner.evictions_stale,
            carried: inner.carried,
            len: inner.lru.len(),
            capacity: inner.lru.capacity,
        }
    }

    /// Resident keys, most recently used first (tests only).
    #[cfg(test)]
    fn resident_keys(&self) -> Vec<CacheKey> {
        lock_or_recover(&self.inner).lru.keys_by_recency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

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

    /// A walk hands the dropped keys and values back at once, not when a
    /// later insert reuses their slots, and keeps nothing of them.
    #[test]
    fn purged_entries_release_their_results() {
        let mut lru: Lru<u32, Arc<MaxRankResult>> = Lru::new(128);
        let shared = dummy_result();
        for k in 0..64 {
            lru.insert(k, Arc::clone(&shared));
        }
        lru.insert(1000, dummy_result());
        assert_eq!(Arc::strong_count(&shared), 65);
        let doomed = |&k: &u32, _: &Arc<MaxRankResult>| {
            if k < 64 {
                Fate::Drop
            } else {
                Fate::Keep
            }
        };
        let (dropped, restamped) = lru.restamp_where(doomed, |_| {});
        assert_eq!((dropped.len(), restamped), (64, 0));
        assert_eq!(lru.len(), 1);
        drop(dropped);
        assert_eq!(Arc::strong_count(&shared), 1);
        assert_eq!(lru.keys_by_recency(), vec![1000]);
        assert!(lru.get(&1000).is_some());
    }

    /// Drops and restamps in any pattern keep the recency list, the map and
    /// the slots in step with a naive model.
    #[test]
    fn restamp_where_keeps_recency_order() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut lru: Lru<u64, u64> = Lru::new(12);
        let mut model: Vec<u64> = Vec::new(); // most recent first
        for _ in 0..2000 {
            let k = next() % 24;
            match next() % 4 {
                0 => {
                    // Drop the keys ≡ 0 and move the keys ≡ 1 (mod m) up by
                    // 24, unless the moved key is taken.
                    let modulus = next() % 5 + 2;
                    let fate = |key: &u64, _: &u64| match key % modulus {
                        0 => Fate::Drop,
                        1 => Fate::Restamp((key + 24) * 10),
                        _ => Fate::Keep,
                    };
                    let got = lru.restamp_where(fate, |key| *key += 24);
                    let mut live: HashSet<u64> = model.iter().copied().collect();
                    let (mut dropped, mut restamped) = (0, 0);
                    let mut walked = Vec::new();
                    for key in std::mem::take(&mut model) {
                        live.remove(&key);
                        match key % modulus {
                            0 => dropped += 1,
                            1 if live.contains(&(key + 24)) => dropped += 1,
                            1 => {
                                restamped += 1;
                                live.insert(key + 24);
                                walked.push(key + 24);
                            }
                            _ => {
                                live.insert(key);
                                walked.push(key);
                            }
                        }
                    }
                    model = walked;
                    assert_eq!((got.0.len() as u64, got.1), (dropped, restamped));
                }
                1 => {
                    if lru.get(&k).is_some() {
                        model.retain(|&key| key != k);
                        model.insert(0, k);
                    }
                }
                _ => {
                    lru.insert(k, k * 10);
                    model.retain(|&key| key != k);
                    model.insert(0, k);
                    model.truncate(12);
                }
            }
            assert_eq!(lru.keys_by_recency(), model);
            assert_eq!(lru.len(), model.len());
            assert_eq!(lru.slots.len(), model.len());
            for (i, slot) in lru.slots.iter().enumerate() {
                assert_eq!(slot.value, slot.key * 10);
                assert_eq!(lru.map[&slot.key], i);
            }
        }
    }

    /// Figure 1 of the paper with one dominated record inserted (version
    /// 1), and the evaluation of `focal` on it.
    fn figure1_at_v1(focal: RecordId) -> (Dataset, Arc<MaxRankResult>) {
        let rows = [
            [0.8, 0.9],
            [0.2, 0.7],
            [0.9, 0.4],
            [0.7, 0.2],
            [0.4, 0.3],
            [0.5, 0.5],
        ];
        let rows: Vec<Vec<f64>> = rows.iter().map(|r| r.to_vec()).collect();
        let mut data = Dataset::from_rows(2, &rows);
        data.apply(&Update::Insert(vec![0.05, 0.05])).unwrap();
        let tree = mrq_index::RStarTree::bulk_load(&data);
        let result = mrq_core::MaxRankQuery::new(&data, &tree)
            .evaluate(focal, &mrq_core::MaxRankConfig::new());
        (data, Arc::new(result))
    }

    #[test]
    fn carry_restamps_parent_entries_and_drops_older_ones() {
        let (mut data, at_v1) = figure1_at_v1(5);
        let cache = ResultCache::new(8);
        let at = |version, focal| CacheKey {
            version,
            focal,
            ..key(0)
        };
        cache.insert(at(1, 5), Arc::clone(&at_v1));
        cache.insert(at(1, 4), figure1_at_v1(4).1);
        cache.insert(at(0, 3), dummy_result()); // older than the parent
        let other = CacheKey {
            dataset: "other".into(),
            ..at(0, 5)
        };
        cache.insert(other.clone(), dummy_result());

        // A dominated insert leaves both parent entries exact.
        let batch = [Update::Insert(vec![0.01, 0.02])];
        data.apply(&batch[0]).unwrap();
        assert_eq!(cache.carry("demo", 1, &data, &batch), 2);
        let kept = cache.get(&at(2, 5)).expect("carried to version 2");
        assert!(
            Arc::ptr_eq(&kept, &at_v1),
            "an unaffected entry keeps its Arc"
        );
        assert!(cache.get(&at(2, 4)).is_some());
        assert!(cache.get(&at(1, 5)).is_none(), "the old key is gone");
        assert!(cache.get(&other).is_some(), "other datasets are untouched");
        let s = cache.stats();
        assert_eq!((s.carried, s.evictions_stale, s.len), (2, 1, 3));

        // A dominating insert shifts both; deleting the focal drops its entry.
        let batch = [Update::Insert(vec![0.95, 0.95]), Update::Delete(4)];
        for update in &batch {
            data.apply(update).unwrap();
        }
        assert_eq!(cache.carry("demo", 2, &data, &batch), 1);
        let shifted = cache.get(&at(4, 5)).expect("carried to version 4");
        assert_eq!(shifted.k_star, at_v1.k_star + 1);
        assert!(cache.get(&at(4, 4)).is_none(), "a deleted focal is dropped");
        let s = cache.stats();
        assert_eq!((s.carried, s.evictions_stale, s.len), (3, 2, 2));
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

    /// The purge must count exactly what a naive filter over the resident
    /// keys (`dataset == d && version < v`) counts: a deterministic mixed
    /// workload recomputes the naive answer before each purge and checks
    /// both the return value and `evictions_stale`.
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
            }
        }
        assert!(expected_stale > 0, "the workload never purged anything");
        let s = cache.stats();
        assert_eq!(s.len, cache.resident_keys().len());
    }

    /// A capacity-evicted entry is gone, so a later purge does not count it
    /// again.
    #[test]
    fn capacity_evicted_entries_do_not_count_as_stale() {
        let cache = ResultCache::new(2);
        cache.insert(key(0), dummy_result());
        cache.insert(key(1), dummy_result());
        cache.insert(key(2), dummy_result()); // evicts key(0)
        assert_eq!(cache.purge_stale("demo", 1), 2, "only the resident pair");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evictions_stale, 2);
        assert_eq!(s.len, 0);
        // Re-inserting the same key after a purge works.
        cache.insert(key(0), dummy_result());
        assert!(cache.get(&key(0)).is_some());
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
