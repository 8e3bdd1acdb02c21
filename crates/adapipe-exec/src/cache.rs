//! A sharded, LRU-bounded cache from 32-byte content digests to shared
//! values — the one LRU map in the workspace. It backs both the
//! process-global cache of §5.3 class tables (`adapipe-partition`,
//! keyed by planning-instance digests) and the daemon's plan cache
//! (`adapipe-serve`, keyed by request digests).
//!
//! Shards are independently locked, so concurrent lookups of different
//! digests do not serialize on one mutex, and each shard orders its
//! LRU by a monotone per-shard tick rather than wall clock, so
//! eviction is deterministic. The cache keeps exact hit/miss/eviction
//! counters plus approximate byte accounting for the `subcache.*`
//! gauges. Values are handed out as `Arc` clones: a hit never copies
//! the cached payload and eviction never invalidates a value a reader
//! already holds.

use crate::stats::CacheStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// A cache key: a SHA-256 digest of the canonical encoding of whatever
/// the value was computed from.
pub type Digest = [u8; 32];

#[derive(Debug)]
struct Entry<V: ?Sized> {
    value: Arc<V>,
    bytes: u64,
    last_used: u64,
}

#[derive(Debug)]
struct Shard<V: ?Sized> {
    entries: HashMap<Digest, Entry<V>>,
    tick: u64,
}

impl<V: ?Sized> Default for Shard<V> {
    fn default() -> Self {
        Shard {
            entries: HashMap::new(),
            tick: 0,
        }
    }
}

/// A sharded LRU cache from content digest to `Arc<V>`.
#[derive(Debug)]
pub struct ShardedCache<V: ?Sized> {
    shards: Vec<Mutex<Shard<V>>>,
    per_shard: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bytes: AtomicU64,
}

impl<V: ?Sized> ShardedCache<V> {
    /// How many independently-locked shards the cache splits into (or
    /// fewer for tiny capacities, so `capacity` stays exact).
    pub const SHARDS: usize = 16;

    /// A cache holding at most `capacity` entries (floored at 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, Self::SHARDS)
    }

    /// A cache holding at most `capacity` entries (floored at 1) over
    /// at most `shards` shards. One shard makes the LRU order exact,
    /// which a cache of a handful of large entries needs: spread over
    /// one-entry shards, two live keys can evict each other.
    #[must_use]
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shard_count = shards.clamp(1, capacity);
        ShardedCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            per_shard: capacity.div_ceil(shard_count),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The configured entry-count bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached, summed over shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).entries.len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact hit/miss counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Entries evicted by the LRU bound so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Approximate bytes currently held, as declared by inserters.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Looks up `key`, counting a hit or miss.
    #[must_use]
    pub fn get(&self, key: &Digest) -> Option<Arc<V>> {
        let Some(target) = self.shard_for(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut shard = self.lock(target);
        shard.tick = shard.tick.wrapping_add(1);
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.value))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, declaring the entry's approximate
    /// payload size for the byte gauge; returns how many entries the
    /// LRU bound evicted to make room. An `Arc` value is stored as is,
    /// so later hits share the caller's allocation.
    pub fn insert(&self, key: Digest, value: impl Into<Arc<V>>, approx_bytes: u64) -> usize {
        let per_shard = self.per_shard;
        let Some(target) = self.shard_for(&key) else {
            return 0;
        };
        let mut shard = self.lock(target);
        shard.tick = shard.tick.wrapping_add(1);
        let tick = shard.tick;
        if let Some(old) = shard.entries.insert(
            key,
            Entry {
                value: value.into(),
                bytes: approx_bytes,
                last_used: tick,
            },
        ) {
            self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        self.bytes.fetch_add(approx_bytes, Ordering::Relaxed);
        let mut evicted = 0usize;
        while shard.entries.len() > per_shard {
            // Oldest tick wins eviction; ties (only possible after a
            // tick wrap) break on the digest so the choice stays
            // deterministic.
            let Some(oldest) = shard
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.last_used, **k))
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(old) = shard.entries.remove(&oldest) {
                self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
            }
            evicted += 1;
        }
        self.evictions.fetch_add(
            u64::try_from(evicted).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        evicted
    }

    /// The shard `key` lands in. `None` is unreachable (the modulus
    /// keeps the index in range) but handled gracefully by callers
    /// rather than panicking.
    fn shard_for(&self, key: &Digest) -> Option<&Mutex<Shard<V>>> {
        // SHA-256 output is uniform; the first 8 bytes pick a shard.
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&key[..8]);
        let idx = usize::try_from(u64::from_le_bytes(prefix) % self.shard_len()).unwrap_or(0);
        self.shards.get(idx)
    }

    fn shard_len(&self) -> u64 {
        u64::try_from(self.shards.len().max(1)).unwrap_or(1)
    }

    fn lock<'s>(&self, shard: &'s Mutex<Shard<V>>) -> std::sync::MutexGuard<'s, Shard<V>> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha::sha256;

    fn key(i: u64) -> Digest {
        sha256(&i.to_le_bytes())
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = ShardedCache::new(64);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), "one", 3);
        assert_eq!(cache.get(&key(1)).as_deref(), Some(&"one"));
        assert_eq!(cache.stats(), CacheStats::new(1, 1));
    }

    #[test]
    fn capacity_bounds_total_entries() {
        let cache = ShardedCache::new(8);
        for i in 0..100 {
            cache.insert(key(i), i, 8);
        }
        // Per-shard rounding can leave len slightly under the bound,
        // never over SHARDS-rounded capacity.
        assert!(cache.len() <= 8 * ShardedCache::<u64>::SHARDS.min(8));
        assert!(cache.evictions() > 0);
    }

    #[test]
    fn bytes_track_inserts_and_evictions() {
        let cache = ShardedCache::new(4);
        for i in 0..50 {
            cache.insert(key(i), i, 10);
        }
        let live = u64::try_from(cache.len()).unwrap();
        assert_eq!(cache.bytes(), live * 10);
    }

    #[test]
    fn reinsert_replaces_bytes_not_duplicates() {
        let cache = ShardedCache::new(16);
        cache.insert(key(7), "a", 100);
        cache.insert(key(7), "b", 40);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 40);
        assert_eq!(cache.get(&key(7)).as_deref(), Some(&"b"));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Single shard (capacity 1 shard min) so LRU order is total.
        let cache = ShardedCache::new(1);
        cache.insert(key(1), 1, 1);
        cache.insert(key(2), 2, 1);
        assert!(cache.get(&key(1)).is_none(), "older entry evicted");
        assert_eq!(cache.get(&key(2)).as_deref(), Some(&2));
    }

    #[test]
    fn tiny_capacity_stays_exact() {
        let cache = ShardedCache::new(2);
        for i in 0..20 {
            cache.insert(key(i), i, 1);
        }
        assert!(cache.len() <= 2);
        // One shard holds exactly the most recent `capacity` keys.
        let cache = ShardedCache::with_shards(4, 1);
        for i in 0..20 {
            cache.insert(key(i), i, 1);
        }
        assert_eq!(cache.len(), 4);
        assert!((16..20).all(|i| cache.get(&key(i)).is_some()));
    }

    /// A digest whose first eight bytes are zero, so every such key
    /// lands in shard 0 and LRU order within it is observable.
    fn shard0_key(i: u8) -> Digest {
        let mut d = [0u8; 32];
        d[31] = i;
        d
    }

    #[test]
    fn get_returns_the_exact_inserted_bytes() {
        let cache: ShardedCache<str> = ShardedCache::new(16);
        let original: Arc<str> = Arc::from("adapipe-plan v2\nstage 0 ...\n");
        cache.insert(key(1), Arc::clone(&original), 28);
        let hit = cache.get(&key(1)).unwrap();
        assert!(
            Arc::ptr_eq(&hit, &original),
            "hit must share the cold bytes"
        );
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let cache: ShardedCache<&str> = ShardedCache::new(1);
        assert_eq!(cache.insert(key(1), "a", 1), 0);
        assert_eq!(cache.insert(key(2), "b", 1), 1);
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        assert!(cache.get(&key(1)).is_none(), "oldest entry evicted");
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        // 32 entries over 16 shards: two per shard.
        let cache: ShardedCache<&str> = ShardedCache::new(32);
        cache.insert(shard0_key(1), "a", 1);
        cache.insert(shard0_key(2), "b", 1);
        assert!(cache.get(&shard0_key(1)).is_some(), "refresh a");
        assert_eq!(cache.insert(shard0_key(3), "c", 1), 1);
        assert!(
            cache.get(&shard0_key(1)).is_some(),
            "recently-used survives"
        );
        assert!(cache.get(&shard0_key(2)).is_none(), "lru entry evicted");
        assert!(cache.get(&shard0_key(3)).is_some());
    }

    #[test]
    fn capacity_is_respected_under_many_inserts() {
        let cache = ShardedCache::new(100);
        for i in 0..1000 {
            cache.insert(key(i), i, 1);
        }
        // div_ceil may round each shard's bound up by at most 1.
        assert!(cache.len() <= cache.capacity() + ShardedCache::<u64>::SHARDS);
        assert!(!cache.is_empty());
    }

    #[test]
    fn reinserting_a_digest_does_not_grow_the_cache() {
        let cache: ShardedCache<&str> = ShardedCache::new(4);
        for _ in 0..10 {
            cache.insert(key(3), "x", 8);
        }
        assert_eq!((cache.len(), cache.bytes(), cache.evictions()), (1, 8, 0));
    }

    #[test]
    fn concurrent_access_from_many_threads_is_safe() {
        let cache: Arc<ShardedCache<str>> = Arc::new(ShardedCache::new(32));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let k = key((t * 7 + i) % 40);
                        if cache.get(&k).is_none() {
                            cache.insert(k, "body", 4);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.stats().lookups(), 8 * 200);
        assert!(cache.len() <= cache.capacity() + ShardedCache::<str>::SHARDS);
    }
}
