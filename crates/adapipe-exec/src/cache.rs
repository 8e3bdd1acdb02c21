//! An exact LRU-bounded map from keys to shared values — the one
//! bounded map in the workspace. It backs the process-global cache of
//! §5.3 class tables (`adapipe-partition`, keyed by planning-instance
//! digests), the daemon's plan cache (`adapipe-serve`, keyed by
//! request digests) and the daemon's store of request traces (keyed by
//! trace id).
//!
//! One mutex guards the map. Every lookup and insert stamps its entry
//! with the next value of one monotone tick, so no two entries share a
//! tick and eviction — a linear scan for the smallest — is exact and
//! deterministic: a cache of capacity `c` that has seen more than `c`
//! keys holds exactly the `c` most recently used. The cache keeps
//! exact hit/miss/eviction counters plus approximate byte accounting
//! for the `subcache.*` gauges. Values are handed out as `Arc` clones:
//! a hit never copies the cached payload and eviction never
//! invalidates a value a reader already holds.

use crate::stats::CacheStats;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
struct Inner<K, V: ?Sized> {
    entries: HashMap<K, Entry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    bytes: u64,
}

/// An exact LRU cache from `K` to `Arc<V>`.
#[derive(Debug)]
pub struct LruCache<K, V: ?Sized> {
    capacity: usize,
    inner: Mutex<Inner<K, V>>,
}

impl<K: Eq + Hash + Clone, V: ?Sized> LruCache<K, V> {
    /// A cache holding at most `capacity` entries (floored at 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                bytes: 0,
            }),
        }
    }

    /// The configured entry-count bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact hit/miss counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats::new(inner.hits, inner.misses)
    }

    /// Entries evicted by the LRU bound so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Approximate bytes currently held, as declared by inserters.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.lock().bytes
    }

    /// Looks up `key`, counting a hit or miss; a hit makes the entry
    /// the most recently used.
    #[must_use]
    pub fn get<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(entry) = inner.entries.get_mut(key) else {
            inner.misses += 1;
            return None;
        };
        entry.last_used = tick;
        let value = Arc::clone(&entry.value);
        inner.hits += 1;
        Some(value)
    }

    /// Inserts (or refreshes) `key` as the most recently used entry,
    /// declaring its approximate payload size for the byte gauge;
    /// returns how many entries the LRU bound evicted to make room (0
    /// or 1). An `Arc` value is stored as is, so later hits share the
    /// caller's allocation.
    pub fn insert(&self, key: K, value: impl Into<Arc<V>>, approx_bytes: u64) -> usize {
        let mut inner = self.lock();
        inner.tick += 1;
        let entry = Entry {
            value: value.into(),
            bytes: approx_bytes,
            last_used: inner.tick,
        };
        inner.bytes += approx_bytes;
        if let Some(old) = inner.entries.insert(key, entry) {
            inner.bytes -= old.bytes;
            return 0;
        }
        if inner.entries.len() <= self.capacity {
            return 0;
        }
        let oldest = inner
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        let Some(old) = oldest.and_then(|k| inner.entries.remove(&k)) else {
            return 0;
        };
        inner.bytes -= old.bytes;
        inner.evictions += 1;
        1
    }

    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        // A panicked holder must not wedge every later lookup.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha::sha256;

    fn key(i: u64) -> Digest {
        sha256(&i.to_le_bytes())
    }

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = LruCache::new(64);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), "one", 3);
        assert_eq!(cache.get(&key(1)).as_deref(), Some(&"one"));
        assert_eq!(cache.stats(), CacheStats::new(1, 1));
    }

    #[test]
    fn capacity_bounds_total_entries() {
        let cache = LruCache::new(8);
        for i in 0..100 {
            cache.insert(key(i), i, 8);
        }
        assert_eq!((cache.len(), cache.evictions()), (8, 92));
        assert!((92..100).all(|i| cache.get(&key(i)).is_some()));
    }

    #[test]
    fn bytes_track_inserts_and_evictions() {
        let cache = LruCache::new(4);
        for i in 0..50 {
            cache.insert(key(i), i, 10);
        }
        let live = u64::try_from(cache.len()).unwrap();
        assert_eq!(cache.bytes(), live * 10);
    }

    #[test]
    fn reinsert_replaces_bytes_not_duplicates() {
        let cache = LruCache::new(16);
        cache.insert(key(7), "a", 100);
        cache.insert(key(7), "b", 40);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 40);
        assert_eq!(cache.get(&key(7)).as_deref(), Some(&"b"));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = LruCache::new(1);
        cache.insert(key(1), 1, 1);
        cache.insert(key(2), 2, 1);
        assert!(cache.get(&key(1)).is_none(), "older entry evicted");
        assert_eq!(cache.get(&key(2)).as_deref(), Some(&2));
    }

    #[test]
    fn tiny_capacity_stays_exact() {
        let cache = LruCache::new(2);
        for i in 0..20 {
            cache.insert(key(i), i, 1);
        }
        assert_eq!(cache.len(), 2);
        let cache = LruCache::new(4);
        for i in 0..20 {
            cache.insert(key(i), i, 1);
        }
        assert_eq!(cache.len(), 4);
        assert!((16..20).all(|i| cache.get(&key(i)).is_some()));
    }

    #[test]
    fn get_returns_the_exact_inserted_bytes() {
        let cache: LruCache<Digest, str> = LruCache::new(16);
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
        let cache: LruCache<Digest, &str> = LruCache::new(1);
        assert_eq!(cache.insert(key(1), "a", 1), 0);
        assert_eq!(cache.insert(key(2), "b", 1), 1);
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        assert!(cache.get(&key(1)).is_none(), "oldest entry evicted");
        assert!(cache.get(&key(2)).is_some());
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let cache: LruCache<Digest, &str> = LruCache::new(2);
        cache.insert(key(1), "a", 1);
        cache.insert(key(2), "b", 1);
        assert!(cache.get(&key(1)).is_some(), "refresh a");
        assert_eq!(cache.insert(key(3), "c", 1), 1);
        assert!(cache.get(&key(1)).is_some(), "recently-used survives");
        assert!(cache.get(&key(2)).is_none(), "lru entry evicted");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn holds_exactly_the_most_recently_used_keys() {
        // A recency list models the LRU: most recent last.
        let cache = LruCache::new(64);
        let mut recency: Vec<u64> = Vec::new();
        for i in 0..200 {
            cache.insert(key(i), i, 1);
            recency.push(i);
            // Keys 0..4 are read again every 16 inserts, so they
            // outlive every key inserted after them.
            if i % 16 == 15 {
                for early in 0..4 {
                    assert!(cache.get(&key(early)).is_some(), "key {early} live");
                    recency.retain(|&k| k != early);
                    recency.push(early);
                }
            }
        }
        let newest = &recency[recency.len() - 64..];
        assert_eq!((cache.len(), cache.evictions()), (64, 200 - 64));
        for i in 0..200 {
            assert_eq!(cache.get(&key(i)).is_some(), newest.contains(&i), "key {i}");
        }
    }

    #[test]
    fn capacity_is_respected_under_many_inserts() {
        let cache = LruCache::new(100);
        for i in 0..1000 {
            cache.insert(key(i), i, 1);
        }
        assert_eq!(cache.len(), cache.capacity());
        assert_eq!(cache.evictions(), 900);
    }

    #[test]
    fn reinserting_a_digest_does_not_grow_the_cache() {
        let cache: LruCache<Digest, &str> = LruCache::new(4);
        for _ in 0..10 {
            cache.insert(key(3), "x", 8);
        }
        assert_eq!((cache.len(), cache.bytes(), cache.evictions()), (1, 8, 0));
    }

    #[test]
    fn concurrent_access_from_many_threads_is_safe() {
        let cache: Arc<LruCache<Digest, str>> = Arc::new(LruCache::new(32));
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
        assert_eq!(cache.len(), cache.capacity());
        assert_eq!(cache.bytes(), 32 * 4);
    }

    #[test]
    fn stores_and_retrieves_by_id() {
        let traces: LruCache<String, str> = LruCache::new(4);
        traces.insert("a-1".to_string(), arc("[1]"), 3);
        assert_eq!(traces.get("a-1").as_deref(), Some("[1]"));
        assert_eq!(traces.get("missing"), None);
        assert_eq!(traces.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let traces: LruCache<String, str> = LruCache::new(2);
        traces.insert("a".to_string(), arc("[a]"), 3);
        traces.insert("b".to_string(), arc("[b]"), 3);
        traces.insert("c".to_string(), arc("[c]"), 3);
        assert_eq!(traces.get("a"), None, "oldest evicted");
        assert!(traces.get("b").is_some() && traces.get("c").is_some());
        assert_eq!(traces.len(), 2);
    }

    #[test]
    fn reinsert_replaces_without_consuming_capacity() {
        let traces: LruCache<String, str> = LruCache::new(2);
        traces.insert("a".to_string(), arc("[old]"), 5);
        traces.insert("a".to_string(), arc("[new]"), 5);
        traces.insert("b".to_string(), arc("[b]"), 3);
        assert_eq!(traces.get("a").as_deref(), Some("[new]"));
        assert!(traces.get("b").is_some());
        assert_eq!((traces.len(), traces.evictions()), (2, 0));
    }

    #[test]
    fn zero_capacity_is_floored_to_one() {
        let traces: LruCache<String, str> = LruCache::new(0);
        assert_eq!(traces.capacity(), 1);
        traces.insert("a".to_string(), arc("[a]"), 3);
        traces.insert("b".to_string(), arc("[b]"), 3);
        assert_eq!(traces.get("a"), None);
        assert!(traces.get("b").is_some());
    }
}
