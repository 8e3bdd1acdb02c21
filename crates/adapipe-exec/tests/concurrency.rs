//! Concurrency contract of the execution layer, mirroring
//! `adapipe-obs/tests/concurrency.rs`: pool batches under panicking
//! tasks must always join (no deadlocked shutdown), the LRU cache that
//! holds §5.3 class tables (keyed by `instance_digest`) and daemon
//! plans must keep *exact* counters and its exact bound while writers
//! hammer it from many threads, and results must be bit-identical at
//! any thread count. All under `#![forbid(unsafe_code)]` — scoped
//! threads, one atomic claim cursor, and one mutexed cache map are the
//! only primitives.

use adapipe_exec::{sha256, CacheStats, ExecError, ExecPool, LruCache};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

const WRITERS: usize = 4;
const OPS_PER_WRITER: u64 = 2_500;

/// A panicking task cannot wedge the pool: every batch joins, the
/// error is typed, and later batches on the same pool still run. A
/// deadlock here hangs the test instead of failing it, which is
/// exactly the regression this guards against.
#[test]
fn pool_shutdown_is_deadlock_free_under_panicking_tasks() {
    let pool = ExecPool::new(8);
    let items: Vec<usize> = (0..200).collect();
    for round in 0..5 {
        let err = pool
            .map(&items, |&i| {
                assert!(i % 17 != round, "injected panic at {i}");
                i * 3
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::TaskPanicked { .. }), "{err:?}");
    }
    // After five poisoned batches the pool still computes correctly.
    let ok = pool.map(&items, |&i| i * 3).unwrap();
    assert_eq!(ok, items.iter().map(|&i| i * 3).collect::<Vec<_>>());
}

/// Many pools in parallel, each mapping with panics mixed in, to shake
/// out cross-batch interference in the scoped workers.
#[test]
fn concurrent_batches_do_not_interfere() {
    let pool = Arc::new(ExecPool::new(4));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let items: Vec<u64> = (0..100).map(|i| i + (w as u64) * 1000).collect();
                let out = pool.map(&items, |&i| i.wrapping_mul(2)).unwrap();
                assert_eq!(out.len(), items.len());
                for (x, y) in items.iter().zip(&out) {
                    assert_eq!(x.wrapping_mul(2), *y);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = pool.stats();
    assert_eq!(stats.batches, WRITERS as u64);
    assert_eq!(stats.tasks, WRITERS as u64 * 100);
}

/// Exact hit/miss accounting under contention: every lookup lands in
/// exactly one of the two counters, even with all writers on one key
/// set.
#[test]
fn sharded_cache_counters_are_exact_under_contention() {
    let cache = Arc::new(LruCache::new(256));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    let key = sha256(&(i % 64).to_le_bytes());
                    if cache.get(&key).is_none() {
                        cache.insert(key, i + ((w as u64) << 32), 16);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = cache.stats();
    assert_eq!(
        stats.lookups(),
        WRITERS as u64 * OPS_PER_WRITER,
        "every get() must count exactly once: {stats:?}"
    );
    // 64 distinct keys, far below capacity: nothing may be evicted.
    assert_eq!(cache.evictions(), 0);
    assert_eq!(cache.len(), 64);
    assert_eq!(cache.bytes(), 64 * 16);
}

/// Eviction accounting stays exact when writers overflow a tiny cache.
#[test]
fn eviction_counters_are_exact_under_contention() {
    let cache = Arc::new(LruCache::new(8));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                for i in 0..OPS_PER_WRITER {
                    cache.insert(sha256(&(i ^ (w as u64) << 40).to_le_bytes()), i, 4);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Every insert is a distinct key: the cache is full to its exact
    // bound, every other insert was evicted once, and bytes match.
    let inserts = WRITERS as u64 * OPS_PER_WRITER;
    assert_eq!(cache.len(), cache.capacity());
    assert_eq!(cache.evictions(), inserts - cache.capacity() as u64);
    assert_eq!(cache.bytes(), cache.len() as u64 * 4);
}

proptest! {
    /// The pool is an order-preserving map at every thread count.
    #[test]
    fn map_is_order_preserving_at_any_thread_count(
        items in proptest::collection::vec(0u64..1_000_000_000, 0..200),
        threads in 1usize..9,
    ) {
        let pool = ExecPool::new(threads);
        let out = pool.map(&items, |&i| i.wrapping_mul(0x9e37_79b9)).unwrap();
        let expect: Vec<u64> = items.iter().map(|&i| i.wrapping_mul(0x9e37_79b9)).collect();
        prop_assert_eq!(out, expect);
    }

    /// CacheStats algebra: addition matches field-wise sums.
    #[test]
    fn cache_stats_addition_is_fieldwise(h1 in 0u64..1_000_000, m1 in 0u64..1_000_000,
                                         h2 in 0u64..1_000_000, m2 in 0u64..1_000_000) {
        let sum = CacheStats::new(h1, m1) + CacheStats::new(h2, m2);
        prop_assert_eq!(sum, CacheStats::new(h1 + h2, m1 + m2));
        prop_assert!(sum.hit_rate() >= 0.0 && sum.hit_rate() <= 1.0);
    }
}
