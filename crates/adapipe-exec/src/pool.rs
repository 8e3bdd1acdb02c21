//! The deterministic, self-scheduling fork-join pool.
//!
//! Design constraints, in order:
//!
//! 1. **Byte-identical results at any thread count.** [`ExecPool::map`]
//!    only ever hands out *indices* into a pre-enumerated task slice;
//!    workers return `(index, result)` pairs that the caller scatters
//!    back into input order, so scheduling (worker count, which worker
//!    claims what) can reorder *execution* but never the *result
//!    vector*. Callers that need full determinism must pass pure tasks;
//!    the pool guarantees the rest.
//! 2. **No `unsafe`, one shared word.** Workers are scoped threads
//!    (`std::thread::scope`) that borrow the task slice and the closure
//!    directly and claim the next index from one shared `AtomicUsize`
//!    cursor until it runs past the end. A fast worker simply claims
//!    more tasks, which balances uneven knapsack leaves without
//!    per-worker queues; the scope join is the batch barrier.
//! 3. **Panic containment.** Every task runs under `catch_unwind`; a
//!    panicking task records a typed failure for its index and the
//!    worker keeps claiming, so the batch always drains, the scope
//!    always joins and shutdown cannot deadlock. The lowest failing
//!    index is reported as [`ExecError::TaskPanicked`].
//!
//! The pool is a configuration object: threads are spawned per batch
//! and joined before [`ExecPool::map`] returns, so constructing one is
//! free and a pool embedded in a long-lived daemon holds no idle
//! threads. With one worker (or one task) the batch runs inline on the
//! caller with zero spawns.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Environment variable selecting the worker count for
/// [`ExecPool::from_env`]. Unset or unparsable values fall back to the
/// machine's available parallelism.
pub const THREADS_ENV: &str = "ADAPIPE_THREADS";

/// Typed failure of a pool batch.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// A task panicked; `index` is the lowest failing input index and
    /// `detail` the stringified panic payload.
    TaskPanicked {
        /// Input index of the failing task.
        index: usize,
        /// Panic payload, when it was a string.
        detail: String,
    },
    /// A slot was never filled — a pool invariant was broken (never
    /// expected; reported as an error instead of a panic so the
    /// planner degrades instead of aborting).
    LostTask {
        /// Input index whose result went missing.
        index: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::TaskPanicked { index, detail } => {
                write!(f, "pool task {index} panicked: {detail}")
            }
            ExecError::LostTask { index } => write!(f, "pool task {index} produced no result"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Cumulative pool counters, snapshotted by [`ExecPool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Configured worker count.
    pub workers: u64,
    /// Fork-join batches executed.
    pub batches: u64,
    /// Tasks executed across all batches.
    pub tasks: u64,
    /// Tasks a worker claimed beyond its even share `ceil(n/workers)`
    /// of a batch — how much rebalancing uneven task costs forced.
    pub steals: u64,
}

/// A deterministic self-scheduling fork-join pool.
///
/// See the module docs for the design. Counters are interior, so a
/// daemon can share one pool behind an `Arc` across request workers.
#[derive(Debug)]
pub struct ExecPool {
    threads: usize,
    batches: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
}

impl ExecPool {
    /// A pool with `threads` workers (floored at 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        ExecPool {
            threads: threads.max(1),
            batches: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        }
    }

    /// A pool sized by `ADAPIPE_THREADS`, falling back to the
    /// machine's available parallelism (and then to 1).
    #[must_use]
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            });
        ExecPool::new(threads)
    }

    /// Configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the cumulative counters.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: to_u64(self.threads),
            batches: self.batches.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }

    /// Applies `f` to every item, in parallel across the pool's
    /// workers, returning the results **in input order**.
    ///
    /// # Errors
    ///
    /// [`ExecError::TaskPanicked`] if any task panicked (the batch
    /// still drains fully first, so the pool stays usable).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, ExecError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(to_u64(n), Ordering::Relaxed);
        let workers = self.threads.min(n);
        if workers <= 1 {
            return map_inline(items, &f);
        }

        // Each worker claims the next unclaimed index until the cursor
        // runs past the end, keeping `(index, outcome)` for the scatter.
        // The caller allocates every claim buffer at batch size, so a
        // worker thread never grows one: a buffer reallocated on a
        // short-lived worker outlives it and kept that thread's freed
        // leaf memory resident (~10% more daemon peak RSS on 2 cores).
        let cursor = AtomicUsize::new(0);
        let work = |mut claimed: Vec<(usize, Result<R, String>)>| loop {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                return claimed;
            };
            let outcome =
                catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|p| payload_text(p.as_ref()));
            claimed.push((index, outcome));
        };
        let per_worker: Vec<Vec<_>> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|_| {
                    let claimed = Vec::with_capacity(n);
                    scope.spawn(move || work(claimed))
                })
                .collect();
            // The caller is worker 0. Tasks cannot unwind past
            // `catch_unwind`, so a failed join loses nothing that the
            // `LostTask` check below would not report.
            let mut all = vec![work(Vec::with_capacity(n))];
            all.extend(spawned.into_iter().map(|h| h.join().unwrap_or_default()));
            all
        });

        let even_share = n.div_ceil(workers);
        let steals: usize = per_worker
            .iter()
            .map(|claimed| claimed.len().saturating_sub(even_share))
            .sum();
        self.steals.fetch_add(to_u64(steals), Ordering::Relaxed);

        let mut slots: Vec<Option<Result<R, String>>> = (0..n).map(|_| None).collect();
        for (index, outcome) in per_worker.into_iter().flatten() {
            if let Some(slot) = slots.get_mut(index) {
                *slot = Some(outcome);
            }
        }
        let mut out = Vec::with_capacity(n);
        for (index, slot) in slots.into_iter().enumerate() {
            match slot {
                Some(Ok(value)) => out.push(value),
                Some(Err(detail)) => return Err(ExecError::TaskPanicked { index, detail }),
                None => return Err(ExecError::LostTask { index }),
            }
        }
        Ok(out)
    }
}

impl Default for ExecPool {
    fn default() -> Self {
        ExecPool::from_env()
    }
}

/// Serial fallback used when one worker (or one task) makes spawning
/// pointless; semantics — including panic containment and
/// lowest-failing-index reporting — match the parallel path.
fn map_inline<T, R, F>(items: &[T], f: &F) -> Result<Vec<R>, ExecError>
where
    F: Fn(&T) -> R,
{
    let mut out = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(value) => out.push(value),
            Err(payload) => {
                return Err(ExecError::TaskPanicked {
                    index,
                    detail: payload_text(payload.as_ref()),
                })
            }
        }
    }
    Ok(out)
}

fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `usize` → `u64` without a bare `as` cast (lossless on every
/// supported platform; saturates if `usize` ever exceeds 64 bits).
fn to_u64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_is_ok() {
        let pool = ExecPool::new(4);
        let out: Vec<u32> = pool.map(&[] as &[u32], |x| *x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_input_order() {
        let pool = ExecPool::new(4);
        let items: Vec<usize> = (0..103).collect();
        let out = pool.map(&items, |&i| i * 2).unwrap();
        assert_eq!(out, (0..103).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let mix = |i: u64| (i ^ (i >> 7)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&i| mix(i)).collect();
        for threads in [1, 2, 3, 8, 32] {
            let pool = ExecPool::new(threads);
            assert_eq!(pool.map(&items, |&i| mix(i)).unwrap(), expect);
        }
    }

    #[test]
    fn panicking_task_reports_lowest_index_and_pool_survives() {
        let pool = ExecPool::new(4);
        let items: Vec<usize> = (0..40).collect();
        let err = pool
            .map(&items, |&i| {
                assert!(!(i == 7 || i == 23), "boom at {i}");
                i
            })
            .unwrap_err();
        match err {
            ExecError::TaskPanicked { index, detail } => {
                assert_eq!(index, 7);
                assert!(detail.contains("boom"), "{detail}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The pool is still usable after a contained panic.
        assert_eq!(pool.map(&items, |&i| i).unwrap(), items);
    }

    #[test]
    fn inline_path_contains_panics_too() {
        let pool = ExecPool::new(1);
        let err = pool
            .map(&[1, 2, 3], |&i: &i32| assert_ne!(i, 2))
            .unwrap_err();
        assert!(matches!(err, ExecError::TaskPanicked { index: 1, .. }));
    }

    #[test]
    fn stats_count_batches_and_tasks_exactly() {
        let pool = ExecPool::new(3);
        let items: Vec<usize> = (0..50).collect();
        for _ in 0..4 {
            pool.map(&items, |&i| i).unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, 3);
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.tasks, 200);
        // At most every task beyond one worker's even share of 17.
        assert!(stats.steals <= 4 * (50 - 17));
    }

    #[test]
    fn from_env_reads_thread_override() {
        // Env mutation is process-global; keep it inside one test.
        std::env::set_var(THREADS_ENV, "5");
        assert_eq!(ExecPool::from_env().threads(), 5);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(ExecPool::from_env().threads() >= 1);
        std::env::remove_var(THREADS_ENV);
        assert!(ExecPool::from_env().threads() >= 1);
    }

    #[test]
    fn errors_render_usefully() {
        let e = ExecError::TaskPanicked {
            index: 3,
            detail: "x".into(),
        };
        assert!(e.to_string().contains("task 3"));
        assert!(ExecError::LostTask { index: 9 }.to_string().contains("9"));
    }
}
