//! Deterministic execution primitives for the AdaPipe planner.
//!
//! A cold plan runs thousands of independent per-window recomputation
//! knapsacks (`partition.leaf_evals`); this crate supplies the two
//! pieces that turn them from a serial bottleneck into shared,
//! parallel work without ever changing a plan byte:
//!
//! * [`ExecPool`] — a deterministic fork-join `map` over scoped
//!   `std::thread` workers that claim task indices from one shared
//!   atomic cursor. [`ExecPool::map`] always returns results in input
//!   order and contains task panics into a typed [`ExecError`], so a
//!   poisoned leaf cannot deadlock or abort the daemon. Thread count
//!   comes from `ADAPIPE_THREADS` (see [`ExecPool::from_env`]).
//! * [`LruCache`] — the workspace's one exact LRU-bounded map to
//!   shared values, with exact hit/miss/eviction counters and
//!   approximate byte accounting. `adapipe-partition` keeps its
//!   process-global cache of §5.3 class tables in one, keyed by the
//!   [`sha256`] `instance_digest` of a planning instance; the serve
//!   daemon keys its plan cache with request digests and its request
//!   traces with trace ids.
//!
//! Determinism is the design law, not an accident: the pool only
//! distributes *indices* of a pre-enumerated task list and scatters
//! each result back to its own index, so scheduling order (and
//! therefore thread count) can never reorder, drop, or duplicate work.
//! `docs/parallel.md` spells out the argument end to end.
//!
//! Like `adapipe-units`, this crate is dependency-free so every layer
//! above it can use it without weight.

#![forbid(unsafe_code)]

pub mod cache;
pub mod pool;
pub mod sha;
pub mod stats;

pub use cache::LruCache;
pub use pool::{ExecError, ExecPool, PoolStats};
pub use sha::{digest_from_hex, sha256, sha256_hex};
pub use stats::CacheStats;
