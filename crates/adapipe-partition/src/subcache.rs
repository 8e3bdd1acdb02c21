//! The process-global, content-addressed subproblem cache.
//!
//! The §5.3 isomorphism cache inside one [`crate::KnapsackCostProvider`]
//! dedupes leaves *within* a single solve; this cache dedupes them
//! *across* solves, providers, and requests. A knapsack leaf is fully
//! determined by three inputs — the window's unit profiles (kinds and
//! bit-exact times/sizes, *not* absolute layer indices), the
//! per-micro-batch activation budget, and the [`KnapsackConfig`] — so
//! those are canonicalized to bytes and hashed with
//! [`adapipe_exec::sha256`], the same content-addressing trick
//! `adapipe-serve` uses for whole plan requests. Two requests that
//! share layer shapes (the common case for a daemon replanning the
//! same model at different batch sizes, or sibling model variants)
//! then warm-start from each other's leaves.
//!
//! Determinism law: a cached [`LeafOutcome`] stores only the chosen
//! saved/recomputed *flags*; the caller rebuilds the
//! [`OptimizedStage`] against its own window's units, so costs and
//! absolute layer numbering are recomputed exactly and a subcache hit
//! is byte-identical to a fresh knapsack solve (the knapsack DP is a
//! deterministic function of exactly the hashed inputs).
//!
//! Capacity is bounded ([`DEFAULT_CAPACITY`] entries, LRU per shard)
//! with eviction and byte accounting surfaced as `subcache.*` metrics.

use adapipe_exec::cache::Digest;
use adapipe_exec::{sha256, CacheStats, ShardedCache};
use adapipe_model::UnitKind;
use adapipe_profiler::UnitProfile;
use adapipe_recompute::strategy::cost_of;
use adapipe_recompute::{KnapsackConfig, OptimizedStage, RecomputeStrategy, StrategyError};
use adapipe_units::Bytes;
use std::sync::{Arc, OnceLock};

/// Default entry bound: leaves are tens of bytes each, so the default
/// keeps the cache a few megabytes at worst.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The cached outcome of one knapsack leaf, in window-relative form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeafOutcome {
    /// The chosen per-unit saved flags, parallel to the window's units
    /// in execution order.
    Feasible {
        /// Saved/recomputed decision per unit.
        saved: Vec<bool>,
    },
    /// The window cannot fit even under full recomputation.
    OutOfMemory {
        /// Memory required by pinned units per micro-batch.
        required: Bytes,
        /// Memory available per micro-batch.
        budget: Bytes,
    },
}

/// A process-global, sharded, content-addressed cache of knapsack
/// leaves. Construct your own for isolation (tests) or share
/// [`global`] across every planner in the process (the daemon).
#[derive(Debug)]
pub struct SubproblemCache {
    inner: ShardedCache<LeafOutcome>,
}

impl SubproblemCache {
    /// A cache bounded to `capacity` entries (floored at 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SubproblemCache {
            inner: ShardedCache::new(capacity),
        }
    }

    /// The configured entry bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Exact hit/miss counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Entries evicted by the LRU bound since construction.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.inner.evictions()
    }

    /// Approximate bytes currently held.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.inner.bytes()
    }

    /// Looks up a leaf by its canonical digest.
    #[must_use]
    pub fn lookup(&self, key: &Digest) -> Option<Arc<LeafOutcome>> {
        self.inner.get(key)
    }

    /// Stores a leaf outcome; returns how many entries the LRU bound
    /// evicted to make room.
    pub fn store(&self, key: Digest, outcome: LeafOutcome) -> usize {
        let approx = approx_entry_bytes(&outcome);
        self.inner.insert(key, outcome, approx)
    }
}

/// The shared process-global cache of [`DEFAULT_CAPACITY`] entries.
pub fn global() -> &'static SubproblemCache {
    static GLOBAL: OnceLock<SubproblemCache> = OnceLock::new();
    GLOBAL.get_or_init(|| SubproblemCache::new(DEFAULT_CAPACITY))
}

/// The canonical digest of one *layer*'s unit profiles: unit kinds
/// (which also fix pinnedness) and bit-exact forward/backward times and
/// saved sizes. Absolute layer indices are deliberately excluded — they
/// do not enter the DP, which is what lets isomorphic windows of
/// *different* requests share an entry.
///
/// This is the memoizable half of leaf keying: a provider hashes each
/// layer once and every window key is then a cheap hash over the
/// layers' digests ([`leaf_key`]) instead of a re-serialization of the
/// whole window — without the memo, keying a leaf costs more than the
/// microsecond-scale knapsack solve it is trying to skip.
#[must_use]
pub fn layer_digest(units: &[UnitProfile]) -> Digest {
    let mut bytes = Vec::with_capacity(24 + units.len() * 25);
    bytes.extend_from_slice(b"adapipe-layer-v1");
    bytes.extend_from_slice(&u64::try_from(units.len()).unwrap_or(u64::MAX).to_le_bytes());
    for u in units {
        bytes.push(kind_tag(u.unit.kind));
        bytes.extend_from_slice(&u.time_f.as_micros().to_bits().to_le_bytes());
        bytes.extend_from_slice(&u.time_b.as_micros().to_bits().to_le_bytes());
        bytes.extend_from_slice(&u.mem_saved.get().to_le_bytes());
    }
    sha256(&bytes)
}

/// The canonical digest of one knapsack leaf: the digests of the
/// window's layers (see [`layer_digest`]; truncated to 8 bytes each —
/// the final SHA-256 provides the content addressing), the
/// per-micro-batch activation budget, and the knapsack tuning. The
/// stage number is excluded: it enters only through the budget.
#[must_use]
pub fn leaf_key(layers: &[Digest], budget: Bytes, config: KnapsackConfig) -> Digest {
    let mut bytes = Vec::with_capacity(48 + layers.len() * 8);
    bytes.extend_from_slice(b"adapipe-leaf-v2\0");
    bytes.extend_from_slice(&budget.get().to_le_bytes());
    bytes.extend_from_slice(
        &u64::try_from(config.max_capacity_cells)
            .unwrap_or(u64::MAX)
            .to_le_bytes(),
    );
    bytes.push(u8::from(config.disable_gcd));
    bytes.extend_from_slice(
        &u64::try_from(layers.len())
            .unwrap_or(u64::MAX)
            .to_le_bytes(),
    );
    for d in layers {
        bytes.extend_from_slice(d.get(..8).unwrap_or(d));
    }
    sha256(&bytes)
}

/// Converts a knapsack result into its cacheable window-relative form.
/// Only deterministic outcomes are cacheable: a successful solve, or
/// the pinned-exceeds-budget infeasibility. Other errors return `None`
/// and pass through uncached.
#[must_use]
pub fn outcome_of(result: &Result<OptimizedStage, StrategyError>) -> Option<LeafOutcome> {
    match result {
        Ok(opt) => Some(LeafOutcome::Feasible {
            saved: opt.strategy.iter().collect(),
        }),
        Err(StrategyError::OutOfMemory { required, budget }) => Some(LeafOutcome::OutOfMemory {
            required: *required,
            budget: *budget,
        }),
        Err(_) => None,
    }
}

/// Rebuilds the full [`OptimizedStage`] a cached leaf stands for,
/// against *this* window's units — costs, slack, and absolute layer
/// numbering are recomputed exactly, so the result is byte-identical
/// to a fresh [`adapipe_recompute::optimize_traced`] call.
///
/// # Errors
///
/// Replays the cached [`StrategyError::OutOfMemory`] for infeasible
/// leaves.
pub fn rebuild(
    units: &[UnitProfile],
    budget: Bytes,
    outcome: &LeafOutcome,
) -> Result<OptimizedStage, StrategyError> {
    match outcome {
        LeafOutcome::Feasible { saved } => {
            let strategy = RecomputeStrategy::from_flags(units, saved.clone());
            let cost = cost_of(units, &strategy);
            Ok(OptimizedStage {
                slack_bytes: budget.saturating_sub(cost.saved_bytes_per_mb),
                strategy,
                cost,
            })
        }
        LeafOutcome::OutOfMemory { required, budget } => Err(StrategyError::OutOfMemory {
            required: *required,
            budget: *budget,
        }),
    }
}

/// Approximate resident size of one cache entry, for the
/// `subcache.bytes` gauge: digest + flags + map/entry overhead.
fn approx_entry_bytes(outcome: &LeafOutcome) -> u64 {
    let payload = match outcome {
        LeafOutcome::Feasible { saved } => saved.len(),
        LeafOutcome::OutOfMemory { .. } => 16,
    };
    96 + u64::try_from(payload).unwrap_or(u64::MAX)
}

/// A stable one-byte tag per [`UnitKind`] for the canonical encoding
/// (enum discriminants are not a stable wire format).
fn kind_tag(kind: UnitKind) -> u8 {
    match kind {
        UnitKind::Embedding => 0,
        UnitKind::AttnNorm => 1,
        UnitKind::QProj => 2,
        UnitKind::KProj => 3,
        UnitKind::VProj => 4,
        UnitKind::CoreAttention => 5,
        UnitKind::OutProj => 6,
        UnitKind::FfnNorm => 7,
        UnitKind::FfnFc1 => 8,
        UnitKind::FfnAct => 9,
        UnitKind::FfnFc2 => 10,
        UnitKind::FfnGate => 11,
        UnitKind::FfnUp => 12,
        UnitKind::FfnActGated => 13,
        UnitKind::FfnDown => 14,
        UnitKind::DecodingHead => 15,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_model::ComputationUnit;
    use adapipe_recompute::optimize_with;
    use adapipe_units::MicroSecs;

    fn unit(kind: UnitKind, layer: usize, f: f64, b: f64, mem: u64) -> UnitProfile {
        UnitProfile {
            unit: ComputationUnit { kind, layer },
            time_f: MicroSecs::new(f),
            time_b: MicroSecs::new(b),
            mem_saved: Bytes::new(mem),
        }
    }

    fn window(layer0: usize) -> Vec<UnitProfile> {
        vec![
            unit(UnitKind::AttnNorm, layer0, 1.0, 2.0, 64),
            unit(UnitKind::CoreAttention, layer0, 5.0, 9.0, 256),
            unit(UnitKind::OutProj, layer0, 4.0, 7.0, 128),
            unit(UnitKind::FfnFc1, layer0 + 1, 6.0, 11.0, 512),
            unit(UnitKind::FfnFc2, layer0 + 1, 6.0, 11.0, 128),
        ]
    }

    /// Splits the two-layer fixture window into per-layer digests the
    /// way a provider's memo does.
    fn digests_of(units: &[UnitProfile]) -> Vec<Digest> {
        let split = units.iter().position(|u| u.unit.kind == UnitKind::FfnFc1);
        let split = split.expect("fixture window has an FFN layer");
        let (a, b) = units.split_at(split);
        vec![layer_digest(a), layer_digest(b)]
    }

    #[test]
    fn key_ignores_absolute_layer_indices() {
        let cfg = KnapsackConfig::default();
        let a = leaf_key(&digests_of(&window(0)), Bytes::new(600), cfg);
        let b = leaf_key(&digests_of(&window(40)), Bytes::new(600), cfg);
        assert_eq!(a, b, "isomorphic windows at different offsets share a key");
    }

    #[test]
    fn key_depends_on_budget_config_and_content() {
        let cfg = KnapsackConfig::default();
        let layers = digests_of(&window(0));
        let base = leaf_key(&layers, Bytes::new(600), cfg);
        assert_ne!(base, leaf_key(&layers, Bytes::new(601), cfg));
        let mut no_gcd = cfg;
        no_gcd.disable_gcd = true;
        assert_ne!(base, leaf_key(&layers, Bytes::new(600), no_gcd));
        let mut tweaked = window(0);
        tweaked[1].time_f = MicroSecs::new(5.000001);
        assert_ne!(
            base,
            leaf_key(&digests_of(&tweaked), Bytes::new(600), cfg),
            "a single bit-flip in one unit's time must change the key"
        );
        // Layer order matters: the key is positional, not a bag.
        let mut swapped = layers.clone();
        swapped.reverse();
        assert_ne!(base, leaf_key(&swapped, Bytes::new(600), cfg));
    }

    #[test]
    fn rebuild_is_byte_identical_to_fresh_solve() {
        let cfg = KnapsackConfig::default();
        for budget in [400u64, 600, 900, 2000] {
            let units = window(3);
            let budget = Bytes::new(budget);
            let fresh = optimize_with(&units, budget, cfg);
            let outcome = outcome_of(&fresh).expect("deterministic outcome");
            let rebuilt = rebuild(&units, budget, &outcome);
            assert_eq!(fresh, rebuilt);
        }
    }

    #[test]
    fn infeasible_outcomes_replay_the_error() {
        let cfg = KnapsackConfig::default();
        let units = window(0);
        // Pinned units alone (OutProj 128 + FfnFc2 128) exceed 100.
        let fresh = optimize_with(&units, Bytes::new(100), cfg);
        assert!(fresh.is_err());
        let outcome = outcome_of(&fresh).expect("OOM is cacheable");
        assert_eq!(rebuild(&units, Bytes::new(100), &outcome), fresh);
    }

    #[test]
    fn store_and_lookup_round_trip_with_accounting() {
        let cache = SubproblemCache::new(16);
        let key = leaf_key(
            &digests_of(&window(0)),
            Bytes::new(600),
            KnapsackConfig::default(),
        );
        assert!(cache.lookup(&key).is_none());
        cache.store(
            key,
            LeafOutcome::Feasible {
                saved: vec![true; 5],
            },
        );
        let hit = cache.lookup(&key).expect("stored entry");
        assert_eq!(
            *hit,
            LeafOutcome::Feasible {
                saved: vec![true; 5]
            }
        );
        assert_eq!(cache.stats(), CacheStats::new(1, 1));
        assert!(cache.bytes() > 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn global_cache_is_a_singleton() {
        let a = global() as *const SubproblemCache;
        let b = global() as *const SubproblemCache;
        assert_eq!(a, b);
        assert_eq!(global().capacity(), DEFAULT_CAPACITY);
    }
}
