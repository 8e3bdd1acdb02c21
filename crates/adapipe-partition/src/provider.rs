//! Stage-cost providers: map `(stage, layer window)` to optimized
//! forward/backward times by running the recomputation knapsack.
//!
//! [`KnapsackCostProvider`] is shareable concurrent state (`Sync`):
//! the §5.3 isomorphism cache is a dense table of write-once `OnceLock`
//! slots, one per stage and class of windows with the same layer
//! contents ([`ClassTable`]), and the hit/miss counters are atomics, so
//! leaf evaluations can fan out over an [`adapipe_exec::ExecPool`] (see
//! [`KnapsackCostProvider::prefill`]) while Algorithm 1 itself stays
//! serial — which is what keeps plans byte-identical at any thread
//! count. The same property lets the daemon share one filled table
//! across the requests of an instance ([`subcache::ClassTables`]).

use crate::cost::StageTimes;
use crate::subcache::ClassTables;
use adapipe_exec::{CacheStats, ExecError, ExecPool};
use adapipe_memory::MemoryModel;
use adapipe_model::{LayerRange, LayerSeq};
use adapipe_obs::{keys, Recorder};
use adapipe_profiler::{ProfileTable, UnitProfile};
use adapipe_recompute::strategy::cost_of;
use adapipe_recompute::{
    optimize, optimize_exhaustive, KnapsackConfig, OptimizedStage, RecomputeStrategy, StrategyError,
};
use adapipe_units::{convert, Bytes};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of the `f[s,i,j]` / `b[s,i,j]` arrays consumed by Algorithm 1.
///
/// Returning `None` marks the assignment infeasible (the stage cannot fit
/// even under full recomputation), which Algorithm 1 propagates into OOM
/// verdicts for whole configurations.
///
/// # Contract
///
/// At a fixed stage `s` and first layer `i`, as the last layer `j`
/// grows:
///
/// * **infeasibility is monotone**: once `[i..=j]` is `None`, so is
///   every longer window — it pins more bytes and gets a smaller
///   activation budget;
/// * **`f + b` never decreases**: `F` is a sum of per-layer forward
///   times, and an added layer raises the time the knapsack saves by at
///   most its own forward time, so `B` grows by at least the layer's
///   backward time.
///
/// [`algorithm1::solve_traced`](crate::algorithm1::solve_traced) ends its
/// split loop on both: at the first infeasible window, and once
/// `n·(f + b)` — a lower bound on every later candidate's objective —
/// exceeds the best objective so far. A provider that breaks either law
/// can lose the optimal split.
pub trait StageCostProvider {
    /// Optimized forward/backward times for assigning the layers of
    /// `range` to pipeline stage `stage`, or `None` if infeasible.
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes>;
}

/// What a feasible leaf costs and chose: its forward/backward times and
/// its saved flags, packed 64 to a word (as `bool`s they raised the
/// paper-scale daemon's peak RSS by 3–8 MB).
#[derive(Debug)]
struct Chosen {
    times: StageTimes,
    saved: Box<[u64]>,
}

impl Chosen {
    fn new(leaf: &OptimizedStage) -> Self {
        let strategy = &leaf.strategy;
        let mut saved = vec![0u64; strategy.len().div_ceil(64)];
        for (i, flag) in strategy.iter().enumerate() {
            if let Some(word) = saved.get_mut(i / 64) {
                *word |= u64::from(flag) << (i % 64);
            }
        }
        Chosen {
            times: StageTimes::from(&leaf.cost),
            saved: saved.into_boxed_slice(),
        }
    }

    /// The flags of the first `units` units.
    fn flags(&self, units: usize) -> Vec<bool> {
        let bit = |i: usize| {
            self.saved
                .get(i / 64)
                .is_some_and(|w| w >> (i % 64) & 1 == 1)
        };
        (0..units).map(bit).collect()
    }
}

/// The §5.3 isomorphism cache as a dense table of write-once slots.
///
/// The class rule: two windows of one stage share a slot exactly when
/// they hold the same layer contents — layer by layer the same kind and
/// the same unit profiles (unit kinds and bit-exact `time_f`, `time_b`
/// and `mem_saved`; the layer index a unit records aside). Those are
/// everything a leaf reads: the knapsack's items, and the static bytes
/// and recompute buffer its activation budget subtracts. The paper's
/// rule, equal length and first-layer kind, is the special case of a
/// table that is uniform per layer kind, which every analytic table
/// is: there the classes are exactly its (first-layer kind, length,
/// reaches the last layer) triples.
///
/// [`ClassTable::new`] numbers the windows by content in one pass
/// ([`number_windows`]) and builds the table whole: the class of every
/// window in one flat `Vec<u32>` (4 B per window: ~74 KB for GPT-3's
/// L = 194) and every slot, empty; a slot is indexed `stage × classes +
/// class`.
/// Queries the table has no slot for — a stage past the pipeline or a
/// window past the sequence — are answered uncached.
///
/// Each slot is one `OnceLock`: unset while empty, `None` for a leaf
/// that cannot fit even under full recomputation, else the leaf's
/// [`Chosen`] times and flags, so materialize rebuilds a winning stage
/// instead of solving it again. Racing writers of one class store
/// identical leaves (leaves are pure); the loser's is dropped.
///
/// A table serves exactly one instance, so once a prefill over
/// [`algorithm1::reachable`](crate::algorithm1::reachable) has
/// returned, every slot Algorithm 1 can query is filled and the table
/// is *swept*: a later prefill would scan ~120k windows only to find
/// that ([`KnapsackCostProvider::sweep`]).
#[derive(Debug)]
pub(crate) struct ClassTable {
    layers: usize,
    stages: usize,
    classes: usize,
    /// The class of every window, length by length: window `[first ..
    /// first + len)` at [`ClassTable::window`]`(first, len)`.
    class_of: Vec<u32>,
    slots: Vec<OnceLock<Option<Chosen>>>,
    swept: AtomicBool,
}

impl ClassTable {
    /// The table for `stages` stages of `seq`, profiled in `table`,
    /// with every slot empty.
    pub(crate) fn new(seq: &LayerSeq, table: &ProfileTable, stages: usize) -> Self {
        let (class_of, classes) = number_windows(&layer_shapes(seq, table));
        ClassTable {
            layers: seq.len(),
            stages,
            classes,
            class_of,
            slots: (0..stages * classes).map(|_| OnceLock::new()).collect(),
            swept: AtomicBool::new(false),
        }
    }

    /// Where window `[first .. first + len)` of a `layers`-layer
    /// sequence sits in `class_of`: after the `layers − k + 1` windows
    /// of each shorter length `k`.
    fn window(layers: usize, first: usize, len: usize) -> usize {
        (len - 1) * (2 * layers + 2 - len) / 2 + first
    }

    /// Bytes of the class map and the slot array (the flags of filled
    /// slots come on top).
    pub(crate) fn bytes(&self) -> u64 {
        let slot = std::mem::size_of::<OnceLock<Option<Chosen>>>();
        let map = self.class_of.len() * std::mem::size_of::<u32>();
        convert::usize_u64(map + self.slots.len() * slot)
    }

    /// The slot of `(stage, range)`'s class, if it has one.
    fn index(&self, stage: usize, range: LayerRange) -> Option<usize> {
        if stage >= self.stages || range.last >= self.layers {
            return None;
        }
        let window = Self::window(self.layers, range.first, range.len());
        let class = *self.class_of.get(window)?;
        Some(stage * self.classes + convert::u32_usize(class))
    }

    /// The cached answer in `slot`: `None` while empty, `Some(None)`
    /// for an infeasible leaf.
    fn get(&self, slot: usize) -> Option<Option<StageTimes>> {
        let leaf = self.slots[slot].get()?;
        Some(leaf.as_ref().map(|chosen| chosen.times))
    }

    /// Stores `leaf` in `slot`, unless the slot is already filled.
    fn set(&self, slot: usize, leaf: Option<&OptimizedStage>) {
        // A racing writer of the class stored the same leaf.
        let _same = self.slots[slot].set(leaf.map(Chosen::new));
    }
}

/// The production provider: budgets each `(stage, window)` with the
/// memory model and optimizes it with the recomputation knapsack, caching
/// by isomorphism class — in a private table, or in the instance's
/// table in a [`ClassTables`] ([`KnapsackCostProvider::with_class_tables`]).
#[derive(Debug)]
pub struct KnapsackCostProvider<'a> {
    seq: &'a LayerSeq,
    table: &'a ProfileTable,
    mem: &'a MemoryModel,
    capacity: Bytes,
    rec: Recorder,
    /// The instance's table in a [`ClassTables`], else a private one
    /// built on first use, so a provider handed shared tables never
    /// numbers the windows itself.
    classes: OnceLock<Arc<ClassTable>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> KnapsackCostProvider<'a> {
    /// Creates a provider for stages drawn from `seq`, profiled in
    /// `table`, budgeted by `mem` against a per-device `capacity`.
    #[must_use]
    pub fn new(
        seq: &'a LayerSeq,
        table: &'a ProfileTable,
        mem: &'a MemoryModel,
        capacity: Bytes,
    ) -> Self {
        KnapsackCostProvider {
            seq,
            table,
            mem,
            capacity,
            rec: Recorder::disabled(),
            classes: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Answers from this instance's table in `tables`, filled by earlier
    /// providers of the same instance, instead of a private one. Answers
    /// are byte-identical either way: a slot holds what the knapsack
    /// returns for its class.
    #[must_use]
    pub fn with_class_tables(mut self, tables: &ClassTables) -> Self {
        let shared = tables.table_for(self.seq, self.table, self.mem, self.capacity);
        self.classes = OnceLock::from(shared);
        self
    }

    /// Attaches an observability recorder. The provider reports
    /// `partition.iso_cache.{hits,misses}` (the
    /// [`KnapsackCostProvider::cache_stats`] totals, published once when
    /// the provider is dropped: counted per query, they took the
    /// recorder's lock on every DP lookup), `partition.leaf_evals`,
    /// `subcache.{hits,misses}` (see
    /// [`KnapsackCostProvider::materialize_stage`]) and per-leaf timing
    /// (`partition.leaf.us`), and forwards the recorder into the
    /// recomputation knapsack it runs per leaf.
    #[must_use]
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// Isomorphism-cache hits/misses accumulated so far.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The device capacity the provider budgets against.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    fn classes(&self) -> &ClassTable {
        self.classes.get_or_init(|| {
            let stages = self.mem.parallel().pipeline();
            Arc::new(ClassTable::new(self.seq, self.table, stages))
        })
    }

    /// Runs the full knapsack for one concrete stage assignment,
    /// returning the chosen strategy. Never consults or fills the §5.3
    /// class table, so it is the uncached leaf every cached answer is
    /// checked against.
    ///
    /// # Errors
    ///
    /// Returns [`StrategyError::OutOfMemory`] when the stage cannot fit
    /// even under full recomputation.
    pub fn optimize_stage(
        &self,
        stage: usize,
        range: LayerRange,
    ) -> Result<OptimizedStage, StrategyError> {
        let budget = self
            .budget(stage, range)
            .ok_or(StrategyError::OutOfMemory {
                required: Bytes::new(u64::MAX),
                budget: Bytes::ZERO,
            })?;
        let units = self.table.units_in(range);
        optimize(&units, budget, KnapsackConfig::default(), &self.rec)
    }

    /// The stage Algorithm 1 costed for `(stage, range)`, to materialize
    /// the final plan: rebuilt from the saved flags of `range`'s filled
    /// class slot against `range`'s own units (a `subcache.hits`), else
    /// solved by [`KnapsackCostProvider::optimize_stage`] (a
    /// `subcache.misses`). Equal to `optimize_stage` either way: every
    /// window of a class feeds the knapsack the same items and budget,
    /// the knapsack is a function of those, and costs are recomputed
    /// from the units.
    ///
    /// # Errors
    ///
    /// As [`KnapsackCostProvider::optimize_stage`].
    pub fn materialize_stage(
        &self,
        stage: usize,
        range: LayerRange,
    ) -> Result<OptimizedStage, StrategyError> {
        let slot = self.classes().index(stage, range);
        if let Some(opt) = slot.and_then(|slot| self.rebuild(slot, stage, range)) {
            self.rec.incr(keys::SUBCACHE_HITS);
            return Ok(opt);
        }
        self.rec.incr(keys::SUBCACHE_MISSES);
        self.optimize_stage(stage, range)
    }

    /// `range`'s stage rebuilt from `slot`'s flags, if the slot holds a
    /// feasible leaf.
    fn rebuild(&self, slot: usize, stage: usize, range: LayerRange) -> Option<OptimizedStage> {
        let chosen = self.classes().slots[slot].get()?.as_ref()?;
        let budget = self.budget(stage, range)?;
        let units = self.table.units_in(range);
        let strategy = RecomputeStrategy::from_flags(&units, chosen.flags(units.len()));
        let cost = cost_of(&units, &strategy);
        Some(OptimizedStage {
            slack_bytes: budget.saturating_sub(cost.saved_bytes_per_mb),
            strategy,
            cost,
        })
    }

    fn budget(&self, stage: usize, range: LayerRange) -> Option<Bytes> {
        self.mem
            .activation_budget(self.table, self.seq, range, stage, self.capacity)
    }

    /// Evaluates, in parallel over `pool`, one representative leaf for
    /// every isomorphism class among `windows` that is not cached yet,
    /// so a following serial [`algorithm1::solve_traced`](crate::algorithm1::solve_traced)
    /// run answers every query from the cache. Returns how many leaves
    /// were computed. `windows` is any sequence of `(stage, window)`
    /// pairs, by value or by reference: the stream of
    /// [`algorithm1::reachable`](crate::algorithm1::reachable) (what
    /// [`KnapsackCostProvider::sweep`] passes) or a list such as
    /// [`algorithm1::reachable_windows`](crate::algorithm1::reachable_windows);
    /// over-approximation only costs extra cached leaves, never a
    /// different plan — the DP itself stays serial and the leaves are
    /// pure, which is the byte-identity argument (docs/parallel.md).
    ///
    /// No-op (0 computed) when the pool has a single worker; each
    /// computed representative counts as one isomorphism-cache miss,
    /// exactly as it would when the DP discovered it serially.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] if a pooled leaf evaluation panicked.
    pub fn prefill<W>(&self, pool: &ExecPool, windows: W) -> Result<usize, ExecError>
    where
        W: IntoIterator,
        W::Item: Borrow<(usize, LayerRange)>,
    {
        if pool.threads() < 2 {
            return Ok(0);
        }
        let classes = self.classes();
        let mut claimed = vec![false; classes.slots.len()];
        let mut reps: Vec<(usize, usize, LayerRange)> = Vec::new();
        for window in windows {
            let &(stage, range) = window.borrow();
            let Some(slot) = classes.index(stage, range) else {
                continue;
            };
            if !claimed[slot] && classes.get(slot).is_none() {
                claimed[slot] = true;
                reps.push((slot, stage, range));
            }
        }
        if reps.is_empty() {
            return Ok(0);
        }
        pool.map(&reps, |&(slot, stage, range)| {
            classes.set(slot, self.compute(stage, range).as_ref());
        })?;
        self.misses
            .fetch_add(convert::usize_u64(reps.len()), Ordering::Relaxed);
        Ok(reps.len())
    }

    /// Whether the class table is swept: a [`KnapsackCostProvider::sweep`]
    /// has already filled every slot Algorithm 1 can query, here or in
    /// an earlier provider of the same shared table.
    #[must_use]
    pub fn is_swept(&self) -> bool {
        self.classes().swept.load(Ordering::Acquire)
    }

    /// [`KnapsackCostProvider::prefill`] over the stream of every window
    /// [`algorithm1::solve_traced`](crate::algorithm1::solve_traced) can
    /// query for this provider's instance
    /// ([`algorithm1::reachable`](crate::algorithm1::reachable), never
    /// collected into a list), which marks the class table swept once
    /// it returns `Ok`. Check [`KnapsackCostProvider::is_swept`] first: a
    /// swept table needs no second scan. A no-op (0 computed, table not
    /// swept) on a pool of one worker, like `prefill`.
    ///
    /// # Errors
    ///
    /// As [`KnapsackCostProvider::prefill`].
    ///
    /// # Panics
    ///
    /// On a pool of two or more workers, panics if the pipeline has
    /// more stages than the sequence has layers, as
    /// [`algorithm1::reachable`](crate::algorithm1::reachable) does.
    pub fn sweep(&self, pool: &ExecPool) -> Result<usize, ExecError> {
        if pool.threads() < 2 {
            return Ok(0);
        }
        let windows = crate::algorithm1::reachable(self.seq.len(), self.classes().stages);
        let computed = self.prefill(pool, windows)?;
        // `pool.map` has joined every slot store; this Release pairs
        // with the Acquire in `is_swept`.
        self.classes().swept.store(true, Ordering::Release);
        Ok(computed)
    }

    fn compute(&self, stage: usize, range: LayerRange) -> Option<OptimizedStage> {
        self.rec.incr(keys::PARTITION_LEAF_EVALS);
        let started = self.rec.is_enabled().then(std::time::Instant::now);
        let opt = self.optimize_stage(stage, range).ok();
        if let Some(t0) = started {
            self.rec
                .observe(keys::PARTITION_LEAF_US, t0.elapsed().as_secs_f64() * 1e6);
        }
        opt
    }
}

impl StageCostProvider for KnapsackCostProvider<'_> {
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        let classes = self.classes();
        let slot = classes.index(stage, range);
        if let Some(cached) = slot.and_then(|slot| classes.get(slot)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let leaf = self.compute(stage, range);
        if let Some(slot) = slot {
            classes.set(slot, leaf.as_ref());
        }
        leaf.map(|opt| StageTimes::from(&opt.cost))
    }
}

impl Drop for KnapsackCostProvider<'_> {
    /// Publishes the provider's isomorphism-cache totals, so a snapshot
    /// taken after a plan reads what per-query counting would have left.
    fn drop(&mut self) {
        let CacheStats { hits, misses } = self.cache_stats();
        for (key, total) in [
            (keys::ISO_CACHE_HITS, hits),
            (keys::ISO_CACHE_MISSES, misses),
        ] {
            if total > 0 {
                self.rec.add(key, total);
            }
        }
    }
}

/// Per layer of `seq`, its contents numbered in order of first
/// appearance: two layers get one number exactly when they have the
/// same kind and their units are the same knapsack items.
fn layer_shapes(seq: &LayerSeq, table: &ProfileTable) -> Vec<usize> {
    let mut distinct: Vec<usize> = Vec::new();
    let same = |a: usize, b: usize| {
        seq.layer(a).kind == seq.layer(b).kind
            && same_items(table.layer_units(a), table.layer_units(b))
    };
    (0..seq.len())
        .map(|l| {
            distinct
                .iter()
                .position(|&d| same(d, l))
                .unwrap_or_else(|| {
                    distinct.push(l);
                    distinct.len() - 1
                })
        })
        .collect()
}

/// Numbers the windows of a sequence whose layers have contents
/// `shapes` ([`layer_shapes`]), length by length and, within a length,
/// by first layer: a window's class interns the pair (class of the
/// window one layer shorter, shape of its last layer), so two windows
/// share a class exactly when their layers' shapes are equal. Returns
/// every window's class in that order (the class map) and the number of
/// classes.
fn number_windows(shapes: &[usize]) -> (Vec<u32>, usize) {
    // An empty bucket: no layer has shape `u32::MAX`.
    const EMPTY: u64 = u64::MAX;
    let layers = shapes.len();
    let mut class_of = Vec::with_capacity(layers * (layers + 1) / 2);
    // Per length, an open-addressing table of (pair, class): a
    // `HashMap` took 0.4–0.7 ms per table, mostly hashing.
    let mut buckets: Vec<(u64, u32)> = Vec::new();
    let mut classes = 0u32;
    // Where the windows one layer shorter start in `class_of`.
    let mut shorter: Option<usize> = None;
    for len in 1..=layers {
        let windows = layers - len + 1;
        let bits = (2 * windows).next_power_of_two().trailing_zeros();
        buckets.clear();
        buckets.resize(1 << bits, (EMPTY, 0));
        let row = class_of.len();
        for first in 0..windows {
            let prefix = shorter.map_or(u32::MAX, |start| class_of[start + first]);
            let pair = u64::from(prefix) << 32 | convert::usize_u64(shapes[first + len - 1]);
            let hash = pair.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits);
            let mut at = convert::u64_usize_saturating(hash);
            let class = loop {
                match buckets[at] {
                    (EMPTY, _) => {
                        buckets[at] = (pair, classes);
                        classes += 1;
                        break classes - 1;
                    }
                    (interned, class) if interned == pair => break class,
                    _ => at = (at + 1) & (buckets.len() - 1),
                }
            };
            class_of.push(class);
        }
        shorter = Some(row);
    }
    (class_of, convert::u32_usize(classes))
}

/// Whether two layers' units are the same knapsack items: equal kinds
/// and bit-exact times and sizes, whatever their layer index.
fn same_items(a: &[UnitProfile], b: &[UnitProfile]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.unit.kind == y.unit.kind
                && x.time_f.as_micros().to_bits() == y.time_f.as_micros().to_bits()
                && x.time_b.as_micros().to_bits() == y.time_b.as_micros().to_bits()
                && x.mem_saved == y.mem_saved
        })
}

/// The verification twin of [`KnapsackCostProvider`]: budgets each
/// `(stage, window)` through the *same* memory model, but optimizes the
/// stage with the brute-force subset enumeration of
/// [`adapipe_recompute::optimize_exhaustive`] instead of the knapsack DP.
///
/// Deliberately dumb: no isomorphism cache (only exact-key memoization,
/// which is trivially sound), no knapsack tuning, no recorder plumbing —
/// the fewer moving parts the oracle shares with the production path, the
/// more a disagreement means. Usable only on instances small enough for
/// `optimize_exhaustive`; windows whose stages exceed its enumeration
/// limit are reported infeasible, so keep oracle instances within
/// [`adapipe_recompute::exhaustive::MAX_ORACLE_FREE_UNITS`] free units
/// per stage.
#[derive(Debug)]
pub struct OracleCostProvider<'a> {
    seq: &'a LayerSeq,
    table: &'a ProfileTable,
    mem: &'a MemoryModel,
    capacity: Bytes,
    cache: RefCell<HashMap<(usize, LayerRange), Option<StageTimes>>>,
}

impl<'a> OracleCostProvider<'a> {
    /// Creates an oracle provider over the same inputs as
    /// [`KnapsackCostProvider::new`].
    #[must_use]
    pub fn new(
        seq: &'a LayerSeq,
        table: &'a ProfileTable,
        mem: &'a MemoryModel,
        capacity: Bytes,
    ) -> Self {
        OracleCostProvider {
            seq,
            table,
            mem,
            capacity,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The device capacity the oracle budgets against.
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Brute-force-optimizes one concrete stage assignment.
    ///
    /// # Errors
    ///
    /// [`StrategyError::OutOfMemory`] when the stage cannot fit even
    /// under full recomputation; [`StrategyError::TooLargeForOracle`]
    /// when the window has too many free units to enumerate.
    pub fn optimize_stage(
        &self,
        stage: usize,
        range: LayerRange,
    ) -> Result<OptimizedStage, StrategyError> {
        let budget = self
            .mem
            .activation_budget(self.table, self.seq, range, stage, self.capacity)
            .ok_or(StrategyError::OutOfMemory {
                required: Bytes::new(u64::MAX),
                budget: Bytes::ZERO,
            })?;
        let units = self.table.units_in(range);
        optimize_exhaustive(&units, budget)
    }
}

impl StageCostProvider for OracleCostProvider<'_> {
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        if let Some(cached) = self.cache.borrow().get(&(stage, range)) {
            return *cached;
        }
        let result = self
            .optimize_stage(stage, range)
            .ok()
            .map(|opt| StageTimes::from(&opt.cost));
        self.cache.borrow_mut().insert((stage, range), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::f1b_iteration_time;
    use adapipe_hw::presets as hw;
    use adapipe_memory::OptimizerSpec;
    use adapipe_model::{presets, ModelSpec, ParallelConfig, TrainConfig};
    use adapipe_profiler::Profiler;
    use adapipe_units::MicroSecs;

    struct Fixture {
        seq: LayerSeq,
        table: ProfileTable,
        mem: MemoryModel,
    }

    fn fixture(model: ModelSpec, parallel: ParallelConfig, seq_len: usize) -> Fixture {
        let train = TrainConfig::new(1, seq_len, 16 * parallel.data()).unwrap();
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        let seq = LayerSeq::for_model(&model);
        let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
        Fixture { seq, table, mem }
    }

    /// Checks the [`StageCostProvider`] contract at every `(stage, first
    /// layer)` of an instance: as the last layer grows, no window is
    /// feasible after an infeasible one, and `f + b` (summed as
    /// Algorithm 1 sums it) never decreases. Returns how many windows
    /// were feasible and how many were not.
    fn check_contract(
        p: &KnapsackCostProvider<'_>,
        stages: usize,
    ) -> Result<(usize, usize), String> {
        let l = p.seq.len();
        let (mut feasible, mut infeasible) = (0, 0);
        for stage in 0..stages {
            for first in 0..l {
                let mut prev: Option<StageTimes> = None;
                let mut oom = false;
                for last in first..l {
                    let r = LayerRange::new(first, last);
                    match p.stage_times(stage, r) {
                        None => {
                            oom = true;
                            infeasible += 1;
                        }
                        Some(_) if oom => {
                            return Err(format!("stage {stage} {r}: fits after a shorter OOM"));
                        }
                        Some(t) => {
                            if let Some(a) = prev.filter(|a| t.f + t.b < a.f + a.b) {
                                return Err(format!(
                                    "stage {stage} {r}: f + b fell {a:?} -> {t:?}"
                                ));
                            }
                            prev = Some(t);
                            feasible += 1;
                        }
                    }
                }
            }
        }
        Ok((feasible, infeasible))
    }

    /// `fx`'s table with every unit's saved size scaled by `factor` and
    /// made odd, so the GCD of the knapsack items is 1 and a budget of
    /// more than 2^20 bytes is re-bucketed onto a coarser axis.
    fn odd_sizes(fx: &Fixture, factor: u64) -> ProfileTable {
        let per_layer = (0..fx.table.num_layers())
            .map(|l| {
                let mut units = fx.table.layer_units(l).to_vec();
                for u in &mut units {
                    u.mem_saved = Bytes::new((u.mem_saved.get() * factor) | 1);
                }
                units
            })
            .collect();
        ProfileTable::from_measurements(per_layer, fx.table.boundary_bytes()).unwrap()
    }

    #[test]
    fn contract_holds_on_every_stage_of_the_presets() {
        let cases = [
            (
                presets::gpt2_small(),
                ParallelConfig::new(2, 4, 1).unwrap(),
                1024,
            ),
            (
                presets::tiny_gpt(),
                ParallelConfig::new(1, 2, 1).unwrap(),
                128,
            ),
            (
                presets::tiny_llama(),
                ParallelConfig::new(1, 4, 1).unwrap(),
                256,
            ),
            (
                presets::bert_large(),
                ParallelConfig::new(4, 4, 1).unwrap(),
                512,
            ),
        ];
        for (model, parallel, seq_len) in cases {
            let name = model.name().to_string();
            let p = parallel.pipeline();
            let fx = fixture(model, parallel, seq_len);
            // Shrink the device until half the windows no longer fit,
            // so the out-of-memory frontier crosses every stage.
            let all = LayerRange::new(0, fx.seq.len() - 1);
            let whole = fx.mem.static_bytes(&fx.seq, all);
            for capacity in [whole / 4, whole / 2, whole, whole * 2, Bytes::from_gib(80)] {
                let provider = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, capacity);
                let verdict = check_contract(&provider, p);
                assert!(verdict.is_ok(), "{name} at {capacity}: {verdict:?}");
            }
        }
    }

    #[test]
    fn contract_holds_on_the_rebucketed_axis() {
        let fx = fixture(
            presets::tiny_gpt(),
            ParallelConfig::new(1, 2, 1).unwrap(),
            128,
        );
        let table = odd_sizes(&fx, 8);
        let all = LayerRange::new(0, fx.seq.len() - 1);
        let saved: Bytes = table.units_in(all).iter().map(|u| u.mem_saved).sum();
        let rec = Recorder::new();
        // Stage 0's two live micro-batches share about a quarter of the
        // saved bytes: long windows run out of memory, and the budgets
        // of the others span more than 2^20 bytes.
        let capacity = fx.mem.static_bytes(&fx.seq, all).saturating_add(saved / 4);
        let provider = KnapsackCostProvider::new(&fx.seq, &table, &fx.mem, capacity)
            .with_recorder(rec.clone());
        // Stage 0 is the only stage Algorithm 1's split loop runs on.
        let (feasible, infeasible) = check_contract(&provider, 1).unwrap();
        assert!(feasible > 0 && infeasible > 0, "{feasible} {infeasible}");
        let rebuckets = rec
            .snapshot()
            .counters
            .get(keys::KNAPSACK_REBUCKETS)
            .copied();
        assert!(rebuckets.is_some_and(|r| r > 0), "{rebuckets:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Random capacities across the out-of-memory frontier, on the
        /// analytic table and a jittered one (`Profiler::with_noise`).
        #[test]
        fn contract_holds_on_random_budgets_and_jittered_tables(
            jittered in proptest::bool::ANY,
            budget_permille in 50u64..4000,
            seed in 0u64..1000,
            amplitude in 0.001f64..0.05,
        ) {
            let model = presets::gpt2_small();
            let parallel = ParallelConfig::new(2, 4, 1).unwrap();
            let mut fx = fixture(model.clone(), parallel, 512);
            if jittered {
                let train = TrainConfig::new(1, 512, 16 * parallel.data()).unwrap();
                fx.table = Profiler::new(hw::cluster_a())
                    .with_noise(adapipe_profiler::NoiseConfig { amplitude, seed })
                    .profile(&model, &parallel, &train);
            }
            let all = LayerRange::new(0, fx.seq.len() - 1);
            let capacity = fx.mem.static_bytes(&fx.seq, all) * budget_permille / 1000;
            let provider = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, capacity);
            let verdict = check_contract(&provider, parallel.pipeline());
            proptest::prop_assert!(verdict.is_ok(), "jittered {} at {}: {:?}", jittered, capacity, verdict);
        }
    }

    /// `fx`'s table with the first unit of each of `layers` made 1 µs
    /// slower in backward, as a measured table would differ.
    fn nudged(fx: &Fixture, layers: &[usize]) -> ProfileTable {
        let per_layer = (0..fx.table.num_layers())
            .map(|l| {
                let mut units = fx.table.layer_units(l).to_vec();
                if layers.contains(&l) {
                    units[0].time_b += MicroSecs::new(1.0);
                }
                units
            })
            .collect();
        ProfileTable::from_measurements(per_layer, fx.table.boundary_bytes()).unwrap()
    }

    /// How many distinct window contents `table` has — unit kinds and
    /// bit-exact times and sizes, layer indices aside — counted by
    /// brute force.
    fn content_classes(table: &ProfileTable) -> u64 {
        let l = table.num_layers();
        let contents: std::collections::HashSet<Vec<_>> = (0..l)
            .flat_map(|first| (first..l).map(move |last| LayerRange::new(first, last)))
            .map(|r| {
                let units = table.units_in(r);
                units
                    .iter()
                    .map(|u| {
                        let (f, b) = (u.time_f.as_micros(), u.time_b.as_micros());
                        (u.unit.kind, f.to_bits(), b.to_bits(), u.mem_saved)
                    })
                    .collect()
            })
            .collect();
        convert::usize_u64(contents.len())
    }

    /// The §5.3 law: with the class table, every `(stage, window)` gets
    /// exactly the uncached `optimize_stage` leaf, and every feasible
    /// stage is rebuilt from its slot, on the analytic table and on one
    /// with nudged layers alike. Each class misses once.
    #[test]
    fn iso_cache_changes_nothing_but_hit_counts() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let l = fx.seq.len();
        // Classes per stage of the analytic `[embedding, (attention,
        // feed-forward) × 12, head]`, uniform per layer kind: windows
        // stopping short of the head start at the embedding (L − 1
        // lengths), an attention half (L − 2) or a feed-forward half
        // (L − 3); windows reaching it, one per length (L). That is the
        // paper's (first-layer kind, length) rule.
        let analytic = 4 * convert::usize_u64(l) - 6;
        assert_eq!(content_classes(&fx.table), analytic);
        // Two attention halves and a feed-forward half, deep inside.
        let measured = nudged(&fx, &[9, 14, 21]);
        let split = content_classes(&measured);
        assert!(split > analytic, "{split}");
        for (table, per_stage) in [(&fx.table, analytic), (&measured, split)] {
            let rec = Recorder::new();
            let cached = KnapsackCostProvider::new(&fx.seq, table, &fx.mem, Bytes::from_gib(80))
                .with_recorder(rec.clone());
            let (mut queries, mut feasible) = (0u64, 0u64);
            for stage in 0..4 {
                for first in 0..l {
                    for last in first..l {
                        let r = LayerRange::new(first, last);
                        // `optimize_stage` never touches the class table:
                        // it is the uncached leaf.
                        let solved = cached.optimize_stage(stage, r);
                        let expect = solved.as_ref().ok().map(|opt| StageTimes::from(&opt.cost));
                        assert_eq!(cached.stage_times(stage, r), expect, "stage {stage} {r}");
                        // The stage rebuilt from the slot's flags is the
                        // solved one, byte for byte.
                        assert_eq!(
                            cached.materialize_stage(stage, r),
                            solved,
                            "stage {stage} {r}"
                        );
                        feasible += u64::from(solved.is_ok());
                        queries += 1;
                    }
                }
            }
            let classes = 4 * per_stage;
            assert_eq!(
                cached.cache_stats(),
                CacheStats {
                    hits: queries - classes,
                    misses: classes,
                }
            );
            // Every feasible stage was rebuilt from a slot, none re-solved.
            let counters = rec.snapshot().counters;
            assert!(feasible > 0);
            assert_eq!(counters.get(keys::SUBCACHE_HITS), Some(&feasible));
            let solved = counters.get(keys::SUBCACHE_MISSES).copied().unwrap_or(0);
            assert_eq!(solved, queries - feasible);
            // A stage past the pipeline has no slot: it is answered (no
            // budget, so infeasible) and stays uncached.
            let r = LayerRange::new(3, 6);
            assert_eq!(cached.stage_times(4, r), None);
            assert_eq!(cached.stage_times(4, r), None);
            assert_eq!(
                cached.cache_stats(),
                CacheStats {
                    hits: queries - classes,
                    misses: classes + 2,
                }
            );
        }
    }

    #[test]
    fn isomorphic_windows_share_cost() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let p = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        // Layers 3..=6 and 5..=8 both start with an attention layer and
        // span four layers.
        let a = p.stage_times(1, LayerRange::new(3, 6));
        let b = p.stage_times(1, LayerRange::new(5, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn earlier_stage_has_slower_backward() {
        // Same window, earlier stage -> tighter budget -> more
        // recomputation -> larger b; f never changes.
        let fx = fixture(
            presets::gpt3_175b(),
            ParallelConfig::new(8, 8, 1).unwrap(),
            16384,
        );
        let p = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let range = fx.seq.even_partition(8)[4];
        let s0 = p.stage_times(0, range).unwrap();
        let s7 = p.stage_times(7, range).unwrap();
        assert!((s0.f - s7.f).abs() < MicroSecs::new(1e-6));
        assert!(s0.b >= s7.b);
    }

    #[test]
    fn infeasible_window_is_none() {
        let fx = fixture(
            presets::gpt3_175b(),
            ParallelConfig::new(8, 8, 1).unwrap(),
            16384,
        );
        let p = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(4));
        let whole = LayerRange::new(0, fx.seq.len() - 1);
        assert!(p.stage_times(0, whole).is_none());
        // An infeasible slot keeps no flags: materialize reports the
        // solve's own error.
        let err = p.materialize_stage(0, whole);
        assert!(err.is_err());
        assert_eq!(err, p.optimize_stage(0, whole));
    }

    #[test]
    fn oracle_provider_agrees_with_knapsack_provider() {
        // tiny_gpt windows are small enough to enumerate exhaustively;
        // the GCD-rescaled knapsack is exact, so the two providers must
        // report identical stage times for every feasible window.
        let fx = fixture(
            presets::tiny_gpt(),
            ParallelConfig::new(1, 2, 1).unwrap(),
            128,
        );
        let l = fx.seq.len();
        let dp = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(2));
        let oracle = OracleCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(2));
        let mut feasible = 0usize;
        for stage in 0..2 {
            for first in 0..l {
                for last in first..l {
                    let r = LayerRange::new(first, last);
                    let free = fx
                        .table
                        .units_in(r)
                        .iter()
                        .filter(|u| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
                        .count();
                    if free > adapipe_recompute::exhaustive::MAX_ORACLE_FREE_UNITS {
                        continue;
                    }
                    let (a, b) = (dp.stage_times(stage, r), oracle.stage_times(stage, r));
                    match (a, b) {
                        (Some(a), Some(b)) => {
                            feasible += 1;
                            assert!(
                                (a.f - b.f).abs() < MicroSecs::new(1e-9)
                                    && (a.b - b.b).abs() < MicroSecs::new(1e-6),
                                "stage {stage} {r:?}: dp {a:?} vs oracle {b:?}"
                            );
                        }
                        (None, None) => {}
                        _ => panic!(
                            "feasibility disagreement at stage {stage} {r:?}: {a:?} vs {b:?}"
                        ),
                    }
                }
            }
        }
        assert!(feasible > 0, "fixture produced no feasible windows");
    }

    #[test]
    fn even_partition_end_to_end_cost_is_finite() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let p = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let parts = fx.seq.even_partition(4);
        let times: Vec<StageTimes> = parts
            .iter()
            .enumerate()
            .map(|(s, r)| p.stage_times(s, *r).unwrap())
            .collect();
        let bd = f1b_iteration_time(&times, 16);
        assert!(!bd.total().is_invalid_cost() && bd.total() > MicroSecs::ZERO);
    }

    #[test]
    fn subproblem_cache_does_not_change_stage_times() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let (cap, tables) = (Bytes::from_gib(80), ClassTables::default());
        let plain = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, cap);
        let warm =
            KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, cap).with_class_tables(&tables);
        // A *second* provider of the instance answers from the table the
        // first filled (the cross-request warm-start path).
        let reuse =
            KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, cap).with_class_tables(&tables);
        for stage in 0..4 {
            for first in [0usize, 2, 9] {
                for last in [11usize, 19, 25] {
                    let r = LayerRange::new(first, last);
                    let expect = plain.stage_times(stage, r);
                    assert_eq!(warm.stage_times(stage, r), expect);
                    assert_eq!(reuse.stage_times(stage, r), expect);
                }
            }
        }
        assert!(warm.cache_stats().misses > 0);
        let stats = reuse.cache_stats();
        assert_eq!(
            stats.misses, 0,
            "second provider must answer from the shared table"
        );
        assert!(stats.hits > 0);
    }

    #[test]
    fn subproblem_cache_round_trips_optimize_stage() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let plain = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let rec = Recorder::new();
        let warm = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_recorder(rec.clone());
        let r = LayerRange::new(3, 12);
        // An empty slot is solved; once the DP's query fills it, the
        // window and a sibling of its class are rebuilt from it. All are
        // byte-identical to the uncached solve.
        let expect = plain.optimize_stage(1, r).unwrap();
        assert_eq!(warm.materialize_stage(1, r).unwrap(), expect);
        assert!(warm.stage_times(1, r).is_some());
        assert_eq!(warm.materialize_stage(1, r).unwrap(), expect);
        let sibling = LayerRange::new(5, 14);
        let expect = plain.optimize_stage(1, sibling).unwrap();
        assert_eq!(warm.materialize_stage(1, sibling).unwrap(), expect);
        let counters = rec.snapshot().counters;
        assert_eq!(counters.get(keys::SUBCACHE_HITS), Some(&2));
        assert_eq!(counters.get(keys::SUBCACHE_MISSES), Some(&1));
    }

    #[test]
    fn a_slot_is_empty_infeasible_or_a_leaf_and_set_once() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let provider = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let r = LayerRange::new(3, 12);
        let leaf = provider.optimize_stage(1, r).unwrap();
        let classes = ClassTable::new(&fx.seq, &fx.table, 4);
        // The table is whole once built: a class for every window and a
        // slot per stage and class, and `bytes` counts exactly those.
        let l = fx.seq.len();
        assert_eq!(classes.class_of.len(), l * (l + 1) / 2);
        assert_eq!(classes.slots.len(), 4 * classes.classes);
        let slot = std::mem::size_of::<OnceLock<Option<Chosen>>>();
        let whole =
            classes.class_of.len() * std::mem::size_of::<u32>() + classes.slots.len() * slot;
        assert_eq!(classes.bytes(), convert::usize_u64(whole));
        let feasible = classes.index(1, r).unwrap();
        let infeasible = 0;
        assert_eq!(classes.get(infeasible), None, "empty");
        classes.set(infeasible, None);
        assert_eq!(classes.get(infeasible), Some(None));
        classes.set(feasible, Some(&leaf));
        let times = StageTimes::from(&leaf.cost);
        assert_eq!(classes.get(feasible), Some(Some(times)));
        let chosen = classes.slots[feasible].get().unwrap().as_ref().unwrap();
        let flags: Vec<bool> = leaf.strategy.iter().collect();
        assert_eq!(chosen.flags(flags.len()), flags);
        // A second store of either slot is ignored.
        classes.set(feasible, None);
        classes.set(infeasible, Some(&leaf));
        assert_eq!(classes.get(feasible), Some(Some(times)));
        assert_eq!(classes.get(infeasible), Some(None));
    }

    #[test]
    fn prefill_answers_every_solve_query_from_cache() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let pool = ExecPool::new(4);
        let l = fx.seq.len();
        let (p, n) = (4usize, 16usize);
        let provider =
            || KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let serial = provider();
        // One enumeration in its two shapes: the collected list, and
        // the stream `sweep` passes.
        let listed = provider();
        let windows = crate::algorithm1::reachable_windows(l, p);
        let computed = listed.prefill(&pool, &windows).unwrap();
        assert!(computed > 0, "prefill must evaluate representatives");
        let streamed = provider();
        assert_eq!(streamed.sweep(&pool).unwrap(), computed);
        let a = crate::algorithm1::solve_traced(&serial, l, p, n, &Recorder::disabled());
        let b = crate::algorithm1::solve_traced(&listed, l, p, n, &Recorder::disabled());
        let c = crate::algorithm1::solve_traced(&streamed, l, p, n, &Recorder::disabled());
        assert_eq!(a, b, "prefilled solve must be identical");
        assert_eq!(a, c, "swept solve must be identical");
        // Every query the DP made after prefill was a cache hit.
        let stats = listed.cache_stats();
        assert_eq!(stats.misses, convert::usize_u64(computed));
        assert!(stats.hits > 0);
        assert_eq!(streamed.cache_stats(), stats);
    }

    #[test]
    fn prefill_fills_a_lone_empty_class() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let provider = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        // Two windows of one class: one representative, solved on the
        // caller, and both windows then hit.
        let (r, sibling) = (LayerRange::new(3, 12), LayerRange::new(5, 14));
        let computed = provider.prefill(&ExecPool::new(2), [(1, r), (1, sibling)]);
        assert_eq!(computed.unwrap(), 1);
        assert!(provider.stage_times(1, r).is_some());
        assert!(provider.stage_times(1, sibling).is_some());
        let stats = CacheStats { hits: 2, misses: 1 };
        assert_eq!(provider.cache_stats(), stats);
    }

    #[test]
    fn sweep_marks_a_shared_table_swept_for_later_providers() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let (l, p) = (fx.seq.len(), 4);
        let tables = ClassTables::default();
        let shared = || {
            KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
                .with_class_tables(&tables)
        };
        let first = shared();
        assert!(!first.is_swept());
        assert_eq!(first.sweep(&ExecPool::new(1)).unwrap(), 0);
        assert!(!first.is_swept(), "a single worker fills nothing");
        assert!(first.sweep(&ExecPool::new(2)).unwrap() > 0);
        assert!(first.is_swept());
        // A later provider of the instance sees the flag, and its DP
        // answers every query from the table.
        let second = shared();
        assert!(second.is_swept());
        let plan = crate::algorithm1::solve_traced(&second, l, p, 16, &Recorder::disabled());
        assert!(plan.is_some());
        assert_eq!(second.cache_stats().misses, 0);
    }

    #[test]
    fn cache_totals_reach_the_recorder_once_the_provider_drops() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let rec = Recorder::new();
        let provider = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_recorder(rec.clone());
        let plan = crate::algorithm1::solve_traced(&provider, fx.seq.len(), 4, 16, &rec);
        assert!(plan.is_some());
        let stats = provider.cache_stats();
        assert!(stats.hits > 0 && stats.misses > 0);
        let counters = rec.snapshot().counters;
        assert_eq!(counters.get(keys::ISO_CACHE_HITS), None);
        drop(provider);
        let counters = rec.snapshot().counters;
        assert_eq!(counters.get(keys::ISO_CACHE_HITS), Some(&stats.hits));
        assert_eq!(counters.get(keys::ISO_CACHE_MISSES), Some(&stats.misses));
    }

    #[test]
    fn prefill_is_a_noop_on_single_worker_pools() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let provider = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let windows = crate::algorithm1::reachable_windows(fx.seq.len(), 4);
        let computed = provider.prefill(&ExecPool::new(1), &windows).unwrap();
        assert_eq!(computed, 0);
        assert_eq!(provider.cache_stats(), CacheStats::ZERO);
    }
}
