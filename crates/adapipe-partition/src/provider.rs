//! Stage-cost providers: map `(stage, layer window)` to optimized
//! forward/backward times by running the recomputation knapsack.
//!
//! [`KnapsackCostProvider`] is shareable concurrent state (`Sync`):
//! the §5.3 isomorphism cache is a dense table of write-once atomic
//! slots and the hit/miss counters are atomics, so leaf evaluations can
//! fan out over an [`adapipe_exec::ExecPool`] (see
//! [`KnapsackCostProvider::prefill`]) while Algorithm 1 itself stays
//! serial — which is what keeps plans byte-identical at any thread
//! count. The same property lets the daemon share one filled table
//! across the requests of an instance ([`crate::subcache`]).

use crate::cost::StageTimes;
use crate::subcache;
use adapipe_exec::{CacheStats, ExecError, ExecPool};
use adapipe_memory::MemoryModel;
use adapipe_model::{LayerKind, LayerRange, LayerSeq};
use adapipe_obs::{keys, Recorder};
use adapipe_profiler::{ProfileTable, UnitProfile};
use adapipe_recompute::strategy::cost_of;
use adapipe_recompute::{
    optimize, optimize_exhaustive, KnapsackConfig, OptimizedStage, RecomputeStrategy, StrategyError,
};
use adapipe_units::{convert, Bytes, MicroSecs};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Source of the `f[s,i,j]` / `b[s,i,j]` arrays consumed by Algorithm 1.
///
/// Returning `None` marks the assignment infeasible (the stage cannot fit
/// even under full recomputation), which Algorithm 1 propagates into OOM
/// verdicts for whole configurations.
pub trait StageCostProvider {
    /// Optimized forward/backward times for assigning the layers of
    /// `range` to pipeline stage `stage`, or `None` if infeasible.
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes>;
}

/// `f` bits of a slot no leaf has been written to. Both sentinels are
/// NaN payloads no arithmetic produces; a leaf time with these bits is
/// answered uncached instead of stored.
const EMPTY: u64 = u64::MAX;
/// `f` bits of a slot whose leaf cannot fit even under full
/// recomputation.
const INFEASIBLE: u64 = u64::MAX - 1;

/// One isomorphism-class slot: the leaf's `f` and `b` as `f64` bits.
/// `f` doubles as the state word ([`EMPTY`], [`INFEASIBLE`]) and is
/// written last with release ordering, so a reader that sees it also
/// sees `b` and the slot's [`Chosen`] flags. Racing writers of one
/// class store identical bits (leaves are pure), which makes the slot
/// write-once in effect.
#[derive(Debug)]
struct Slot {
    f: AtomicU64,
    b: AtomicU64,
}

/// What a feasible slot's leaf chose: the first layer of the window
/// that filled the slot and its saved flags, packed 64 to a word (as
/// `bool`s they raised the paper-scale daemon's peak RSS by 3–8 MB).
/// Kept beside the slots, not in them, so Algorithm 1's `stage_times`
/// path reads the dense `f`/`b` array alone.
#[derive(Debug)]
struct Chosen {
    first: usize,
    saved: Box<[u64]>,
}

impl Chosen {
    fn new(first: usize, strategy: &RecomputeStrategy) -> Self {
        let mut saved = vec![0u64; strategy.len().div_ceil(64)];
        for (i, flag) in strategy.iter().enumerate() {
            if let Some(word) = saved.get_mut(i / 64) {
                *word |= u64::from(flag) << (i % 64);
            }
        }
        let saved = saved.into_boxed_slice();
        Chosen { first, saved }
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

/// The §5.3 class of `range` within one stage, numbered `0 .. 4L − 3`:
/// windows that stop before the last layer are keyed by first-layer
/// kind and length, windows that reach it by length alone. `None` for a
/// window past the sequence or one starting at the decoding head yet
/// stopping short of it. The one statement of the class rule: the
/// cache's slots and [`KnapsackCostProvider::isomorphism_violation`]
/// both key on it.
fn iso_class(seq: &LayerSeq, range: LayerRange) -> Option<usize> {
    let l = seq.len();
    if range.last >= l {
        return None;
    }
    let len = range.len();
    if range.last == l - 1 {
        return Some(3 * (l - 1) + len - 1);
    }
    let kind = match seq.layer(range.first).kind {
        LayerKind::Embedding => 0,
        LayerKind::Attention => 1,
        LayerKind::FeedForward => 2,
        LayerKind::DecodingHead => return None,
    };
    Some(kind * (l - 1) + len - 1)
}

/// The §5.3 isomorphism cache as a dense, lock-free table. Within a
/// homogeneous transformer, two layer windows with equal length, equal
/// first-layer kind and the same "reaches the final layer" flag contain
/// identical layer sequences, so per stage the classes are:
///
/// * windows that stop before the last layer: one slot per first-layer
///   kind that can start one (embedding, attention, feed-forward) and
///   length `1..L`;
/// * windows that reach the last layer: one slot per length `1..=L`
///   (the length fixes the first layer, hence its kind).
///
/// That is `4L − 3` slots per stage, indexed arithmetically. Queries the
/// table has no slot for — a stage past the pipeline, a window past the
/// sequence, or one starting at the decoding head yet stopping short of
/// it — are answered uncached.
///
/// Each feasible slot also keeps its leaf's [`Chosen`] flags, so
/// materialize rebuilds a winning stage instead of solving it again.
///
/// The slots are allocated on first use, not with the provider:
/// allocated at construction, the table raised the paper-scale
/// daemon's peak RSS from ~17.7 to 19–22 MB (allocator fragmentation;
/// `perfbench` `serve-paper-miss` on a 2-core host), and allocated on
/// first use it leaves it at ~17.7 MB.
#[derive(Debug)]
pub(crate) struct ClassTable {
    layers: usize,
    stages: usize,
    slots: OnceLock<(Vec<Slot>, Vec<OnceLock<Chosen>>)>,
}

impl ClassTable {
    /// A table for `stages` stages of a `layers`-layer sequence.
    pub(crate) fn new(layers: usize, stages: usize) -> Self {
        ClassTable {
            layers,
            stages,
            slots: OnceLock::new(),
        }
    }

    fn stride(layers: usize) -> usize {
        (4 * layers).saturating_sub(3)
    }

    fn len(&self) -> usize {
        self.stages * Self::stride(self.layers)
    }

    /// Bytes of the slot arrays (the flags of filled slots come on top).
    pub(crate) fn bytes(&self) -> u64 {
        let slot = std::mem::size_of::<Slot>() + std::mem::size_of::<OnceLock<Chosen>>();
        convert::usize_u64(self.len() * slot)
    }

    fn slots(&self) -> &(Vec<Slot>, Vec<OnceLock<Chosen>>) {
        self.slots.get_or_init(|| {
            let times = (0..self.len())
                .map(|_| Slot {
                    f: AtomicU64::new(EMPTY),
                    b: AtomicU64::new(0),
                })
                .collect();
            (times, (0..self.len()).map(|_| OnceLock::new()).collect())
        })
    }

    /// The slot of `(stage, range)`'s isomorphism class, if it has one.
    fn index(&self, seq: &LayerSeq, stage: usize, range: LayerRange) -> Option<usize> {
        let slot = stage
            .checked_mul(Self::stride(self.layers))?
            .checked_add(iso_class(seq, range)?)?;
        (slot < self.len()).then_some(slot)
    }

    /// The cached answer in `slot`: `None` while empty, `Some(None)`
    /// for an infeasible leaf.
    fn get(&self, slot: usize) -> Option<Option<StageTimes>> {
        let slot = &self.slots().0[slot];
        match slot.f.load(Ordering::Acquire) {
            EMPTY => None,
            INFEASIBLE => Some(None),
            f => Some(Some(StageTimes {
                f: MicroSecs::new(f64::from_bits(f)),
                b: MicroSecs::new(f64::from_bits(slot.b.load(Ordering::Relaxed))),
            })),
        }
    }

    /// Stores the leaf solved for the window starting at layer `first`.
    fn set(&self, slot: usize, first: usize, leaf: Option<&OptimizedStage>) {
        let (times, chosen) = self.slots();
        let slot_times = &times[slot];
        let f = match leaf {
            None => INFEASIBLE,
            Some(opt) => {
                let t = StageTimes::from(&opt.cost);
                let f = t.f.as_micros().to_bits();
                if f == EMPTY || f == INFEASIBLE {
                    return;
                }
                // A racing writer of the class stored the same flags.
                let _same = chosen[slot].set(Chosen::new(first, &opt.strategy));
                slot_times
                    .b
                    .store(t.b.as_micros().to_bits(), Ordering::Relaxed);
                f
            }
        };
        slot_times.f.store(f, Ordering::Release);
    }
}

/// The production provider: budgets each `(stage, window)` with the
/// memory model and optimizes it with the recomputation knapsack, caching
/// by isomorphism class — in a private table, or in the instance's
/// process-wide one ([`KnapsackCostProvider::with_shared_class_table`]).
#[derive(Debug)]
pub struct KnapsackCostProvider<'a> {
    seq: &'a LayerSeq,
    table: &'a ProfileTable,
    mem: &'a MemoryModel,
    capacity: Bytes,
    rec: Recorder,
    classes: Arc<ClassTable>,
    /// [`layer_shapes`] of `table`, computed on first use.
    shapes: OnceLock<Vec<usize>>,
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
            classes: Arc::new(ClassTable::new(seq.len(), mem.parallel().pipeline())),
            shapes: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Answers from the class table this instance shares process-wide
    /// ([`crate::subcache`]), filled by earlier providers of the same
    /// instance, instead of a private one. Answers are byte-identical
    /// either way: a slot holds what the knapsack returns for its class.
    #[must_use]
    pub fn with_shared_class_table(mut self) -> Self {
        self.classes = subcache::table_for(self.seq, self.table, self.mem, self.capacity);
        self
    }

    /// Attaches an observability recorder. The provider reports
    /// `partition.iso_cache.{hits,misses}`, `partition.leaf_evals`,
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
    /// the final plan: rebuilt from the saved flags of `range`'s class
    /// slot against `range`'s own units when the window that filled the
    /// slot has the same knapsack items and budget (a `subcache.hits`),
    /// else solved by [`KnapsackCostProvider::optimize_stage`] (a
    /// `subcache.misses`). Equal to `optimize_stage` either way: the
    /// knapsack is a function of the items and the budget, and costs
    /// are recomputed from the units.
    ///
    /// # Errors
    ///
    /// As [`KnapsackCostProvider::optimize_stage`].
    pub fn materialize_stage(
        &self,
        stage: usize,
        range: LayerRange,
    ) -> Result<OptimizedStage, StrategyError> {
        let slot = self.classes.index(self.seq, stage, range);
        if let Some(opt) = slot.and_then(|slot| self.rebuild(slot, stage, range)) {
            self.rec.incr(keys::SUBCACHE_HITS);
            return Ok(opt);
        }
        self.rec.incr(keys::SUBCACHE_MISSES);
        self.optimize_stage(stage, range)
    }

    /// `range`'s stage rebuilt from `slot`'s flags, if the window that
    /// filled the slot feeds the knapsack the same items and budget.
    fn rebuild(&self, slot: usize, stage: usize, range: LayerRange) -> Option<OptimizedStage> {
        let chosen = self.classes.slots().1[slot].get()?;
        let filler = LayerRange::new(chosen.first, chosen.first + range.len() - 1);
        if !self.same_inputs(stage, filler, range) {
            return None;
        }
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

    /// Checks the §5.3 premise for `range` at `stage`: every window
    /// sharing its class slot must feed the knapsack the same inputs —
    /// per layer the unit kinds and bit-exact `time_f`, `time_b` and
    /// `mem_saved` (layer indices aside) — and get the same activation
    /// budget.
    /// Returns the lowest-starting sibling that does not, whose leaf cost
    /// the slot may hold in place of `range`'s; `None` when the class is
    /// sound for `range` or `range` has no slot (so is never shared).
    ///
    /// Solves no knapsack: layers are deduplicated by content once per
    /// provider, then each sibling costs one slice comparison and two
    /// budgets.
    #[must_use]
    pub fn isomorphism_violation(&self, stage: usize, range: LayerRange) -> Option<LayerRange> {
        let slot = self.classes.index(self.seq, stage, range)?;
        let len = range.len();
        (0..=self.seq.len() - len)
            .map(|first| LayerRange::new(first, first + len - 1))
            .filter(|&r| self.classes.index(self.seq, stage, r) == Some(slot))
            .find(|&r| !self.same_inputs(stage, range, r))
    }

    /// Whether windows `a` and `b` feed stage `stage`'s knapsack the
    /// same inputs: per layer the same items (equal slices of
    /// [`layer_shapes`], computed once per provider) and the same
    /// activation budget. The one statement of the rule: materialize
    /// rebuilds a slot's flags only into a window that passes it, and
    /// [`KnapsackCostProvider::isomorphism_violation`] names a sibling
    /// that fails it.
    fn same_inputs(&self, stage: usize, a: LayerRange, b: LayerRange) -> bool {
        let shapes = self.shapes.get_or_init(|| layer_shapes(self.table));
        let items = |r: LayerRange| shapes.get(r.first..=r.last);
        a == b
            || (items(a).is_some()
                && items(a) == items(b)
                && self.budget(stage, a) == self.budget(stage, b))
    }

    fn budget(&self, stage: usize, range: LayerRange) -> Option<Bytes> {
        self.mem
            .activation_budget(self.table, self.seq, range, stage, self.capacity)
    }

    /// Evaluates, in parallel over `pool`, one representative leaf for
    /// every isomorphism class among `windows` that is not cached yet,
    /// so a following serial [`algorithm1::solve_traced`](crate::algorithm1::solve_traced)
    /// run answers every query from the cache. Returns how many leaves
    /// were computed. Pair with
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
    pub fn prefill(
        &self,
        pool: &ExecPool,
        windows: &[(usize, LayerRange)],
    ) -> Result<usize, ExecError> {
        if pool.threads() < 2 {
            return Ok(0);
        }
        let mut claimed = vec![false; self.classes.len()];
        let mut reps: Vec<(usize, usize, LayerRange)> = Vec::new();
        for &(stage, range) in windows {
            let Some(slot) = self.classes.index(self.seq, stage, range) else {
                continue;
            };
            if !claimed[slot] && self.classes.get(slot).is_none() {
                claimed[slot] = true;
                reps.push((slot, stage, range));
            }
        }
        if reps.len() < 2 {
            return Ok(0);
        }
        pool.map(&reps, |&(slot, stage, range)| {
            self.classes
                .set(slot, range.first, self.compute(stage, range).as_ref());
        })?;
        self.misses
            .fetch_add(convert::usize_u64(reps.len()), Ordering::Relaxed);
        self.rec
            .add(keys::ISO_CACHE_MISSES, convert::usize_u64(reps.len()));
        Ok(reps.len())
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
        let slot = self.classes.index(self.seq, stage, range);
        if let Some(cached) = slot.and_then(|slot| self.classes.get(slot)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.rec.incr(keys::ISO_CACHE_HITS);
            return cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.rec.incr(keys::ISO_CACHE_MISSES);
        let leaf = self.compute(stage, range);
        if let Some(slot) = slot {
            self.classes.set(slot, range.first, leaf.as_ref());
        }
        leaf.map(|opt| StageTimes::from(&opt.cost))
    }
}

/// Per layer of `table`, the first layer whose unit profiles are the
/// same knapsack items: two windows feed the knapsack identical units
/// exactly when their slices of this vector are equal.
fn layer_shapes(table: &ProfileTable) -> Vec<usize> {
    let mut distinct: Vec<usize> = Vec::new();
    (0..table.num_layers())
        .map(|l| {
            let units = table.layer_units(l);
            let same = |&d: &usize| same_items(table.layer_units(d), units);
            distinct.iter().copied().find(same).unwrap_or_else(|| {
                distinct.push(l);
                l
            })
        })
        .collect()
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

    #[test]
    fn iso_cache_changes_nothing_but_hit_counts() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let rec = Recorder::new();
        let cached = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_recorder(rec.clone());
        let l = fx.seq.len();
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
                    // The analytic table is uniform per layer kind, so
                    // the §5.3 premise holds for every class.
                    assert_eq!(
                        cached.isomorphism_violation(stage, r),
                        None,
                        "stage {stage} {r}"
                    );
                    queries += 1;
                }
            }
        }
        // Classes per stage of `[embedding, (attention, feed-forward)
        // × 12, head]`: windows stopping short of the head start at the
        // embedding (L − 1 lengths), an attention half (L − 2) or a
        // feed-forward half (L − 3); windows reaching it, one per length
        // (L). Each class misses once, every other query hits.
        let classes = 4 * (4 * convert::usize_u64(l) - 6);
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

    #[test]
    fn isomorphism_violation_names_a_sibling_holding_the_nudged_layer() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        // Layer 9 is an attention half deep inside the sequence.
        let nudged = 9;
        let per_layer = (0..fx.table.num_layers())
            .map(|l| {
                let mut units = fx.table.layer_units(l).to_vec();
                if l == nudged {
                    units[0].time_b += MicroSecs::new(1.0);
                }
                units
            })
            .collect();
        let table = ProfileTable::from_measurements(per_layer, fx.table.boundary_bytes()).unwrap();
        let rec = Recorder::new();
        let p = KnapsackCostProvider::new(&fx.seq, &table, &fx.mem, Bytes::from_gib(80))
            .with_recorder(rec.clone());
        // Windows clear of layer 9 share their class with siblings that
        // hold it, and the sibling named is one of those; a window
        // holding it differs from every sibling.
        let r = LayerRange::new(11, 14);
        for (stage, window) in [(1, LayerRange::new(3, 6)), (2, r)] {
            let sibling = p.isomorphism_violation(stage, window);
            assert!(sibling.is_some_and(|w| w.contains(nudged)), "{sibling:?}");
        }
        let sibling = p.isomorphism_violation(0, LayerRange::new(9, 12));
        assert!(sibling.is_some_and(|w| !w.contains(nudged)), "{sibling:?}");
        // Unique classes (the embedding-led and head-reaching windows)
        // have no sibling to differ from.
        let l = fx.seq.len();
        assert_eq!(p.isomorphism_violation(0, LayerRange::new(0, 12)), None);
        assert_eq!(p.isomorphism_violation(3, LayerRange::new(5, l - 1)), None);
        assert_eq!(
            p.isomorphism_violation(4, r),
            None,
            "no slot past the pipeline"
        );
        // The slot `[9..12]` fills holds layer 9's leaf, so its sibling
        // `[3..6]` is solved at materialize, not rebuilt from it.
        let (filler, sibling) = (LayerRange::new(9, 12), LayerRange::new(3, 6));
        assert!(p.stage_times(1, filler).is_some());
        assert_eq!(
            p.materialize_stage(1, sibling),
            p.optimize_stage(1, sibling)
        );
        assert_eq!(p.materialize_stage(1, filler), p.optimize_stage(1, filler));
        let counters = rec.snapshot().counters;
        assert_eq!(counters.get(keys::SUBCACHE_MISSES), Some(&1));
        assert_eq!(counters.get(keys::SUBCACHE_HITS), Some(&1));
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
        // A capacity no other test plans at, so the shared table starts
        // empty.
        let cap = Bytes::new(Bytes::from_gib(80).get() - 1);
        let plain = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, cap);
        let warm =
            KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, cap).with_shared_class_table();
        // A *second* provider of the instance answers from the table the
        // first filled (the cross-request warm-start path).
        let reuse =
            KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, cap).with_shared_class_table();
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
    fn prefill_answers_every_solve_query_from_cache() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let pool = ExecPool::new(4);
        let l = fx.seq.len();
        let (p, n) = (4usize, 16usize);
        let serial = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let pooled = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let windows = crate::algorithm1::reachable_windows(l, p);
        let computed = pooled.prefill(&pool, &windows).unwrap();
        assert!(computed > 0, "prefill must evaluate representatives");
        let a = crate::algorithm1::solve_traced(&serial, l, p, n, &Recorder::disabled());
        let b = crate::algorithm1::solve_traced(&pooled, l, p, n, &Recorder::disabled());
        assert_eq!(a, b, "prefilled solve must be identical");
        // Every query the DP made after prefill was a cache hit.
        let stats = pooled.cache_stats();
        assert_eq!(stats.misses, convert::usize_u64(computed));
        assert!(stats.hits > 0);
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
