//! Stage-cost providers: map `(stage, layer window)` to optimized
//! forward/backward times by running the recomputation knapsack.
//!
//! [`KnapsackCostProvider`] is shareable concurrent state (`Sync`):
//! the §5.3 isomorphism cache is a dense table of write-once atomic
//! slots and the hit/miss counters are atomics, so leaf evaluations can
//! fan out over an [`adapipe_exec::ExecPool`] (see
//! [`KnapsackCostProvider::prefill`]) while Algorithm 1 itself stays
//! serial — which is what keeps plans byte-identical at any thread
//! count.

use crate::cost::StageTimes;
use crate::subcache::{self, SubproblemCache};
use adapipe_exec::cache::Digest;
use adapipe_exec::{CacheStats, ExecError, ExecPool};
use adapipe_memory::MemoryModel;
use adapipe_model::{LayerKind, LayerRange, LayerSeq};
use adapipe_obs::{keys, Recorder};
use adapipe_profiler::ProfileTable;
use adapipe_recompute::{
    optimize, optimize_exhaustive, KnapsackConfig, OptimizedStage, StrategyError,
};
use adapipe_units::{convert, Bytes, MicroSecs};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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
/// sees `b`. Racing writers of one class store identical bits (leaves
/// are pure), which makes the slot write-once in effect.
#[derive(Debug)]
struct Slot {
    f: AtomicU64,
    b: AtomicU64,
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
/// The slots are allocated on first use, not with the provider:
/// allocated at construction, the table raised the paper-scale
/// daemon's peak RSS from ~17.7 to 19–22 MB (allocator fragmentation;
/// `perfbench` `serve-paper-miss` on a 2-core host), and allocated on
/// first use it leaves it at ~17.7 MB.
#[derive(Debug)]
struct ClassTable {
    layers: usize,
    stages: usize,
    slots: OnceLock<Vec<Slot>>,
}

impl ClassTable {
    /// A table for `stages` stages of a `layers`-layer sequence; zero
    /// stages is a disabled cache.
    fn new(layers: usize, stages: usize) -> Self {
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

    fn slots(&self) -> &[Slot] {
        self.slots.get_or_init(|| {
            (0..self.len())
                .map(|_| Slot {
                    f: AtomicU64::new(EMPTY),
                    b: AtomicU64::new(0),
                })
                .collect()
        })
    }

    /// The slot of `(stage, range)`'s isomorphism class, if it has one.
    fn index(&self, seq: &LayerSeq, stage: usize, range: LayerRange) -> Option<usize> {
        let l = self.layers;
        if range.last >= l {
            return None;
        }
        let len = range.len();
        let class = if range.last == l - 1 {
            3 * (l - 1) + len - 1
        } else {
            let kind = match seq.layer(range.first).kind {
                LayerKind::Embedding => 0,
                LayerKind::Attention => 1,
                LayerKind::FeedForward => 2,
                LayerKind::DecodingHead => return None,
            };
            kind * (l - 1) + len - 1
        };
        let slot = stage.checked_mul(Self::stride(l))?.checked_add(class)?;
        (slot < self.len()).then_some(slot)
    }

    /// The cached answer in `slot`: `None` while empty, `Some(None)`
    /// for an infeasible leaf.
    fn get(&self, slot: usize) -> Option<Option<StageTimes>> {
        let slot = &self.slots()[slot];
        match slot.f.load(Ordering::Acquire) {
            EMPTY => None,
            INFEASIBLE => Some(None),
            f => Some(Some(StageTimes {
                f: MicroSecs::new(f64::from_bits(f)),
                b: MicroSecs::new(f64::from_bits(slot.b.load(Ordering::Relaxed))),
            })),
        }
    }

    fn set(&self, slot: usize, times: Option<StageTimes>) {
        let slot = &self.slots()[slot];
        let f = match times {
            None => INFEASIBLE,
            Some(t) => {
                let f = t.f.as_micros().to_bits();
                if f == EMPTY || f == INFEASIBLE {
                    return;
                }
                slot.b.store(t.b.as_micros().to_bits(), Ordering::Relaxed);
                f
            }
        };
        slot.f.store(f, Ordering::Release);
    }
}

/// The production provider: budgets each `(stage, window)` with the
/// memory model and optimizes it with the recomputation knapsack, caching
/// by isomorphism class — and, when a [`SubproblemCache`] is attached,
/// consulting the process-global content-addressed leaf cache so
/// isomorphic windows of *other* solves and requests are reused too.
#[derive(Debug)]
pub struct KnapsackCostProvider<'a> {
    seq: &'a LayerSeq,
    table: &'a ProfileTable,
    mem: &'a MemoryModel,
    capacity: Bytes,
    rec: Recorder,
    subcache: Option<&'a SubproblemCache>,
    /// Per-layer content digests, built once on first subcache lookup:
    /// window keys then hash `O(len)` digest bytes instead of
    /// re-serializing every unit profile, which would cost more than
    /// the microsecond-scale knapsack solve the cache skips.
    layer_digests: OnceLock<Vec<Digest>>,
    classes: ClassTable,
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
            subcache: None,
            layer_digests: OnceLock::new(),
            classes: ClassTable::new(seq.len(), mem.parallel().pipeline()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Enables or disables the §5.3 isomorphism cache (disable only for
    /// the ablation benchmark; results are identical either way).
    #[must_use]
    pub fn with_isomorphism_cache(mut self, enabled: bool) -> Self {
        let stages = if enabled {
            self.mem.parallel().pipeline()
        } else {
            0
        };
        self.classes = ClassTable::new(self.seq.len(), stages);
        self
    }

    /// Attaches a content-addressed subproblem cache consulted (and
    /// filled) by every leaf evaluation. Pass
    /// [`subcache::global()`](crate::subcache::global) to share leaves
    /// process-wide; results are byte-identical either way because a
    /// cached leaf replays exactly what the knapsack would compute.
    #[must_use]
    pub fn with_subproblem_cache(mut self, cache: &'a SubproblemCache) -> Self {
        self.subcache = Some(cache);
        self
    }

    /// Attaches an observability recorder. The provider reports
    /// `partition.iso_cache.{hits,misses}`, `partition.leaf_evals`,
    /// `subcache.{hits,misses}` (when a subproblem cache is attached)
    /// and per-leaf timing (`partition.leaf.us`), and forwards the
    /// recorder into the recomputation knapsack it runs per leaf.
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
    /// returning the chosen strategy (used to materialize the final plan
    /// after Algorithm 1 picks the boundaries).
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
            .mem
            .activation_budget(self.table, self.seq, range, stage, self.capacity)
            .ok_or(StrategyError::OutOfMemory {
                required: Bytes::new(u64::MAX),
                budget: Bytes::ZERO,
            })?;
        let units = self.table.units_in(range);
        let keyed = self.subcache.and_then(|sc| {
            let digests = self
                .layer_digests
                .get_or_init(|| {
                    (0..self.table.num_layers())
                        .map(|l| subcache::layer_digest(self.table.layer_units(l)))
                        .collect()
                })
                .get(range.first..=range.last)?;
            Some((sc, subcache::leaf_key(digests, budget)))
        });
        let Some((sc, key)) = keyed else {
            return optimize(&units, budget, KnapsackConfig::default(), &self.rec);
        };
        if let Some(outcome) = sc.lookup(&key) {
            self.rec.incr(keys::SUBCACHE_HITS);
            return subcache::rebuild(&units, budget, &outcome);
        }
        self.rec.incr(keys::SUBCACHE_MISSES);
        let result = optimize(&units, budget, KnapsackConfig::default(), &self.rec);
        if let Some(outcome) = subcache::outcome_of(&result) {
            sc.store(key, outcome);
        }
        result
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
    /// No-op (0 computed) when the isomorphism cache is disabled or the
    /// pool has a single worker; each computed representative counts as
    /// one isomorphism-cache miss, exactly as it would when the DP
    /// discovered it serially.
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
            self.classes.set(slot, self.compute(stage, range));
        })?;
        self.misses
            .fetch_add(convert::usize_u64(reps.len()), Ordering::Relaxed);
        self.rec
            .add(keys::ISO_CACHE_MISSES, convert::usize_u64(reps.len()));
        Ok(reps.len())
    }

    fn compute(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        self.rec.incr(keys::PARTITION_LEAF_EVALS);
        let started = self.rec.is_enabled().then(std::time::Instant::now);
        let opt = self.optimize_stage(stage, range).ok();
        if let Some(t0) = started {
            self.rec
                .observe(keys::PARTITION_LEAF_US, t0.elapsed().as_secs_f64() * 1e6);
        }
        let opt = opt?;
        Some(StageTimes {
            f: opt.cost.time_f,
            b: opt.cost.time_b,
        })
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
        let result = self.compute(stage, range);
        if let Some(slot) = slot {
            self.classes.set(slot, result);
        }
        result
    }
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
            .map(|opt| StageTimes {
                f: opt.cost.time_f,
                b: opt.cost.time_b,
            });
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
        let cached = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let raw = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_isomorphism_cache(false);
        let l = fx.seq.len();
        let mut queries = 0u64;
        for stage in 0..4 {
            for first in 0..l {
                for last in first..l {
                    let r = LayerRange::new(first, last);
                    let expect = raw.stage_times(stage, r);
                    assert_eq!(cached.stage_times(stage, r), expect, "stage {stage} {r}");
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
        assert_eq!(
            raw.cache_stats(),
            CacheStats {
                hits: 0,
                misses: queries,
            }
        );
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
        let shared = SubproblemCache::new(1024);
        let plain = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let warm = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_subproblem_cache(&shared);
        // A *second* provider on the same cache answers from shared
        // leaves (the cross-request warm-start path).
        let reuse = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_subproblem_cache(&shared);
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
        let stats = shared.stats();
        assert!(stats.hits > 0, "second provider must hit shared leaves");
        assert!(stats.misses > 0);
    }

    #[test]
    fn subproblem_cache_round_trips_optimize_stage() {
        let fx = fixture(
            presets::gpt2_small(),
            ParallelConfig::new(2, 4, 1).unwrap(),
            1024,
        );
        let shared = SubproblemCache::new(256);
        let plain = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80));
        let warm = KnapsackCostProvider::new(&fx.seq, &fx.table, &fx.mem, Bytes::from_gib(80))
            .with_subproblem_cache(&shared);
        let r = LayerRange::new(3, 12);
        // First call fills the cache, second replays it; both must be
        // byte-identical to the uncached solve.
        let expect = plain.optimize_stage(1, r).unwrap();
        assert_eq!(warm.optimize_stage(1, r).unwrap(), expect);
        assert_eq!(warm.optimize_stage(1, r).unwrap(), expect);
        assert_eq!(shared.stats().hits, 1);
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
