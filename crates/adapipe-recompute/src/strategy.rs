//! Recomputation strategies and their exact cost accounting.

use adapipe_model::UnitKind;
use adapipe_profiler::UnitProfile;
use adapipe_units::{Bytes, MicroSecs};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A per-stage recomputation strategy: for each computation unit of the
/// stage (in execution order), whether its intermediates are *saved*.
///
/// This is the set complement of the paper's `R` (the recomputed set);
/// pinned units are always saved.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RecomputeStrategy {
    saved: Vec<bool>,
}

impl RecomputeStrategy {
    /// Builds a strategy from per-unit saved flags.
    ///
    /// Saved flags are also the *portable* form of a knapsack solution:
    /// the §5.3 class table (`adapipe_partition`) keeps only these flags
    /// per slot and replays them through
    /// [`RecomputeStrategy::from_flags`] against the materialized
    /// window, so a rebuilt stage re-derives costs rather than trusting
    /// stored ones.
    ///
    /// # Panics
    ///
    /// Panics if `saved` marks a pinned unit as recomputed — pinned units
    /// (layer outputs) are saved by construction (§4.2).
    #[must_use]
    pub fn from_flags(units: &[UnitProfile], saved: Vec<bool>) -> Self {
        assert_eq!(units.len(), saved.len(), "one flag per unit");
        for (u, &s) in units.iter().zip(&saved) {
            assert!(
                s || !u.is_pinned(),
                "pinned unit {} cannot be recomputed",
                u.unit
            );
        }
        RecomputeStrategy { saved }
    }

    /// Builds a strategy from bare flags without checking them against
    /// unit profiles — for deserialization, where the unit table is not
    /// at hand. Prefer [`RecomputeStrategy::from_flags`] when it is.
    #[must_use]
    pub fn from_raw_flags(saved: Vec<bool>) -> Self {
        RecomputeStrategy { saved }
    }

    /// Number of units covered by the strategy.
    #[must_use]
    pub fn len(&self) -> usize {
        self.saved.len()
    }

    /// Whether the strategy covers zero units.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.saved.is_empty()
    }

    /// Whether unit `i` is saved.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn is_saved(&self, i: usize) -> bool {
        self.saved[i]
    }

    /// Number of saved units — the quantity Table 4 reports per stage.
    #[must_use]
    pub fn saved_count(&self) -> usize {
        self.saved.iter().filter(|&&s| s).count()
    }

    /// Number of recomputed units (`|R|`).
    #[must_use]
    pub fn recomputed_count(&self) -> usize {
        self.len() - self.saved_count()
    }

    /// Iterates over the saved flags in unit order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        self.saved.iter().copied()
    }
}

impl fmt::Display for RecomputeStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} saved / {} units", self.saved_count(), self.len())
    }
}

/// Aggregate forward/backward cost and memory footprint of one stage
/// under a concrete strategy: the `F_{G,s}` and `B_{G,s}` of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageCost {
    /// Forward time of the stage (independent of recomputation).
    pub time_f: MicroSecs,
    /// Backward time including re-running the forward of recomputed units.
    pub time_b: MicroSecs,
    /// Saved intermediates per micro-batch.
    pub saved_bytes_per_mb: Bytes,
}

/// Exact cost of applying `strategy` to `units`.
///
/// # Panics
///
/// Panics if the strategy length does not match the unit count.
#[must_use]
pub fn cost_of(units: &[UnitProfile], strategy: &RecomputeStrategy) -> StageCost {
    assert_eq!(units.len(), strategy.len(), "strategy/unit length mismatch");
    let mut time_f = MicroSecs::ZERO;
    let mut time_b = MicroSecs::ZERO;
    let mut saved_bytes = Bytes::ZERO;
    for (i, u) in units.iter().enumerate() {
        time_f += u.time_f;
        time_b += u.time_b;
        if strategy.is_saved(i) {
            saved_bytes = saved_bytes.saturating_add(u.mem_saved);
        } else {
            // Recomputed units repeat their forward pass during backward.
            time_b += u.time_f;
        }
    }
    StageCost {
        time_f,
        time_b,
        saved_bytes_per_mb: saved_bytes,
    }
}

/// Recompute-buffer size implied by `strategy`: the backward pass
/// rematerializes, one layer at a time, the recomputed units of that
/// layer — the buffer must hold the largest such per-layer sum (§4.2).
/// Zero when nothing is recomputed.
///
/// # Panics
///
/// Panics if the strategy length does not match the unit count.
#[must_use]
pub fn buffer_bytes_of(units: &[UnitProfile], strategy: &RecomputeStrategy) -> Bytes {
    assert_eq!(units.len(), strategy.len(), "strategy/unit length mismatch");
    let mut max = Bytes::ZERO;
    let mut cur = Bytes::ZERO;
    let mut cur_layer = usize::MAX;
    for (i, u) in units.iter().enumerate() {
        if u.unit.layer != cur_layer {
            max = max.max(cur);
            cur = Bytes::ZERO;
            cur_layer = u.unit.layer;
        }
        if !strategy.is_saved(i) {
            cur = cur.saturating_add(u.mem_saved);
        }
    }
    max.max(cur)
}

/// *Full recomputation*: save only the pinned layer outputs, recompute
/// everything else (the `-Full` baselines of the evaluation).
#[must_use]
pub fn full(units: &[UnitProfile]) -> RecomputeStrategy {
    RecomputeStrategy {
        saved: units.iter().map(UnitProfile::is_pinned).collect(),
    }
}

/// *No recomputation*: save every unit (the `-Non` baselines).
#[must_use]
pub fn none(units: &[UnitProfile]) -> RecomputeStrategy {
    RecomputeStrategy {
        saved: vec![true; units.len()],
    }
}

/// Megatron-style *selective recomputation*: recompute only the attention
/// core (the memory-heavy softmax/dropout/bmm group that FlashAttention
/// fuses), save everything else.
#[must_use]
pub fn selective(units: &[UnitProfile]) -> RecomputeStrategy {
    RecomputeStrategy {
        saved: units
            .iter()
            .map(|u| u.unit.kind != UnitKind::CoreAttention)
            .collect(),
    }
}

/// *Uniform* recomputation: save every `k`-th free unit (plus all pinned
/// units) — the inflexible middle ground the paper contrasts against.
///
/// # Panics
///
/// Panics if `k` is zero.
#[must_use]
pub fn uniform(units: &[UnitProfile], k: usize) -> RecomputeStrategy {
    assert!(k > 0, "uniform stride must be positive");
    let mut free_seen = 0usize;
    RecomputeStrategy {
        saved: units
            .iter()
            .map(|u| {
                if u.is_pinned() {
                    true
                } else {
                    free_seen += 1;
                    free_seen.is_multiple_of(k)
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, LayerRange, ParallelConfig, TrainConfig};
    use adapipe_profiler::Profiler;

    fn units() -> Vec<UnitProfile> {
        let model = presets::gpt2_small();
        let parallel = ParallelConfig::new(2, 4, 1).unwrap();
        let train = TrainConfig::new(1, 1024, 16).unwrap();
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        table.units_in(LayerRange::new(1, 4))
    }

    #[test]
    fn full_saves_exactly_pinned() {
        let us = units();
        let s = full(&us);
        assert_eq!(s.saved_count(), us.iter().filter(|u| u.is_pinned()).count());
    }

    #[test]
    fn none_saves_everything_and_minimizes_backward() {
        let us = units();
        let all = cost_of(&us, &none(&us));
        let fullc = cost_of(&us, &full(&us));
        assert!(all.time_b < fullc.time_b);
        assert!(all.saved_bytes_per_mb > fullc.saved_bytes_per_mb);
        // Forward time is invariant under the strategy.
        assert!((all.time_f - fullc.time_f).abs() < MicroSecs::new(1e-9));
    }

    #[test]
    fn full_backward_pays_whole_forward_of_free_units() {
        let us = units();
        let s = full(&us);
        let c = cost_of(&us, &s);
        let base_b: MicroSecs = us.iter().map(|u| u.time_b).sum();
        let free_f: MicroSecs = us.iter().filter(|u| !u.is_pinned()).map(|u| u.time_f).sum();
        assert!((c.time_b - base_b - free_f).abs() < MicroSecs::new(1e-6));
    }

    #[test]
    fn selective_recomputes_only_core_attention() {
        let us = units();
        let s = selective(&us);
        for (i, u) in us.iter().enumerate() {
            assert_eq!(s.is_saved(i), u.unit.kind != UnitKind::CoreAttention);
        }
    }

    #[test]
    fn uniform_respects_pins() {
        let us = units();
        let s = uniform(&us, 3);
        for (i, u) in us.iter().enumerate() {
            if u.is_pinned() {
                assert!(s.is_saved(i));
            }
        }
        assert!(s.saved_count() < us.len());
    }

    #[test]
    #[should_panic(expected = "pinned unit")]
    fn from_flags_rejects_recomputed_pins() {
        let us = units();
        let flags = vec![false; us.len()];
        let _ = RecomputeStrategy::from_flags(&us, flags);
    }

    #[test]
    fn buffer_is_zero_without_recomputation() {
        let us = units();
        assert_eq!(buffer_bytes_of(&us, &none(&us)), Bytes::ZERO);
        // Full recomputation buffers the heaviest single layer.
        let full_buf = buffer_bytes_of(&us, &full(&us));
        assert!(full_buf > Bytes::ZERO);
        let per_layer_max = us
            .iter()
            .filter(|u| !u.is_pinned())
            .map(|u| u.mem_saved)
            .max()
            .unwrap();
        assert!(full_buf >= per_layer_max);
    }

    #[test]
    fn strategy_ordering_invariant() {
        // Saving strictly more units never increases backward time.
        let us = units();
        let less = full(&us);
        let more = none(&us);
        assert!(cost_of(&us, &more).time_b <= cost_of(&us, &less).time_b);
    }
}
