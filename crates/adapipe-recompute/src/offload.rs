//! Offload-aware hybrid strategies — an extension in the direction of
//! the §8 related work (SuperNeurons, MPress combine recomputation with
//! host offloading; the paper contrasts against them but searches only
//! save-vs-recompute).
//!
//! Each unit now has three choices:
//!
//! * **Save** — costs `Mem(U)` device bytes, no time.
//! * **Recompute** — free of memory, re-pays `Time_f(U)` in backward.
//! * **Offload** — free of device memory, pays the PCIe round trip
//!   `2·Mem(U)/bw` discounted by the fraction that overlaps compute.
//!
//! Observation: saving a unit avoids `min(Time_f(U), transfer(U))` of
//! penalty — whichever evacuation is cheaper — so the §4.3 knapsack
//! applies unchanged with that as the item value. Unsaved units then
//! independently pick the cheaper evacuation. The aggregate PCIe budget
//! is checked post-hoc (a stage cannot ship more bytes than the bus
//! moves during its compute window); violations fall back to
//! recomputation, preserving feasibility.

use crate::error::StrategyError;
use crate::knapsack::KnapsackConfig;
use crate::strategy::RecomputeStrategy;
use adapipe_obs::Recorder;
use adapipe_profiler::UnitProfile;
use adapipe_units::{Bytes, BytesPerSec, MicroSecs};
use serde::{Deserialize, Serialize};

/// Host-offload link description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OffloadLink {
    /// Device↔host bandwidth (PCIe 4.0 ×16 ≈ 25 GB/s effective).
    pub bandwidth: BytesPerSec,
    /// Fraction of each transfer hidden under compute (0 = fully
    /// exposed, 1 = free).
    pub overlap: f64,
}

impl OffloadLink {
    /// PCIe 4.0 ×16 with 50 % overlap — a typical tuned setup.
    #[must_use]
    pub fn pcie4() -> Self {
        OffloadLink {
            bandwidth: BytesPerSec::new(25e9),
            overlap: 0.5,
        }
    }

    /// Exposed round-trip time for `bytes` (store in forward + fetch in
    /// backward), after overlap.
    #[must_use]
    pub fn round_trip(&self, bytes: Bytes) -> MicroSecs {
        (bytes / self.bandwidth) * (2.0 * (1.0 - self.overlap))
    }
}

/// What happens to one unit's intermediates under a hybrid strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnitDecision {
    /// Kept on the device.
    Saved,
    /// Dropped and recomputed in backward.
    Recomputed,
    /// Evacuated to host memory and fetched back for backward.
    Offloaded,
}

/// A per-stage hybrid strategy plus its cost accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridStage {
    /// Per-unit decisions, in execution order.
    pub decisions: Vec<UnitDecision>,
    /// Forward time (unchanged by the strategy).
    pub time_f: MicroSecs,
    /// Backward time including recomputation and exposed transfers.
    pub time_b: MicroSecs,
    /// Device bytes of saved intermediates per micro-batch.
    pub saved_bytes_per_mb: Bytes,
    /// Host bytes shipped per micro-batch.
    pub offloaded_bytes_per_mb: Bytes,
}

impl HybridStage {
    /// Number of units per decision kind: `(saved, recomputed, offloaded)`.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.decisions {
            match d {
                UnitDecision::Saved => c.0 += 1,
                UnitDecision::Recomputed => c.1 += 1,
                UnitDecision::Offloaded => c.2 += 1,
            }
        }
        c
    }
}

/// Optimizes a hybrid save/recompute/offload strategy for one stage
/// under a per-micro-batch device budget.
///
/// # Errors
///
/// Returns [`StrategyError::OutOfMemory`] when pinned units alone exceed
/// the budget (offloading never applies to pinned units — they are the
/// recompute anchors).
pub fn optimize_hybrid(
    units: &[UnitProfile],
    budget_per_mb: Bytes,
    link: OffloadLink,
) -> Result<HybridStage, StrategyError> {
    // Evacuation penalty per unit: the cheaper of recompute / offload.
    let penalty: Vec<MicroSecs> = units
        .iter()
        .map(|u| u.time_f.min(link.round_trip(u.mem_saved)))
        .collect();

    // Reuse the §4.3 knapsack with the hybrid penalty as the value:
    // build a shadow unit table whose time_f is the avoidable penalty.
    let shadow: Vec<UnitProfile> = units
        .iter()
        .zip(&penalty)
        .map(|(u, &p)| UnitProfile { time_f: p, ..*u })
        .collect();
    let opt = crate::knapsack::optimize(
        &shadow,
        budget_per_mb,
        KnapsackConfig::default(),
        &Recorder::disabled(),
    )?;

    // Materialize decisions; compute the exact hybrid cost from the
    // real unit table.
    let mut decisions = Vec::with_capacity(units.len());
    let mut time_f = MicroSecs::ZERO;
    let mut time_b = MicroSecs::ZERO;
    let mut saved_bytes = Bytes::ZERO;
    let mut offloaded_bytes = Bytes::ZERO;
    for (i, u) in units.iter().enumerate() {
        time_f += u.time_f;
        time_b += u.time_b;
        if opt.strategy.is_saved(i) {
            decisions.push(UnitDecision::Saved);
            saved_bytes = saved_bytes.saturating_add(u.mem_saved);
        } else if link.round_trip(u.mem_saved) < u.time_f {
            decisions.push(UnitDecision::Offloaded);
            offloaded_bytes = offloaded_bytes.saturating_add(u.mem_saved);
            time_b += link.round_trip(u.mem_saved);
        } else {
            decisions.push(UnitDecision::Recomputed);
            time_b += u.time_f;
        }
    }

    // PCIe budget check: the bus can ship at most bandwidth × compute
    // time per micro-batch; beyond that, transfers cannot hide even
    // partially — demote the *least* profitable offloads to recompute.
    let window: Bytes = (time_f + time_b) * link.bandwidth;
    if !(offloaded_bytes * 2).fits(window) {
        let mut offloads: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| **d == UnitDecision::Offloaded)
            .map(|(i, _)| i)
            .collect();
        // Least profit first: smallest (time_f − round_trip).
        offloads.sort_by(|&a, &b| {
            let pa = units[a].time_f - link.round_trip(units[a].mem_saved);
            let pb = units[b].time_f - link.round_trip(units[b].mem_saved);
            pa.as_micros().total_cmp(&pb.as_micros())
        });
        for i in offloads {
            if (offloaded_bytes * 2).fits(window) {
                break;
            }
            decisions[i] = UnitDecision::Recomputed;
            offloaded_bytes = offloaded_bytes.saturating_sub(units[i].mem_saved);
            time_b -= link.round_trip(units[i].mem_saved);
            time_b += units[i].time_f;
        }
    }

    Ok(HybridStage {
        decisions,
        time_f,
        time_b,
        saved_bytes_per_mb: saved_bytes,
        offloaded_bytes_per_mb: offloaded_bytes,
    })
}

/// Projects a hybrid stage onto a plain save/recompute strategy
/// (offloaded units count as recomputed for engines without an offload
/// path).
#[must_use]
pub fn as_recompute_strategy(units: &[UnitProfile], hybrid: &HybridStage) -> RecomputeStrategy {
    let flags = hybrid
        .decisions
        .iter()
        .map(|d| *d == UnitDecision::Saved)
        .collect();
    RecomputeStrategy::from_flags(units, flags)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize;
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, LayerRange, ParallelConfig, TrainConfig};
    use adapipe_profiler::Profiler;

    fn units() -> Vec<UnitProfile> {
        let model = presets::gpt3_175b();
        let parallel = ParallelConfig::new(8, 8, 1).unwrap();
        let train = TrainConfig::new(1, 4096, 128).unwrap();
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        table.units_in(LayerRange::new(1, 24))
    }

    #[test]
    fn offloading_never_hurts_backward_time() {
        let us = units();
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let cfg = KnapsackConfig::default();
        for frac in [20u64, 40, 60, 80] {
            let budget = all * frac / 100;
            let plain = optimize(&us, budget, cfg, &Recorder::disabled()).unwrap();
            let hybrid = optimize_hybrid(&us, budget, OffloadLink::pcie4()).unwrap();
            assert!(
                hybrid.time_b <= plain.cost.time_b + MicroSecs::new(1e-3),
                "frac {frac}: hybrid {} vs plain {}",
                hybrid.time_b,
                plain.cost.time_b
            );
            assert!(hybrid.saved_bytes_per_mb <= budget);
        }
    }

    #[test]
    fn zero_overlap_slow_bus_degenerates_to_recompute() {
        let us = units();
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let cfg = KnapsackConfig::default();
        // A bus so slow that every round trip costs more than recompute.
        let link = OffloadLink {
            bandwidth: BytesPerSec::new(1e6),
            overlap: 0.0,
        };
        let hybrid = optimize_hybrid(&us, all / 2, link).unwrap();
        let (_, _, offloaded) = hybrid.counts();
        assert_eq!(offloaded, 0);
        let plain = optimize(&us, all / 2, cfg, &Recorder::disabled()).unwrap();
        assert!((hybrid.time_b - plain.cost.time_b).abs() < MicroSecs::new(1e-3));
    }

    #[test]
    fn infinitely_fast_bus_offloads_everything_unsaved() {
        let us = units();
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let link = OffloadLink {
            bandwidth: BytesPerSec::new(1e18),
            overlap: 0.0,
        };
        let hybrid = optimize_hybrid(&us, all / 4, link).unwrap();
        let (_, recomputed, offloaded) = hybrid.counts();
        assert_eq!(recomputed, 0, "free transfers beat all recomputes");
        assert!(offloaded > 0);
        // Backward collapses to the no-recompute floor.
        let base: MicroSecs = us.iter().map(|u| u.time_b).sum();
        assert!((hybrid.time_b - base).abs() < MicroSecs::new(1.0));
    }

    #[test]
    fn pcie_budget_demotes_excess_offloads() {
        let us = units();
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        // Fast enough that offload beats recompute per unit, but so
        // little window that the aggregate cannot fit.
        let link = OffloadLink {
            bandwidth: BytesPerSec::new(5e9),
            overlap: 0.999,
        };
        let hybrid = optimize_hybrid(&us, all / 4, link).unwrap();
        let window = (hybrid.time_f + hybrid.time_b) * link.bandwidth;
        assert!(
            (hybrid.offloaded_bytes_per_mb * 2).fits(window.saturating_add(Bytes::new(1))),
            "offloaded {} vs window {window}",
            hybrid.offloaded_bytes_per_mb
        );
    }

    #[test]
    fn projection_keeps_saved_set() {
        let us = units();
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let hybrid = optimize_hybrid(&us, all / 2, OffloadLink::pcie4()).unwrap();
        let plain = as_recompute_strategy(&us, &hybrid);
        for (i, d) in hybrid.decisions.iter().enumerate() {
            assert_eq!(plain.is_saved(i), *d == UnitDecision::Saved);
        }
    }

    #[test]
    fn oom_still_surfaces() {
        let us = units();
        assert!(matches!(
            optimize_hybrid(&us, Bytes::ZERO, OffloadLink::pcie4()),
            Err(StrategyError::OutOfMemory { .. })
        ));
    }
}
