use crate::method::Method;
use adapipe_memory::StageMemory;
use adapipe_model::{LayerRange, ParallelConfig, TrainConfig};
use adapipe_partition::{F1bBreakdown, StageTimes};
use adapipe_recompute::{RecomputeStrategy, StageCost};
use adapipe_sim::StageExec;
use adapipe_units::MicroSecs;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One pipeline stage of a finished plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePlan {
    /// Layers assigned to the stage.
    pub range: LayerRange,
    /// Per-unit save/recompute decisions.
    pub strategy: RecomputeStrategy,
    /// Optimized forward/backward time and per-micro-batch footprint.
    pub cost: StageCost,
    /// Predicted memory breakdown on the stage's devices (static +
    /// buffer + live intermediates).
    pub memory: StageMemory,
}

impl StagePlan {
    /// Number of layers the stage holds (a Table 4 column).
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.range.len()
    }

    /// Number of saved computation units (the other Table 4 column).
    #[must_use]
    pub fn saved_units(&self) -> usize {
        self.strategy.saved_count()
    }

    /// Micro-step time `F + B` of the stage (Figure 9).
    #[must_use]
    pub fn micro_step(&self) -> MicroSecs {
        self.cost.time_f + self.cost.time_b
    }

    /// What the simulator's schedule generators execute for this stage.
    #[must_use]
    pub(crate) fn exec(&self) -> StageExec {
        StageExec {
            time_f: self.cost.time_f,
            time_b: self.cost.time_b,
            saved_bytes: self.cost.saved_bytes_per_mb,
            buffer_bytes: self.memory.buffer_bytes,
        }
    }
}

/// A complete training plan: partitioning + per-stage recomputation, with
/// predictions from the analytic cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// How the plan was produced.
    pub method: Method,
    /// The 3D-parallel configuration it targets.
    pub parallel: ParallelConfig,
    /// The workload it targets.
    pub train: TrainConfig,
    /// Micro-batches per pipeline replica per iteration.
    pub n_microbatches: usize,
    /// Per-stage assignments, in pipeline order.
    pub stages: Vec<StagePlan>,
    /// Analytic 1F1B iteration breakdown. `None` for schedules the
    /// Equation (3) model does not cover (GPipe, Chimera) — use the
    /// simulator via [`Planner::evaluate`](crate::Planner::evaluate).
    pub predicted: Option<F1bBreakdown>,
}

impl Plan {
    /// Predicted iteration time from the analytic model, if available.
    #[must_use]
    pub fn predicted_time(&self) -> Option<MicroSecs> {
        self.predicted.map(|b| b.total())
    }

    /// Per-stage forward/backward times, the input of the Eq. (3)
    /// model.
    #[must_use]
    pub(crate) fn stage_times(&self) -> Vec<StageTimes> {
        self.stages
            .iter()
            .map(|s| StageTimes::from(&s.cost))
            .collect()
    }

    /// The per-stage layer ranges.
    #[must_use]
    pub fn ranges(&self) -> Vec<LayerRange> {
        self.stages.iter().map(|s| s.range).collect()
    }

    /// Saved-unit counts per stage (Table 4 row).
    #[must_use]
    pub fn saved_units_per_stage(&self) -> Vec<usize> {
        self.stages.iter().map(StagePlan::saved_units).collect()
    }

    /// Layer counts per stage (Table 4 row).
    #[must_use]
    pub fn layers_per_stage(&self) -> Vec<usize> {
        self.stages.iter().map(StagePlan::layer_count).collect()
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} plan for {} {} (n={}):",
            self.method, self.parallel, self.train, self.n_microbatches
        )?;
        for (s, stage) in self.stages.iter().enumerate() {
            writeln!(
                f,
                "  stage {s}: layers {} ({} layers), {} saved units, \
                 F={:.1}ms B={:.1}ms, mem {}",
                stage.range,
                stage.layer_count(),
                stage.saved_units(),
                stage.cost.time_f.as_millis(),
                stage.cost.time_b.as_millis(),
                stage.memory,
            )?;
        }
        if let Some(bd) = self.predicted {
            writeln!(f, "  predicted: {bd}")?;
        }
        Ok(())
    }
}
