//! Adaptive partitioning (§5 of the paper).
//!
//! Builds on the recomputation knapsack of [`adapipe_recompute`]: given
//! per-stage forward/backward times `f[s,i,j]`, `b[s,i,j]` for assigning
//! layers `i..=j` to stage `s` (each already optimized for that stage's
//! memory budget), find the stage boundaries minimizing one 1F1B
//! iteration:
//!
//! ```text
//! T = W₀ + E₀ + (n − p) · M₀
//! ```
//!
//! with the warmup/ending/steady recurrences of Equation (3) and
//! Algorithm 1. Two §5.3 optimizations are implemented:
//!
//! * **Isomorphism caching** — windows of one stage with the same layer
//!   contents (layer kinds and bit-exact unit profiles) feed the knapsack
//!   the same items and budget, so its result is computed once per such
//!   class. The paper's rule, same length and initial layer kind, is the
//!   special case of a profile table uniform per layer kind, which every
//!   analytic table is; on a measured table each window keeps its own
//!   leaf cost.
//! * **GCD rescaling** — inherited from the knapsack itself.
//!
//! On top of those, two engine-level accelerations (docs/parallel.md)
//! keep plans byte-identical while cutting cold-plan latency:
//!
//! * **Parallel leaf prefill** — [`KnapsackCostProvider::sweep`] streams
//!   every window the DP can query ([`algorithm1::reachable`]) through
//!   [`KnapsackCostProvider::prefill`], which fans the isomorphism-class
//!   representatives out over an [`adapipe_exec::ExecPool`]; the DP then
//!   runs serially against a fully warmed cache.
//! * **Shared class tables** — a [`subcache::ClassTables`] keeps the
//!   filled class table of each planning instance, keyed by one digest
//!   of everything a leaf reads, so the daemon's plans of one instance
//!   that differ only in global batch run no knapsack leaf, and no
//!   prefill scan once [`KnapsackCostProvider::sweep`] has swept the
//!   table.
//!
//! # Example
//!
//! ```
//! use adapipe_hw::presets as hw;
//! use adapipe_memory::{MemoryModel, OptimizerSpec};
//! use adapipe_model::{presets, LayerSeq, ParallelConfig, TrainConfig};
//! use adapipe_obs::Recorder;
//! use adapipe_partition::{algorithm1, KnapsackCostProvider};
//! use adapipe_profiler::Profiler;
//! use adapipe_units::Bytes;
//!
//! let model = presets::gpt2_small();
//! let parallel = ParallelConfig::new(2, 4, 1)?;
//! let train = TrainConfig::new(1, 1024, 32)?;
//! let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
//! let seq = LayerSeq::for_model(&model);
//! let mem = MemoryModel::new(model.clone(), parallel, OptimizerSpec::adam_fp32());
//!
//! let provider = KnapsackCostProvider::new(&seq, &table, &mem, Bytes::from_gib(80));
//! // A live `Recorder::new()` would collect DP effort metrics.
//! let plan = algorithm1::solve_traced(&provider, seq.len(), 4, 32, &Recorder::disabled())
//!     .expect("feasible");
//! assert_eq!(plan.ranges.len(), 4);
//! # Ok::<(), adapipe_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
// A bare `as` cast silently truncates, wraps or rounds, and every cost
// here feeds Eq. (1)-(3): convert through `adapipe_units::convert`
// (each helper states its rounding) or `try_from`.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod algorithm1;
mod cost;
pub mod exhaustive;
mod provider;
pub mod subcache;

pub use adapipe_exec::CacheStats;
pub use cost::{f1b_iteration_time, F1bBreakdown, StageTimes};
pub use provider::{KnapsackCostProvider, OracleCostProvider, StageCostProvider};
