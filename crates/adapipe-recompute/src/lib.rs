//! Adaptive recomputation (§4 of the paper).
//!
//! Given the computation units of one pipeline stage and that stage's
//! activation-memory budget, find the subset of units to *save* that
//! minimizes backward time — equivalently, maximize the forward time of
//! saved units, since each recomputed unit re-pays its forward cost in the
//! backward pass:
//!
//! ```text
//! Time_b(R) = Σ_U Time_b(U) + Σ_{U ∈ R} Time_f(U)
//! Mem(R)    = Const + (p − s) · Σ_{U ∉ R} Mem(U)
//! ```
//!
//! This is a 0/1 knapsack (Equations (1)–(2)), solved exactly by dynamic
//! programming over a GCD-rescaled memory axis (§5.3: activation sizes are
//! powers-of-two multiples of a common divisor, so dividing weights and
//! budget by their GCD shrinks the DP by orders of magnitude).
//!
//! The crate also provides the paper's baseline strategies — full
//! recomputation, no recomputation, Megatron-style selective
//! recomputation — and the exact cost/footprint accounting shared by all
//! of them.
//!
//! # Example
//!
//! ```
//! use adapipe_hw::presets as hw;
//! use adapipe_model::{presets, LayerRange, ParallelConfig, TrainConfig};
//! use adapipe_obs::Recorder;
//! use adapipe_profiler::Profiler;
//! use adapipe_recompute::{optimize, strategy, KnapsackConfig};
//! use adapipe_units::Bytes;
//!
//! let model = presets::gpt2_small();
//! let parallel = ParallelConfig::new(2, 4, 1)?;
//! let train = TrainConfig::new(1, 1024, 16)?;
//! let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
//! let units = table.units_in(LayerRange::new(1, 6));
//!
//! let full = strategy::full(&units);
//! // Pass a live `Recorder::new()` instead to collect DP effort metrics.
//! let (cfg, off) = (KnapsackConfig::default(), Recorder::disabled());
//! let generous =
//!     optimize(&units, Bytes::new(u64::MAX), cfg, &off).expect("unbounded budget is feasible");
//! // With unlimited memory the optimizer saves everything...
//! assert_eq!(generous.strategy.saved_count(), units.len());
//! // ...and its backward time beats full recomputation.
//! assert!(generous.cost.time_b < strategy::cost_of(&units, &full).time_b);
//! # Ok::<(), adapipe_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
// A bare `as` cast silently truncates, wraps or rounds, and every cost
// here feeds Eq. (1)-(3): convert through `adapipe_units::convert`
// (each helper states its rounding) or `try_from`.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

mod error;
pub mod exhaustive;
mod knapsack;
pub mod offload;
pub mod strategy;

pub use error::StrategyError;
pub use exhaustive::optimize_exhaustive;
pub use knapsack::{optimize, KnapsackConfig, OptimizedStage};
pub use offload::{optimize_hybrid, HybridStage, OffloadLink, UnitDecision};
pub use strategy::{RecomputeStrategy, StageCost};
