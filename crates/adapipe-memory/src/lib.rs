//! Per-stage memory model (§4.2 of the paper).
//!
//! The paper splits a stage's device memory into three parts:
//!
//! 1. **Static memory** — parameters, gradients and (ZeRO-1-sharded)
//!    optimizer states. Independent of recomputation.
//! 2. **Recompute buffer** — space to rematerialize the intermediates of
//!    one decoder layer during backward. Bounded by a single layer because
//!    every layer's output GEMM is pinned saved.
//! 3. **Saved intermediates** — `(p − s) · Σ_{U ∉ R} Mem(U)` under 1F1B,
//!    since stage `s` holds activations of `p − s` in-flight micro-batches.
//!
//! Subtracting (1) and (2) from the device capacity yields the budget the
//! recomputation knapsack may spend on (3).
//!
//! # Example
//!
//! ```
//! use adapipe_hw::presets as hw;
//! use adapipe_memory::{MemoryModel, OptimizerSpec};
//! use adapipe_model::{presets, LayerRange, LayerSeq, ParallelConfig, TrainConfig};
//! use adapipe_profiler::Profiler;
//! use adapipe_units::Bytes;
//!
//! let model = presets::gpt3_175b();
//! let parallel = ParallelConfig::new(8, 8, 1)?;
//! let train = TrainConfig::new(1, 4096, 128)?;
//! let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
//! let seq = LayerSeq::for_model(&model);
//!
//! let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
//! let range = LayerRange::new(0, 24);
//! assert!(mem.static_bytes(&seq, range) > Bytes::ZERO);
//! // Under 1F1B stage 0 holds 8 micro-batches' activations, stage 7 one,
//! // so the same layers get a smaller per-micro-batch budget first.
//! let budget = |stage| mem.activation_budget(&table, &seq, range, stage, Bytes::from_gib(70));
//! assert!(budget(0) < budget(7) && budget(0) > Some(Bytes::ZERO));
//! # Ok::<(), adapipe_model::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
// A bare `as` cast silently truncates, wraps or rounds, and every cost
// here feeds Eq. (1)-(3): convert through `adapipe_units::convert`
// (each helper states its rounding) or `try_from`.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

mod model;
mod optimizer;

pub use model::{f1b_live_microbatches, MemoryModel, StageMemory};
pub use optimizer::OptimizerSpec;
