//! Discrete-event pipeline-schedule simulator.
//!
//! This crate is the stand-in for the paper's clusters: it *executes*
//! pipeline schedules — GPipe, 1F1B (DAPPLE), Chimera and Chimera with
//! forward doubling — against per-stage forward/backward durations and
//! activation sizes, and reports exactly what the paper measures on real
//! hardware: iteration time, per-device peak memory, bubble time and the
//! full timeline (Figures 1, 2, 5–9).
//!
//! Two execution disciplines are supported:
//!
//! * **Fixed order** — each device runs its operation queue strictly in
//!   order, blocking until the head's dependencies are met. This is how
//!   1F1B and GPipe engines behave, and it lets us check the simulator
//!   against the closed-form cost model of `adapipe-partition` (they must
//!   agree to float precision).
//! * **Greedy priority** — each idle device runs the ready task with the
//!   best priority. Used for the bidirectional Chimera schedules, whose
//!   interleaving emerges from dependencies rather than a fixed script.
//!
//! # Example
//!
//! ```
//! use adapipe_obs::Recorder;
//! use adapipe_sim::{schedule, simulate, StageExec};
//! use adapipe_units::{Bytes, MicroSecs};
//!
//! let stages = vec![
//!     StageExec {
//!         time_f: MicroSecs::new(1.0),
//!         time_b: MicroSecs::new(2.0),
//!         saved_bytes: Bytes::new(100),
//!         buffer_bytes: Bytes::new(10),
//!     };
//!     4
//! ];
//! let graph = schedule::one_f_one_b(&stages, 8, MicroSecs::ZERO);
//! // A live `Recorder::new()` would collect engine effort metrics.
//! let report = simulate(&graph, &Recorder::disabled())?;
//! // Balanced 1F1B: (n + p - 1)(f + b) = 11 * 3.
//! assert!((report.makespan - MicroSecs::new(33.0)).abs() < MicroSecs::new(1e-9));
//! # Ok::<(), adapipe_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]

mod engine;
mod error;
pub mod render;
mod report;
pub mod schedule;
mod task;
pub mod validate;

pub use engine::simulate;
pub use error::SimError;
pub use report::{DeviceReport, MemorySample, SimReport, TimelineEntry};
pub use task::{Discipline, OpKind, StageExec, TaskGraph, TaskMeta};
