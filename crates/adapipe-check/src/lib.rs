//! # adapipe-check: static verification of AdaPipe plans and schedules
//!
//! AdaPipe's search engine promises *feasible* strategies: every stage
//! fits its memory budget under the chosen save/recompute set
//! (Eq. (1)-(2), §4.3), the partition is a contiguous cover of all `L`
//! layers (§5), the schedule's task graph runs to completion on the
//! devices' queues, and the analytic iteration time
//! `T = W₀ + E₀ + (n − p)·M₀` (Eq. (3), §5.1) matches its recurrences.
//! Until now nothing checked a produced plan except running the
//! simulator end to end; this crate checks each invariant *statically*,
//! so a plan artifact can be audited without executing it.
//!
//! The crate is deliberately low-level: it checks slices of
//! [`LayerRange`](adapipe_model::LayerRange)s, per-stage costs against
//! unit profiles, memory breakdowns against expected breakdowns, stored
//! Eq. (3) results against the recurrences, and
//! [`TaskGraph`](adapipe_sim::TaskGraph)s, replayed in the engine's
//! queue order, for cycles and fixed-order deadlocks. The `adapipe` crate's `verify` module assembles these into
//! a whole-plan verifier (`adapipe verify` on the CLI); the planner runs
//! the same checks behind `debug_assertions` at its materialize and
//! evaluate phase boundaries.
//!
//! Findings are [`Diagnostic`]s collected in a [`CheckReport`];
//! memory overflow can be reported at [`Severity::Warning`] because the
//! paper's evaluation keeps OOM baselines *reportable* (Table 3 shows
//! them as OOM bars) while adaptive plans must treat overflow as an
//! error — they searched under that very constraint.

#![forbid(unsafe_code)]
// A bare `as` cast silently truncates, wraps or rounds, and every cost
// here feeds Eq. (1)-(3): convert through `adapipe_units::convert`
// (each helper states its rounding) or `try_from`.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod certificate;
pub mod diag;
pub mod graph;
pub mod invariants;

pub use certificate::{
    check_certificate, Certificate, CertificateParseError, CERTIFICATE_HEADER, DEFAULT_EPSILON,
};
pub use diag::{CheckCode, CheckReport, Diagnostic, Severity};
pub use graph::check_task_graph;
pub use invariants::{
    approx_eq, check_breakdown, check_capacity, check_memory_accounting, check_partition,
    check_stage_cost, check_strategy, DEFAULT_TOLERANCE,
};
