//! The chaos harness: plan → inject → detect → replan → verify on one
//! deterministic code path.
//!
//! A chaos run takes a healthy AdaPipe plan, executes it on the
//! simulator for a fixed horizon of training steps with a
//! [`FaultPlan`](adapipe_faults::FaultPlan) injected (stragglers slow
//! their device, link degradation stretches P2P, one-shot stalls
//! lengthen a single forward, memory pressure shrinks watchdog
//! budgets), lets the [`Watchdog`] diagnose the damage, runs the
//! [recovery ladder](crate::replan) and statically verifies whatever
//! plan comes out. The entire run — including the rendered report — is
//! a pure function of `(model, cluster, workload, fault plan)`: no
//! wall-clock time is read, so equal inputs give byte-identical
//! reports.

// lint: allow-file(swallowed-result): fmt::Write into a String cannot fail
use crate::error::PlanError;
use crate::method::Method;
use crate::plan::Plan;
use crate::planner::Planner;
use crate::replan::{ReplanConfig, ReplanOutcome};
use adapipe_check::CheckReport;
use adapipe_faults::{
    apply_stalls, degraded_stage_execs, DegradationEvent, DegradedCluster, Diagnosis, FaultClock,
    RetryPolicy, Watchdog,
};
use adapipe_model::{ParallelConfig, TrainConfig};
use adapipe_obs::keys;
use adapipe_sim::{schedule, simulate, StageExec};
use adapipe_units::Bytes;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// First line of the chaos report format.
pub const REPORT_HEADER: &str = "adapipe-chaos v1";

/// Tuning for a chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Training steps to execute under injection before diagnosing.
    pub steps: usize,
    /// Detection thresholds.
    pub watchdog: Watchdog,
    /// Retry ladder for transient stalls.
    pub retry: RetryPolicy,
    /// Warm-start the replan with the §5.3 isomorphism cache.
    pub iso_cache: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            steps: 4,
            watchdog: Watchdog::default(),
            retry: RetryPolicy::default(),
            iso_cache: true,
        }
    }
}

/// Everything a chaos run produced, ready for reporting and exit-code
/// mapping.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The healthy plan the run started from.
    pub stale: Plan,
    /// Watchdog events per executed step.
    pub events: Vec<Vec<DegradationEvent>>,
    /// The classified diagnosis over all steps.
    pub diagnosis: Diagnosis,
    /// What the recovery ladder did.
    pub replan: ReplanOutcome,
    /// Static verification of the replanned plan (`None` when the
    /// ladder stopped at retries).
    pub verify: Option<CheckReport>,
    /// The machine-readable chaos report (deterministic per input).
    pub report: String,
}

impl ChaosOutcome {
    /// Whether the run ended in an accepted state: either nothing
    /// needed replanning, or the replanned plan verified cleanly and
    /// beats the stale plan in the degraded world.
    #[must_use]
    pub fn accepted(&self) -> bool {
        match (&self.replan.plan, &self.verify) {
            (None, _) => true,
            (Some(_), Some(report)) => !report.has_errors() && self.replan.improved(),
            (Some(_), None) => false,
        }
    }
}

impl Planner {
    /// Runs the chaos harness: searches a healthy plan, executes it for
    /// `cfg.steps` simulated training steps under `degraded`'s fault
    /// plan, diagnoses the watchdog events and drives the recovery
    /// ladder.
    ///
    /// # Errors
    ///
    /// [`Planner::plan`] errors for the initial healthy search;
    /// [`PlanError::Unsupported`] if injection corrupts the task graph
    /// into a deadlock (cannot happen for the 1F1B generator).
    pub fn chaos_run(
        &self,
        parallel: ParallelConfig,
        train: TrainConfig,
        degraded: &DegradedCluster,
        cfg: &ChaosConfig,
    ) -> Result<ChaosOutcome, PlanError> {
        let _span = self.recorder().span_cat(keys::SPAN_CHAOS, "chaos");
        let stale = self.plan(Method::AdaPipe, parallel, train)?;
        let ctx = self.context(parallel, train);

        let planned: Vec<StageExec> = stale
            .stages
            .iter()
            .map(|s| StageExec {
                time_f: s.cost.time_f,
                time_b: s.cost.time_b,
                saved_bytes: s.cost.saved_bytes_per_mb,
                buffer_bytes: s.memory.buffer_bytes,
            })
            .collect();
        // Dynamic-memory budgets per device: the Eq. (1)-(2) search
        // budget, less any injected pressure, less the stage's static
        // residents.
        let budgets: Vec<Bytes> = stale
            .stages
            .iter()
            .enumerate()
            .map(|(s, st)| {
                degraded
                    .shrunk_capacity(self.search_capacity(), s)
                    .saturating_sub(st.memory.static_bytes)
            })
            .collect();
        let p2p = degraded.p2p_time(ctx.table.boundary_bytes());

        let mut clock = FaultClock::new(degraded.plan());
        let mut events = Vec::with_capacity(cfg.steps);
        for _ in 0..cfg.steps {
            let _span = self.recorder().span_cat(keys::SPAN_CHAOS_STEP, "chaos");
            let execs = degraded_stage_execs(&planned, &clock);
            let mut graph = schedule::one_f_one_b(&execs, ctx.n, p2p);
            apply_stalls(&mut graph, &mut clock, cfg.steps);
            let report = simulate(&graph, self.recorder()).map_err(|e| PlanError::Unsupported {
                reason: format!("chaos injection broke the schedule: {e}"),
            })?;
            events.push(cfg.watchdog.scan(&report, &planned, &budgets));
            clock.advance();
        }

        let flat: Vec<DegradationEvent> = events.iter().flatten().cloned().collect();
        let diagnosis = cfg.watchdog.diagnose(&flat);
        let replan_cfg = ReplanConfig {
            retry: cfg.retry,
            iso_cache: cfg.iso_cache,
            detected_at_step: cfg.steps.saturating_sub(1),
        };
        let replan = self.replan(&stale, degraded, &diagnosis, &replan_cfg)?;
        let verify = replan.plan.as_ref().map(|plan| self.verify(plan));

        let report = render_report(degraded, cfg, &events, &diagnosis, &replan, verify.as_ref());
        Ok(ChaosOutcome {
            stale,
            events,
            diagnosis,
            replan,
            verify,
            report,
        })
    }
}

/// Renders the machine-readable chaos report. Every value is a pure
/// function of the run inputs — floats are formatted with `{:?}` like
/// the plan artifact, and wall-clock time never appears — so equal
/// `(plan, faults, seed)` give byte-identical reports.
fn render_report(
    degraded: &DegradedCluster,
    cfg: &ChaosConfig,
    events: &[Vec<DegradationEvent>],
    diagnosis: &Diagnosis,
    replan: &ReplanOutcome,
    verify: Option<&CheckReport>,
) -> String {
    let mut out = String::new();
    let faults = degraded.plan();
    let _ = writeln!(out, "{REPORT_HEADER}");
    out.push_str("units.time = us\nunits.bytes = B\n");
    let _ = writeln!(out, "seed = {}", faults.seed());
    let _ = writeln!(out, "cluster = {}", degraded.base().name());
    let _ = writeln!(out, "steps = {}", cfg.steps);
    let _ = writeln!(out, "watchdog.alpha = {:?}", cfg.watchdog.alpha);
    let _ = writeln!(
        out,
        "watchdog.persistent-threshold = {}",
        cfg.watchdog.persistent_threshold
    );
    // The injected faults, in the fault-plan DSL (header and seed line
    // stripped — both are already above).
    for line in faults
        .to_text()
        .lines()
        .skip(2)
        .filter(|l| !l.trim().is_empty())
    {
        let _ = writeln!(out, "fault {line}");
    }

    // Watchdog events, aggregated per (step, kind, stage) to keep the
    // report bounded: a persistent straggler misses every op's deadline.
    for (step, step_events) in events.iter().enumerate() {
        // stage -> (count, worst observed/deadline ratio)
        let mut deadlines: BTreeMap<usize, (usize, f64)> = BTreeMap::new();
        let mut budgets: BTreeMap<usize, (Bytes, Bytes)> = BTreeMap::new();
        for e in step_events {
            match e {
                DegradationEvent::DeadlineMissed {
                    stage,
                    observed,
                    deadline,
                    ..
                } => {
                    let ratio = observed.as_micros() / deadline.as_micros();
                    let slot = deadlines.entry(*stage).or_insert((0, 0.0));
                    slot.0 += 1;
                    slot.1 = slot.1.max(ratio);
                }
                DegradationEvent::BudgetExceeded {
                    stage,
                    high_water,
                    budget,
                } => {
                    budgets.insert(*stage, (*high_water, *budget));
                }
                _ => {}
            }
        }
        for (stage, (count, worst)) in &deadlines {
            let _ = writeln!(
                out,
                "step {step} deadline stage={stage} count={count} worst-over={worst:?}"
            );
        }
        for (stage, (high_water, budget)) in &budgets {
            let _ = writeln!(
                out,
                "step {step} budget stage={stage} high-water-b={} budget-b={}",
                high_water.get(),
                budget.get()
            );
        }
    }

    let _ = writeln!(
        out,
        "diagnosis.transient = {}",
        diagnosis.transient_stalls.len()
    );
    let _ = writeln!(
        out,
        "diagnosis.persistent = {}",
        diagnosis.persistent_stragglers.len()
    );
    let _ = writeln!(
        out,
        "diagnosis.budget = {}",
        diagnosis.budget_exceeded.len()
    );

    for r in &replan.retries {
        let _ = writeln!(
            out,
            "retry stage={} micro-batch={} attempts={} backoff-us={:?} recovered={}",
            r.stage,
            r.micro_batch,
            r.attempts,
            r.backoff.as_micros(),
            r.recovered
        );
    }
    let action = if replan.plan.is_some() {
        "replan"
    } else if replan.retries.is_empty() {
        "none"
    } else {
        "retry"
    };
    let _ = writeln!(out, "action = {action}");
    if replan.plan.is_some() {
        if replan.fallback_stages.is_empty() {
            out.push_str("fallback-stages = none\n");
        } else {
            let stages: Vec<String> = replan
                .fallback_stages
                .iter()
                .map(ToString::to_string)
                .collect();
            let _ = writeln!(out, "fallback-stages = {}", stages.join(","));
        }
        let _ = writeln!(out, "iso-cache.hits = {}", replan.cache_hits);
        let _ = writeln!(out, "iso-cache.misses = {}", replan.cache_misses);
        let _ = writeln!(out, "stale-us = {:?}", replan.stale_time.as_micros());
        if let Some(t) = replan.replanned_time {
            let _ = writeln!(out, "replanned-us = {:?}", t.as_micros());
        }
        let _ = writeln!(out, "improved = {}", replan.improved());
    }
    match verify {
        Some(report) => {
            let _ = writeln!(out, "verify.errors = {}", report.error_count());
            let _ = writeln!(out, "verify.warnings = {}", report.warning_count());
        }
        None => out.push_str("verify = skipped\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_faults::{Fault, FaultPlan};
    use adapipe_hw::presets as hw;
    use adapipe_model::presets;
    use adapipe_units::MicroSecs;

    fn setup() -> (Planner, ParallelConfig, TrainConfig) {
        (
            Planner::new(presets::gpt2_small(), hw::cluster_a()),
            ParallelConfig::new(2, 4, 1).expect("valid parallelism"),
            TrainConfig::new(1, 1024, 32).expect("valid workload"),
        )
    }

    #[test]
    fn healthy_world_raises_nothing_and_keeps_the_plan() {
        let (planner, parallel, train) = setup();
        let degraded = DegradedCluster::new(hw::cluster_a(), FaultPlan::new(1));
        let out = planner
            .chaos_run(parallel, train, &degraded, &ChaosConfig::default())
            .expect("chaos runs");
        assert!(out.diagnosis.is_healthy(), "{:?}", out.diagnosis);
        assert!(out.replan.plan.is_none());
        assert!(out.accepted());
        assert!(out.report.contains("action = none"), "{}", out.report);
    }

    #[test]
    fn straggler_is_detected_and_replanned() {
        let (planner, parallel, train) = setup();
        let faults = FaultPlan::new(42).with(Fault::Straggler {
            device: 2,
            factor: 0.6,
            from_step: 0,
        });
        let degraded = DegradedCluster::new(hw::cluster_a(), faults);
        let out = planner
            .chaos_run(parallel, train, &degraded, &ChaosConfig::default())
            .expect("chaos runs");
        assert_eq!(out.diagnosis.persistent_stragglers, vec![2]);
        assert!(out.replan.plan.is_some());
        assert!(out.replan.improved());
        assert!(out.accepted(), "{}", out.report);
        assert!(!out.verify.expect("verified").has_errors());
    }

    #[test]
    fn one_shot_stall_recovers_by_retry_alone() {
        let (planner, parallel, train) = setup();
        // A stall long enough to blow any deadline, on one micro-batch.
        let faults = FaultPlan::new(9).with(Fault::TransientStall {
            device: 1,
            micro_batch: 3,
            delay: MicroSecs::new(1e6),
        });
        let degraded = DegradedCluster::new(hw::cluster_a(), faults);
        let out = planner
            .chaos_run(parallel, train, &degraded, &ChaosConfig::default())
            .expect("chaos runs");
        assert_eq!(out.diagnosis.transient_stalls, vec![(1, 3)]);
        assert!(out.replan.plan.is_none(), "retry must suffice");
        assert_eq!(out.replan.retries.len(), 1);
        assert!(out.replan.retries[0].recovered);
        assert!(out.accepted());
        assert!(out.report.contains("action = retry"), "{}", out.report);
    }

    #[test]
    fn chaos_report_is_deterministic() {
        let (planner, parallel, train) = setup();
        let faults = FaultPlan::new(42).with(Fault::Straggler {
            device: 2,
            factor: 0.6,
            from_step: 0,
        });
        let degraded = DegradedCluster::new(hw::cluster_a(), faults);
        let a = planner
            .chaos_run(parallel, train, &degraded, &ChaosConfig::default())
            .expect("chaos runs");
        let b = planner
            .chaos_run(parallel, train, &degraded, &ChaosConfig::default())
            .expect("chaos runs");
        assert_eq!(a.report, b.report);
        let (pa, pb) = (a.replan.plan.expect("plan"), b.replan.plan.expect("plan"));
        assert_eq!(crate::plan_io::to_text(&pa), crate::plan_io::to_text(&pb));
    }
}
