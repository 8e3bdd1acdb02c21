//! Whole-plan static verification: assembles the `adapipe-check`
//! invariant catalog into a single pass over a [`Plan`].
//!
//! A plan artifact — whether just searched or loaded from disk via
//! [`plan_io`](crate::plan_io) — claims a lot: that its partition covers
//! the model (§5), that every stage's strategy, cost and memory
//! breakdown are mutually consistent and within budget (Eq. (1)-(2),
//! §4.2-4.3), that its analytic prediction satisfies the Eq. (3)
//! recurrences, and that its schedule's task DAG can execute without
//! deadlock. [`Planner::verify`] checks all of it without simulating;
//! `adapipe verify --plan FILE` exposes the same pass on the CLI, and
//! the planner re-runs it on every plan it emits in debug builds.

use crate::plan::Plan;
use crate::planner::{stage_plan, Planner};
use adapipe_check::{
    check_breakdown, check_capacity, check_memory_accounting, check_partition, check_stage_cost,
    check_strategy, check_task_graph, CheckCode, CheckReport, Diagnostic, Severity,
};
use adapipe_sim::schedule;

/// Tuning for a verification pass.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Relative tolerance for `f64` consistency checks (cost drift,
    /// Eq. (3) breakdown). The default leaves room for nothing beyond
    /// float noise.
    pub tolerance: f64,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            tolerance: adapipe_check::DEFAULT_TOLERANCE,
        }
    }
}

impl Planner {
    /// Statically verifies `plan` against the full invariant catalog
    /// (with the default [`VerifyOptions`]) without executing it.
    ///
    /// Memory overflow on baseline methods is reported at
    /// [`Severity::Warning`] — the paper keeps OOM baselines reportable
    /// (Table 3) — while adaptive plans, which searched under the
    /// constraint, get [`Severity::Error`].
    #[must_use]
    pub fn verify(&self, plan: &Plan) -> CheckReport {
        self.verify_with(plan, VerifyOptions::default())
    }

    /// [`Planner::verify`] with explicit options.
    #[must_use]
    pub fn verify_with(&self, plan: &Plan, opts: VerifyOptions) -> CheckReport {
        let mut report = CheckReport::new();
        let p = plan.parallel.pipeline();
        let vp = p * plan.method.virtual_chunks();
        if plan.stages.len() != vp {
            report.push(Diagnostic::error(
                CheckCode::StageCount,
                None,
                format!(
                    "plan has {} stages but {} needs p × v = {p} × {} = {vp}",
                    plan.stages.len(),
                    plan.method,
                    plan.method.virtual_chunks()
                ),
            ));
            return report;
        }
        let ctx = self.context(plan.parallel, plan.train);
        let n = ctx.n;
        if plan.n_microbatches != n {
            report.push(Diagnostic::error(
                CheckCode::MicrobatchCount,
                None,
                format!(
                    "plan claims {} micro-batches but the workload yields {n}",
                    plan.n_microbatches
                ),
            ));
        }

        let ranges = plan.ranges();
        report.extend(check_partition(&ranges, ctx.seq.len()));
        let ranges_in_bounds = ranges
            .iter()
            .all(|r| r.first <= r.last && r.last < ctx.seq.len());

        if ranges_in_bounds {
            for (s, stage) in plan.stages.iter().enumerate() {
                let units = ctx.table.units_in(stage.range);
                let strat_diags = check_strategy(s, &units, &stage.strategy);
                let arity_ok = !strat_diags
                    .iter()
                    .any(|d| d.code == CheckCode::StrategyArity);
                report.extend(strat_diags);
                if !arity_ok {
                    continue;
                }
                report.extend(check_stage_cost(
                    s,
                    &units,
                    &stage.strategy,
                    &stage.cost,
                    opts.tolerance,
                ));
                let expected = stage_plan(
                    &ctx,
                    plan.method,
                    &ranges,
                    s,
                    stage.strategy.clone(),
                    stage.cost,
                );
                report.extend(check_memory_accounting(s, &expected.memory, &stage.memory));
                let severity = if plan.method.is_adaptive() {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                report.extend(check_capacity(s, &stage.memory, self.capacity(), severity));
            }
        }

        if let Some(bd) = &plan.predicted {
            report.extend(check_breakdown(&plan.stage_times(), n, bd, opts.tolerance));
        }

        match schedule::check_shape(plan.method.schedule_family(), p, n) {
            Ok(()) => report.extend(check_task_graph(&self.build_schedule(plan, &ctx))),
            Err(e) => report.push(Diagnostic::error(
                CheckCode::MicrobatchCount,
                None,
                e.to_string(),
            )),
        }

        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, ParallelConfig, TrainConfig};

    fn small() -> (Planner, ParallelConfig, TrainConfig) {
        (
            Planner::new(presets::gpt2_small(), hw::cluster_a()),
            ParallelConfig::new(2, 4, 1).expect("valid parallelism"),
            TrainConfig::new(1, 1024, 32).expect("valid workload"),
        )
    }

    #[test]
    fn every_method_yields_a_verifiable_plan() -> Result<(), crate::PlanError> {
        let (planner, parallel, train) = small();
        for m in Method::all() {
            let Ok(plan) = planner.plan(m, parallel, train) else {
                continue;
            };
            let report = planner.verify(&plan);
            assert!(!report.has_errors(), "{m}: {report}");
        }
        Ok(())
    }

    #[test]
    fn stage_count_mismatch_short_circuits() -> Result<(), crate::PlanError> {
        let (planner, parallel, train) = small();
        let mut plan = planner.plan(Method::DappleFull, parallel, train)?;
        plan.stages.pop();
        let report = planner.verify(&plan);
        assert!(report.has_code(CheckCode::StageCount), "{report}");
        Ok(())
    }
}
