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

use crate::method::Method;
use crate::plan::Plan;
use crate::planner::{expected_static_bytes, Context, Planner};
use adapipe_check::{
    check_breakdown, check_capacity, check_memory_accounting, check_partition, check_stage_cost,
    check_strategy, check_task_graph, CheckCode, CheckReport, Diagnostic, Severity,
};
use adapipe_exec::{ExecError, ExecPool};
use adapipe_memory::StageMemory;
use adapipe_obs::keys;
use adapipe_partition::{KnapsackCostProvider, StageCostProvider, StageTimes};
use adapipe_recompute::strategy;

/// Tuning for a verification pass.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Relative tolerance for `f64` consistency checks (cost drift,
    /// Eq. (3) breakdown). The default leaves room for nothing beyond
    /// float noise.
    pub tolerance: f64,
    /// Re-solve the recomputation knapsack per stage with the §5.3
    /// isomorphism cache enabled *and* disabled and require identical
    /// costs (adaptive methods only). Thorough but re-runs the search's
    /// leaf DP (over the planner's exec pool when one is attached);
    /// enabled for `adapipe verify`, skipped by the planner's debug
    /// hooks.
    pub iso_cache_spot_check: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            tolerance: adapipe_check::DEFAULT_TOLERANCE,
            iso_cache_spot_check: true,
        }
    }
}

impl VerifyOptions {
    /// The cheap subset: everything except the iso-cache spot-check.
    /// What the planner's `debug_assertions` hooks run on every plan.
    #[must_use]
    pub fn quick() -> Self {
        VerifyOptions {
            iso_cache_spot_check: false,
            ..VerifyOptions::default()
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
                let live = plan.method.live_microbatches(p, s, n) as u64;
                let expected = StageMemory {
                    static_bytes: expected_static_bytes(&ctx, plan.method, &ranges, s),
                    buffer_bytes: strategy::buffer_bytes_of(&units, &stage.strategy),
                    intermediate_bytes: live * stage.cost.saved_bytes_per_mb,
                };
                report.extend(check_memory_accounting(s, &expected, &stage.memory));
                let severity = if plan.method.is_adaptive() {
                    Severity::Error
                } else {
                    Severity::Warning
                };
                report.extend(check_capacity(s, &stage.memory, self.capacity(), severity));
            }
        }

        if let Some(bd) = &plan.predicted {
            let times: Vec<StageTimes> = plan
                .stages
                .iter()
                .map(|s| StageTimes {
                    f: s.cost.time_f,
                    b: s.cost.time_b,
                })
                .collect();
            report.extend(check_breakdown(&times, n, bd, opts.tolerance));
        }

        match schedule_preconditions(plan.method, p, n) {
            Ok(()) => {
                let graph = self.build_schedule(plan, &ctx);
                report.extend(check_task_graph(&graph));
            }
            Err(msg) => report.push(Diagnostic::error(CheckCode::MicrobatchCount, None, msg)),
        }

        if opts.iso_cache_spot_check && plan.method.is_adaptive() && ranges_in_bounds {
            report.extend(self.iso_cache_spot_check(&ctx, &ranges, opts.tolerance));
        }
        report
    }

    /// §5.3 soundness spot-check: for each stage window of the plan, the
    /// cached `f/b[s,i,j]` leaf cost must equal the cost recomputed with
    /// the isomorphism cache disabled, and a repeated cached query must
    /// return the identical value.
    ///
    /// The 2p leaf solves are independent tasks — task `2s` asks the
    /// cached provider twice, task `2s + 1` re-solves uncached — so they
    /// run over the planner's exec pool when one is attached and are
    /// read back in stage order: the report is the same bytes either
    /// way. A panicked task becomes an error diagnostic.
    fn iso_cache_spot_check(
        &self,
        ctx: &Context,
        ranges: &[adapipe_model::LayerRange],
        tol: f64,
    ) -> Vec<Diagnostic> {
        let _span = self
            .recorder()
            .span_cat(keys::SPAN_VERIFY_ISO_SPOT_CHECK, "planner");
        let cached =
            KnapsackCostProvider::new(&ctx.seq, &ctx.table, &ctx.mem, self.search_capacity());
        let raw = KnapsackCostProvider::new(&ctx.seq, &ctx.table, &ctx.mem, self.search_capacity())
            .with_isomorphism_cache(false);
        let tasks: Vec<(usize, bool)> = (0..ranges.len())
            .flat_map(|s| [(s, true), (s, false)])
            .collect();
        let serial = ExecPool::new(1);
        let pool = self.exec_pool().unwrap_or(&serial);
        let answers = match pool.map(&tasks, |&(s, use_cache)| {
            let r = ranges[s];
            if use_cache {
                let first = cached.stage_times(s, r);
                (first, cached.stage_times(s, r))
            } else {
                let fresh = raw.stage_times(s, r);
                (fresh, fresh)
            }
        }) {
            Ok(answers) => answers,
            Err(e) => {
                let stage = match &e {
                    ExecError::TaskPanicked { index, .. } | ExecError::LostTask { index } => {
                        Some(index / 2)
                    }
                    _ => None,
                };
                return vec![Diagnostic::error(
                    CheckCode::IsoCacheDivergence,
                    stage,
                    format!("leaf re-solve failed: {e}"),
                )];
            }
        };
        let mut out = Vec::new();
        for (s, (pair, &r)) in answers.chunks_exact(2).zip(ranges).enumerate() {
            let &[(first, again), (fresh, _)] = pair else {
                continue;
            };
            let agree = match (first, fresh) {
                (Some(a), Some(b)) => {
                    adapipe_check::approx_eq(a.f.as_micros(), b.f.as_micros(), tol)
                        && adapipe_check::approx_eq(a.b.as_micros(), b.b.as_micros(), tol)
                }
                (None, None) => true,
                _ => false,
            };
            if !agree || first != again {
                out.push(Diagnostic::error(
                    CheckCode::IsoCacheDivergence,
                    Some(s),
                    format!(
                        "cached leaf cost {first:?} (repeat {again:?}) vs recomputed {fresh:?} \
                         for window {r}"
                    ),
                ));
            }
        }
        let hits = cached.cache_stats().hits;
        if hits < ranges.len() as u64 {
            out.push(Diagnostic::error(
                CheckCode::IsoCacheDivergence,
                None,
                format!(
                    "isomorphism cache served {hits} hits for {} repeated queries",
                    ranges.len()
                ),
            ));
        }
        out
    }
}

/// Whether `method`'s schedule generator can build a graph at all for
/// this `(p, n)`; mirrors the generators' own preconditions so the
/// verifier reports a diagnostic where they would panic.
fn schedule_preconditions(method: Method, p: usize, n: usize) -> Result<(), String> {
    if method.is_chimera() {
        if !p.is_multiple_of(2) {
            return Err(format!("chimera needs an even pipeline size, got {p}"));
        }
        if n == 0 || !n.is_multiple_of(p) {
            return Err(format!(
                "chimera needs n to be a positive multiple of p (n={n}, p={p})"
            ));
        }
        return Ok(());
    }
    match method {
        Method::GpipeFull | Method::GpipeNone => {
            if n == 0 {
                return Err("GPipe needs at least one micro-batch".to_string());
            }
        }
        _ => {
            if n < p {
                return Err(format!("1F1B needs n >= p (n={n}, p={p})"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let report = planner.verify_with(&plan, VerifyOptions::quick());
        assert!(report.has_code(CheckCode::StageCount), "{report}");
        Ok(())
    }

    #[test]
    fn schedule_preconditions_mirror_generators() {
        assert!(schedule_preconditions(Method::DappleFull, 4, 3).is_err());
        assert!(schedule_preconditions(Method::DappleFull, 4, 4).is_ok());
        assert!(schedule_preconditions(Method::ChimeraFull, 3, 6).is_err());
        assert!(schedule_preconditions(Method::ChimeraFull, 4, 6).is_err());
        assert!(schedule_preconditions(Method::ChimeraFull, 4, 8).is_ok());
        assert!(schedule_preconditions(Method::GpipeFull, 4, 1).is_ok());
        assert!(schedule_preconditions(Method::GpipeFull, 4, 0).is_err());
    }
}
