//! Degradation-aware replanning: the recovery ladder that turns
//! [`adapipe_faults`] diagnoses back into feasible plans.
//!
//! The ladder has three rungs, cheapest first:
//!
//! 1. **Retry** — transient stalls (one deadline miss) are retried with
//!    bounded exponential backoff ([`adapipe_faults::run_retries`]);
//!    no search is spent. Exhausted retries escalate to rung 2.
//! 2. **Replan** — persistent stragglers and budget losses re-run
//!    Algorithm 1 (§5) against the *degraded* profile: stage times are
//!    scaled by each device's compute factor and memory-pressured
//!    stages search under their shrunken budget. Each replan builds
//!    fresh providers — nothing carries over from the healthy search —
//!    and the §5.3 isomorphism cache answers isomorphic windows within
//!    the re-solve from one knapsack solve each; the cost of replanning
//!    is reported through the planner's [`Recorder`](adapipe_obs::Recorder).
//! 3. **Full recomputation** — if a stage window cannot fit even after
//!    the re-solve, it falls back to saving nothing (the paper's §4
//!    baseline, feasible whenever the boundary activation fits), so
//!    the ladder always terminates with *a* plan.
//!
//! The replanned artifact stores **healthy** stage costs — the degraded
//! world steered only the *choice* of boundaries and strategies — so it
//! round-trips through [`plan_io`](crate::plan_io) and passes
//! [`Planner::verify`] like any other plan. Degraded-world timings are
//! reported separately via [`degraded_iteration_time`].

use crate::error::PlanError;
use crate::method::Method;
use crate::plan::Plan;
use crate::planner::{predicted_breakdown, stage_plan, Planner};
use adapipe_faults::{run_retries, DegradedCluster, Diagnosis, RetryPolicy};
use adapipe_model::LayerRange;
use adapipe_obs::keys;
use adapipe_partition::{
    algorithm1, f1b_iteration_time, CacheStats, KnapsackCostProvider, StageCostProvider, StageTimes,
};
use adapipe_recompute::strategy;
use adapipe_units::{Bytes, MicroSecs};

/// Tuning for a replan pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplanConfig {
    /// Retry ladder for transient stalls.
    pub retry: RetryPolicy,
    /// The step at which degradation was diagnosed; straggler factors
    /// are evaluated here (stragglers scheduled later are ignored).
    pub detected_at_step: usize,
}

/// One transient stall's trip through the retry ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryRecord {
    /// The stalled stage.
    pub stage: usize,
    /// The stalled micro-batch.
    pub micro_batch: usize,
    /// Re-executions taken.
    pub attempts: u32,
    /// Backoff accounted before recovery (or exhaustion).
    pub backoff: MicroSecs,
    /// Whether the ladder recovered without escalating.
    pub recovered: bool,
}

/// What the recovery ladder did and how the result compares to the
/// stale plan in the degraded world.
#[derive(Debug, Clone)]
pub struct ReplanOutcome {
    /// Transient stalls handled by retry (ladder rung 1).
    pub retries: Vec<RetryRecord>,
    /// The replanned artifact (`None` when retries sufficed).
    pub plan: Option<Plan>,
    /// Stages that fell back to full recomputation (ladder rung 3).
    pub fallback_stages: Vec<usize>,
    /// Eq. (3) iteration time of the *stale* plan on the degraded
    /// cluster (infinite when the stale plan no longer fits).
    pub stale_time: MicroSecs,
    /// Eq. (3) iteration time of the replanned plan on the degraded
    /// cluster.
    pub replanned_time: Option<MicroSecs>,
    /// Isomorphism-cache hits across the re-solve.
    pub cache_hits: u64,
    /// Isomorphism-cache misses across the re-solve.
    pub cache_misses: u64,
}

impl ReplanOutcome {
    /// Whether replanning produced a strictly better degraded-world
    /// iteration time than keeping the stale plan.
    #[must_use]
    pub fn improved(&self) -> bool {
        match self.replanned_time {
            Some(t) => t < self.stale_time,
            None => false,
        }
    }
}

/// Scales healthy per-stage times into the degraded world: stage `s`
/// runs on device `s`, whose compute factor divides its throughput.
fn degraded_times(plan: &Plan, degraded: &DegradedCluster, step: usize) -> Vec<StageTimes> {
    plan.stage_times()
        .into_iter()
        .enumerate()
        .map(|(s, t)| slowed(t, degraded.compute_factor_at(s, step)))
        .collect()
}

/// `t` on a device running at `factor` of its healthy throughput.
fn slowed(t: StageTimes, factor: f64) -> StageTimes {
    StageTimes {
        f: t.f / factor,
        b: t.b / factor,
    }
}

/// Eq. (3) iteration time of `plan` executed on `degraded` at `step`:
/// `T = W₀ + E₀ + (n − p)·M₀` over the degradation-scaled stage times.
#[must_use]
pub fn degraded_iteration_time(plan: &Plan, degraded: &DegradedCluster, step: usize) -> MicroSecs {
    f1b_iteration_time(&degraded_times(plan, degraded, step), plan.n_microbatches).total()
}

/// Whether every stage of `plan` still fits its (possibly shrunken)
/// device capacity in the degraded world.
#[must_use]
pub fn fits_degraded(plan: &Plan, degraded: &DegradedCluster, capacity: Bytes) -> bool {
    plan.stages.iter().enumerate().all(|(s, st)| {
        st.memory
            .total()
            .fits(degraded.shrunk_capacity(capacity, s))
    })
}

/// The degraded-world cost view Algorithm 1 re-solves against: healthy
/// knapsack leaves, with stage times divided by the device's compute
/// factor and memory-pressured stages dispatched to a provider whose
/// budget already lost the shrink.
struct DegradedProvider<'a> {
    healthy: KnapsackCostProvider<'a>,
    shrunk: Vec<(usize, KnapsackCostProvider<'a>)>,
    factors: Vec<f64>,
}

impl DegradedProvider<'_> {
    fn provider_for(&self, stage: usize) -> &KnapsackCostProvider<'_> {
        self.shrunk
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(&self.healthy, |(_, p)| p)
    }

    fn cache_stats(&self) -> CacheStats {
        let mut stats = self.healthy.cache_stats();
        for (_, p) in &self.shrunk {
            stats += p.cache_stats();
        }
        stats
    }
}

impl StageCostProvider for DegradedProvider<'_> {
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        let t = self.provider_for(stage).stage_times(stage, range)?;
        Some(slowed(t, self.factors.get(stage).copied().unwrap_or(1.0)))
    }
}

impl Planner {
    /// Runs the recovery ladder for `diagnosis` against `degraded`.
    ///
    /// Transient stalls are retried (deterministically: a one-shot
    /// stall recovers on the first re-execution); persistent
    /// stragglers, budget losses and exhausted retries trigger a
    /// re-run of Algorithm 1 on the degraded profile. The returned
    /// plan — when one was produced — stores healthy costs and passes
    /// [`Planner::verify`].
    ///
    /// # Errors
    ///
    /// [`PlanError::Config`] never arises (the stale plan already
    /// validated); [`PlanError::OutOfMemory`] cannot either, because
    /// infeasible windows fall back to full recomputation — the error
    /// type is kept for parity with [`Planner::plan`].
    pub fn replan(
        &self,
        stale: &Plan,
        degraded: &DegradedCluster,
        diagnosis: &Diagnosis,
        cfg: &ReplanConfig,
    ) -> Result<ReplanOutcome, PlanError> {
        // One-shot semantics: a transient stall is gone by its first
        // re-execution. The probe variant exists for tests and for
        // callers modelling recurring stalls.
        self.replan_with_probe(stale, degraded, diagnosis, cfg, |_, _, _| true)
    }

    /// [`Planner::replan`] with an explicit retry probe: `probe(stage,
    /// micro_batch, attempt)` reports whether re-executing the stalled
    /// op succeeded. Exhausted ladders escalate the stage to a replan.
    ///
    /// # Errors
    ///
    /// See [`Planner::replan`].
    pub fn replan_with_probe(
        &self,
        stale: &Plan,
        degraded: &DegradedCluster,
        diagnosis: &Diagnosis,
        cfg: &ReplanConfig,
        mut probe: impl FnMut(usize, usize, u32) -> bool,
    ) -> Result<ReplanOutcome, PlanError> {
        let _span = self.recorder().span_cat(keys::SPAN_REPLAN, "replan");
        let step = cfg.detected_at_step;

        // Rung 1: retry transient stalls with accounted backoff.
        let mut retries = Vec::with_capacity(diagnosis.transient_stalls.len());
        let mut escalated = false;
        for &(stage, micro_batch) in &diagnosis.transient_stalls {
            let outcome = run_retries(&cfg.retry, |attempt| probe(stage, micro_batch, attempt));
            self.recorder().incr(keys::REPLAN_RETRIES);
            let (attempts, backoff) = match outcome {
                adapipe_faults::RetryOutcome::Recovered { attempts, backoff }
                | adapipe_faults::RetryOutcome::Exhausted { attempts, backoff } => {
                    (attempts, backoff)
                }
            };
            escalated |= !outcome.recovered();
            retries.push(RetryRecord {
                stage,
                micro_batch,
                attempts,
                backoff,
                recovered: outcome.recovered(),
            });
        }

        let stale_time = if fits_degraded(stale, degraded, self.capacity()) {
            degraded_iteration_time(stale, degraded, step)
        } else {
            MicroSecs::new(f64::INFINITY)
        };

        if !diagnosis.needs_replan() && !escalated {
            return Ok(ReplanOutcome {
                retries,
                plan: None,
                fallback_stages: Vec::new(),
                stale_time,
                replanned_time: None,
                cache_hits: 0,
                cache_misses: 0,
            });
        }

        // Rung 2: re-run Algorithm 1 on the degraded profile.
        let ctx = self.context(stale.parallel, stale.train);
        let p = stale.parallel.pipeline();
        let make_provider = |capacity: Bytes| {
            KnapsackCostProvider::new(&ctx.seq, &ctx.table, &ctx.mem, capacity)
                .with_recorder(self.recorder().clone())
        };
        let shrunk: Vec<(usize, KnapsackCostProvider<'_>)> = (0..p)
            .filter(|&s| degraded.plan().budget_shrink(s) != Bytes::ZERO)
            .map(|s| {
                (
                    s,
                    make_provider(degraded.shrunk_capacity(self.search_capacity(), s)),
                )
            })
            .collect();
        let provider = DegradedProvider {
            healthy: make_provider(self.search_capacity()),
            shrunk,
            factors: (0..p)
                .map(|s| degraded.compute_factor_at(s, step))
                .collect(),
        };

        let solved = {
            let _span = self
                .recorder()
                .span_cat(keys::SPAN_REPLAN_PARTITION, "replan");
            let started = self.recorder().is_enabled().then(std::time::Instant::now);
            let solved =
                algorithm1::solve_traced(&provider, ctx.seq.len(), p, ctx.n, self.recorder());
            if let Some(t0) = started {
                self.recorder()
                    .observe(keys::REPLAN_SOLVE_US, t0.elapsed().as_secs_f64() * 1e6);
            }
            solved
        };
        // Keep the stale boundaries when even the degraded DP finds no
        // feasible cover — materialization below still re-picks
        // strategies (with the rung-3 fallback) under the new budgets.
        let ranges = solved.map_or_else(|| stale.ranges(), |s| s.ranges);

        // Rung 3 inside materialization: full recomputation when a
        // window cannot fit its (possibly shrunken) budget.
        let mut fallback_stages = Vec::new();
        let mut stages = Vec::with_capacity(ranges.len());
        for (s, &range) in ranges.iter().enumerate() {
            let (strat, cost) = match provider.provider_for(s).materialize_stage(s, range) {
                Ok(opt) => (opt.strategy, opt.cost),
                Err(_) => {
                    self.recorder().incr(keys::REPLAN_FALLBACK_FULL_RECOMPUTE);
                    fallback_stages.push(s);
                    let units = ctx.table.units_in(range);
                    let strat = strategy::full(&units);
                    let cost = strategy::cost_of(&units, &strat);
                    (strat, cost)
                }
            };
            stages.push(stage_plan(&ctx, Method::AdaPipe, &ranges, s, strat, cost));
        }
        let mut plan = Plan {
            method: Method::AdaPipe,
            parallel: stale.parallel,
            train: stale.train,
            n_microbatches: ctx.n,
            stages,
            predicted: None,
        };
        plan.predicted = predicted_breakdown(&plan);
        let replanned_time = degraded_iteration_time(&plan, degraded, step);
        let CacheStats {
            hits: cache_hits,
            misses: cache_misses,
        } = provider.cache_stats();
        self.recorder()
            .observe(keys::REPLAN_ISO_HITS, cache_hits as f64);
        self.recorder()
            .observe(keys::REPLAN_ISO_MISSES, cache_misses as f64);
        Ok(ReplanOutcome {
            retries,
            plan: Some(plan),
            fallback_stages,
            stale_time,
            replanned_time: Some(replanned_time),
            cache_hits,
            cache_misses,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::Method;
    use adapipe_faults::{Fault, FaultPlan};
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, ParallelConfig, TrainConfig};

    fn setup() -> (Planner, Plan) {
        let planner = Planner::new(presets::gpt2_small(), hw::cluster_a());
        let parallel = ParallelConfig::new(2, 4, 1).expect("valid parallelism");
        let train = TrainConfig::new(1, 1024, 32).expect("valid workload");
        let plan = planner
            .plan(Method::AdaPipe, parallel, train)
            .expect("feasible healthy plan");
        (planner, plan)
    }

    fn straggler(factor: f64) -> DegradedCluster {
        let faults = FaultPlan::new(7).with(Fault::Straggler {
            device: 2,
            factor,
            from_step: 0,
        });
        DegradedCluster::new(hw::cluster_a(), faults)
    }

    #[test]
    fn transient_stall_recovers_without_replanning() {
        let (planner, stale) = setup();
        let degraded = DegradedCluster::new(hw::cluster_a(), FaultPlan::new(1));
        let diagnosis = Diagnosis {
            transient_stalls: vec![(1, 3)],
            ..Diagnosis::default()
        };
        let out = planner
            .replan(&stale, &degraded, &diagnosis, &ReplanConfig::default())
            .expect("ladder runs");
        assert!(out.plan.is_none(), "retry must not escalate to a replan");
        assert_eq!(out.retries.len(), 1);
        assert!(out.retries[0].recovered);
        assert_eq!(out.retries[0].attempts, 1);
        assert!(out.retries[0].backoff > MicroSecs::ZERO);
    }

    #[test]
    fn exhausted_retries_escalate_to_a_replan() {
        let (planner, stale) = setup();
        let degraded = straggler(0.6);
        let diagnosis = Diagnosis {
            transient_stalls: vec![(2, 0)],
            ..Diagnosis::default()
        };
        let out = planner
            .replan_with_probe(
                &stale,
                &degraded,
                &diagnosis,
                &ReplanConfig::default(),
                |_, _, _| false,
            )
            .expect("ladder runs");
        assert!(!out.retries[0].recovered);
        assert!(out.plan.is_some(), "exhaustion must escalate");
    }

    #[test]
    fn persistent_straggler_replan_beats_the_stale_plan() {
        let (planner, stale) = setup();
        let degraded = straggler(0.6);
        let diagnosis = Diagnosis {
            persistent_stragglers: vec![2],
            ..Diagnosis::default()
        };
        let out = planner
            .replan(&stale, &degraded, &diagnosis, &ReplanConfig::default())
            .expect("replan runs");
        let plan = out.plan.as_ref().expect("replanned");
        assert!(
            out.improved(),
            "replanned {:?} vs stale {}",
            out.replanned_time,
            out.stale_time
        );
        let report = planner.verify(plan);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn budget_shrink_replan_fits_and_beats_the_stale_plan() {
        let (planner, stale) = setup();
        // Shrink stage 0 hard enough that its saved intermediates no
        // longer fit: dynamic memory of the stale plan's stage 0 plus a
        // margin below the original capacity.
        let static_bytes = stale.stages[0].memory.static_bytes;
        let dynamic = stale.stages[0].memory.total().saturating_sub(static_bytes);
        let shrink = planner
            .capacity()
            .saturating_sub(static_bytes)
            .saturating_sub(dynamic / 2);
        let faults = FaultPlan::new(11).with(Fault::MemoryPressure { stage: 0, shrink });
        let degraded = DegradedCluster::new(hw::cluster_a(), faults);
        assert!(!fits_degraded(&stale, &degraded, planner.capacity()));
        let diagnosis = Diagnosis {
            budget_exceeded: vec![(0, dynamic, dynamic / 2)],
            ..Diagnosis::default()
        };
        let out = planner
            .replan(&stale, &degraded, &diagnosis, &ReplanConfig::default())
            .expect("replan runs");
        let plan = out.plan.as_ref().expect("replanned");
        // The stale plan is infeasible (infinite time), so any feasible
        // replan wins.
        assert!(out.stale_time.as_micros().is_infinite());
        assert!(out.improved());
        assert!(fits_degraded(plan, &degraded, planner.capacity()));
        let report = planner.verify(plan);
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn replanning_is_deterministic() {
        let (planner, stale) = setup();
        let degraded = straggler(0.5);
        let diagnosis = Diagnosis {
            persistent_stragglers: vec![2],
            ..Diagnosis::default()
        };
        let a = planner
            .replan(&stale, &degraded, &diagnosis, &ReplanConfig::default())
            .expect("replan runs");
        let b = planner
            .replan(&stale, &degraded, &diagnosis, &ReplanConfig::default())
            .expect("replan runs");
        let (pa, pb) = (a.plan.expect("plan"), b.plan.expect("plan"));
        assert_eq!(
            crate::plan_io::to_text(&pa),
            crate::plan_io::to_text(&pb),
            "same diagnosis must yield byte-identical artifacts"
        );
    }

    #[test]
    fn warm_start_reuses_the_isomorphism_cache() {
        let (planner, stale) = setup();
        let degraded = straggler(0.6);
        let diagnosis = Diagnosis {
            persistent_stragglers: vec![2],
            ..Diagnosis::default()
        };
        let out = planner
            .replan(&stale, &degraded, &diagnosis, &ReplanConfig::default())
            .expect("replan runs");
        assert!(out.cache_hits > 0, "the re-solve must hit the cache");
    }
}
