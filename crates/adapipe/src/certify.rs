//! Lower-bound certificates and the `verify --optimality` entry point.
//!
//! The brute-force oracle ([`crate::oracle`]) only reaches small
//! instances; real plans need a different argument. This module derives
//! an *analytic* lower bound on any memory-feasible Eq. (3) plan — an
//! LP-style relaxation of the search space — and packages it with the
//! plan's predicted cost as an [`adapipe-certificate
//! v1`](adapipe_check::certificate) artifact:
//!
//! * `W₀ ≥ Σ_ℓ f_ℓ` and `E₀ ≥ Σ_ℓ b_ℓ` — the warmup and ending
//!   recurrences each add at least the stage's own forward/backward
//!   time, whatever the partition.
//! * Forced recomputation: summing the per-stage §4.3 memory constraint
//!   over all stages relaxes to one *pooled* budget,
//!   `p·capacity − static(model) − pinned(model)` bytes for free
//!   activations; the fractional knapsack over that pool lower-bounds
//!   the recompute time every feasible plan must pay.
//! * `M₀ ≥ max(avg, worst layer)` — the steady-state bottleneck is at
//!   least the per-stage average of the total (forced-recompute-
//!   inclusive) work by pigeonhole, and at least `f + b` of any single
//!   layer, because some stage hosts it.
//!
//! The bound is deliberately loose (it ignores pipeline fill/drain
//! interactions), so [`check_certificate`] accepts gaps up to a
//! configurable `ε`; its real power is *soundness* — a certificate whose
//! bound exceeds the plan cost means the cost model itself is broken,
//! and the planner's debug build self-checks exactly that on every plan
//! it emits.

use crate::oracle::{self, OracleBounds};
use crate::plan::Plan;
use crate::planner::{Context, Planner};
use adapipe_check::{
    check_certificate, Certificate, CheckCode, CheckReport, Diagnostic, DEFAULT_EPSILON,
    DEFAULT_TOLERANCE,
};
use adapipe_model::LayerRange;
use adapipe_obs::keys;
use adapipe_units::{convert, Bytes, MicroSecs};
use std::cmp::Ordering;

/// Tuning for [`Planner::verify_optimality`].
#[derive(Debug, Clone, Copy)]
pub struct OptimalityOptions {
    /// Largest accepted `plan_cost / lower_bound − 1`. The default
    /// ([`DEFAULT_EPSILON`]) absorbs the relaxation's slack on the
    /// paper's configurations.
    pub epsilon: f64,
    /// Seed for the randomized counterexample search.
    pub search_seed: u64,
    /// Random instances to try in the counterexample search.
    pub search_iterations: usize,
}

impl Default for OptimalityOptions {
    fn default() -> Self {
        OptimalityOptions {
            epsilon: DEFAULT_EPSILON,
            search_seed: 0xada_0001,
            search_iterations: 200,
        }
    }
}

impl Planner {
    /// Derives the lower-bound certificate for `plan`, or `None` when no
    /// sound bound applies: the plan has no Eq. (3) prediction (GPipe,
    /// Chimera and interleaved schedules follow different cost models)
    /// or it overflows device memory (the bound quantifies over
    /// *memory-feasible* plans only, so an OOM baseline can legally
    /// undercut it).
    #[must_use]
    pub fn certificate(&self, plan: &Plan) -> Option<Certificate> {
        let plan_cost = plan.predicted_time()?;
        let capacity = self.capacity();
        if !plan.stages.iter().all(|s| s.memory.fits(capacity)) {
            return None;
        }
        let ctx = self.context(plan.parallel, plan.train);
        let p = plan.parallel.pipeline();
        let full = LayerRange::new(0, ctx.seq.len() - 1);
        let sum_f = ctx.table.forward_time(full);
        let sum_b = ctx.table.backward_time(full);
        let forced = forced_recompute_lb(&ctx, p, capacity);

        let avg = (sum_f + sum_b + forced) / convert::count_f64(p);
        let worst_layer = (0..ctx.seq.len())
            .map(|l| {
                let layer = LayerRange::new(l, l);
                ctx.table.forward_time(layer) + ctx.table.backward_time(layer)
            })
            .fold(MicroSecs::ZERO, MicroSecs::max);
        let bottleneck = avg.max(worst_layer);

        let mut cert = Certificate {
            layers: ctx.seq.len(),
            stages: p,
            micro_batches: plan.n_microbatches,
            warmup_lb: sum_f,
            ending_lb: sum_b,
            forced_recompute_lb: forced,
            bottleneck_lb: bottleneck,
            lower_bound: MicroSecs::ZERO,
            plan_cost,
        };
        cert.lower_bound = cert.recomposed_bound();
        Some(cert)
    }

    /// The full optimality-verification pass behind
    /// `adapipe verify --optimality`:
    ///
    /// 1. certifies `plan` against its analytic lower bound (an
    ///    [`CheckCode::OptimalityGap`] *error* only for `AdaPipe` plans —
    ///    a baseline far from optimal is the expected result, so its gap
    ///    is reported at warning severity);
    /// 2. sweeps the pinned synthetic grid and the `tiny-gpt` model grid
    ///    against the brute-force oracles;
    /// 3. runs the seeded counterexample search.
    ///
    /// Counters land on the planner's recorder under `oracle.*` and
    /// `certificate.*`.
    #[must_use]
    pub fn verify_optimality(&self, plan: &Plan, opts: &OptimalityOptions) -> CheckReport {
        let rec = self.recorder();
        let mut report = CheckReport::new();

        rec.incr(keys::CERT_CHECKS);
        match self.certificate(plan) {
            Some(cert) => {
                rec.observe(keys::CERT_GAP_PCT, cert.gap() * 100.0);
                let diags = check_certificate(&cert, opts.epsilon, DEFAULT_TOLERANCE);
                if !diags.is_empty() {
                    rec.incr(keys::CERT_FAILURES);
                }
                let adaptive = plan.method.is_adaptive();
                report.extend(diags.into_iter().map(|d| {
                    if d.code == CheckCode::OptimalityGap && !adaptive {
                        Diagnostic::warning(d.code, d.stage, d.message)
                    } else {
                        d
                    }
                }));
            }
            None => report.push(Diagnostic::warning(
                CheckCode::CertificateInvalid,
                None,
                format!(
                    "{} plan is not certifiable (no Eq. (3) prediction, or the plan \
                     overflows device memory)",
                    plan.method
                ),
            )),
        }

        report.extend(oracle::check_grid_agreement(rec));
        report.extend(oracle::check_model_grid(rec));
        for cx in oracle::search_counterexamples(
            opts.search_seed,
            opts.search_iterations,
            &OracleBounds::default(),
            rec,
        ) {
            report.push(Diagnostic::error(
                CheckCode::OptimalityGap,
                None,
                format!("counterexample search (seed {}): {cx}", opts.search_seed),
            ));
        }
        report
    }
}

/// Lower bound on the recomputation time *any* memory-feasible plan must
/// pay: the fractional knapsack over the pooled activation budget.
/// Ignoring live-micro-batch multiplicity (`live ≥ 1`) and recompute
/// buffers only enlarges the pool, keeping the bound sound.
fn forced_recompute_lb(ctx: &Context, p: usize, capacity: Bytes) -> MicroSecs {
    let full = LayerRange::new(0, ctx.seq.len() - 1);
    let pool =
        capacity.as_f64() * convert::count_f64(p) - ctx.mem.static_bytes(&ctx.seq, full).as_f64();
    let budget = (pool - ctx.table.saved_bytes_pinned(full).as_f64()).max(0.0);
    let mut free: Vec<(f64, f64)> = ctx
        .table
        .all_units()
        .filter(|u| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
        .map(|u| (u.time_f.as_micros(), u.mem_saved.as_f64()))
        .collect();
    let total_value: f64 = free.iter().map(|(v, _)| v).sum();
    // Densest-first fractional fill is the exact optimum of the LP
    // relaxation; `v₁/w₁ > v₂/w₂ ⟺ v₁·w₂ > v₂·w₁` avoids the division.
    free.sort_by(|a, b| {
        (b.0 * a.1)
            .partial_cmp(&(a.0 * b.1))
            .unwrap_or(Ordering::Equal)
    });
    let mut remaining = budget;
    let mut saved_value = 0.0;
    for (v, w) in free {
        if remaining <= 0.0 {
            break;
        }
        let frac = (remaining / w).min(1.0);
        saved_value += v * frac;
        remaining -= w * frac;
    }
    MicroSecs::new((total_value - saved_value).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PlanError;
    use crate::method::Method;
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, ParallelConfig, TrainConfig};
    use adapipe_obs::Recorder;

    fn small() -> Result<(Planner, ParallelConfig, TrainConfig), PlanError> {
        Ok((
            Planner::new(presets::gpt2_small(), hw::cluster_a()),
            ParallelConfig::new(2, 4, 1)?,
            TrainConfig::new(1, 1024, 32)?,
        ))
    }

    #[test]
    fn adapipe_plan_is_certified_within_epsilon() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let plan = planner.plan(Method::AdaPipe, parallel, train)?;
        let cert = planner.certificate(&plan).expect("certifiable");
        assert!(cert.lower_bound > MicroSecs::ZERO);
        assert!(cert.lower_bound <= cert.plan_cost);
        let diags = check_certificate(&cert, DEFAULT_EPSILON, DEFAULT_TOLERANCE);
        assert!(diags.is_empty(), "gap {:.3}: {diags:?}", cert.gap());
        Ok(())
    }

    #[test]
    fn certificate_round_trips_through_text() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let plan = planner.plan(Method::AdaPipe, parallel, train)?;
        let cert = planner.certificate(&plan).expect("certifiable");
        let parsed = Certificate::from_text(&cert.to_text()).expect("parse");
        assert_eq!(cert, parsed);
        Ok(())
    }

    #[test]
    fn bound_is_sound_for_every_certifiable_method() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        for m in Method::all() {
            let Ok(plan) = planner.plan(m, parallel, train) else {
                continue;
            };
            let Some(cert) = planner.certificate(&plan) else {
                continue;
            };
            assert!(
                cert.lower_bound <= cert.plan_cost * (1.0 + 1e-9),
                "{m}: bound {} exceeds cost {}",
                cert.lower_bound,
                cert.plan_cost
            );
        }
        Ok(())
    }

    #[test]
    fn uncertifiable_methods_return_none() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let plan = planner.plan(Method::GpipeFull, parallel, train)?;
        assert!(planner.certificate(&plan).is_none());
        Ok(())
    }

    #[test]
    fn verify_optimality_passes_on_an_adapipe_plan() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let planner = planner.with_recorder(Recorder::new());
        let plan = planner.plan(Method::AdaPipe, parallel, train)?;
        let opts = OptimalityOptions {
            search_iterations: 8,
            ..OptimalityOptions::default()
        };
        let report = planner.verify_optimality(&plan, &opts);
        assert!(!report.has_errors(), "{report}");
        let snap = planner.recorder().snapshot();
        assert_eq!(snap.counters.get(keys::CERT_CHECKS).copied(), Some(1));
        assert!(
            snap.counters
                .get(keys::ORACLE_INSTANCES)
                .copied()
                .unwrap_or(0)
                > 0
        );
        Ok(())
    }

    #[test]
    fn baseline_gap_is_a_warning_not_an_error() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let plan = planner.plan(Method::DappleFull, parallel, train)?;
        let opts = OptimalityOptions {
            epsilon: 0.0, // force a gap finding even on a tight plan
            search_iterations: 0,
            ..OptimalityOptions::default()
        };
        let report = planner.verify_optimality(&plan, &opts);
        let gaps: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == CheckCode::OptimalityGap)
            .collect();
        assert!(!gaps.is_empty(), "expected a gap at epsilon 0");
        assert!(
            gaps.iter()
                .all(|d| d.severity == adapipe_check::Severity::Warning),
            "{report}"
        );
        Ok(())
    }

    #[test]
    fn forced_recompute_bound_tightens_with_capacity() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let ctx = planner.context(parallel, train);
        let full = LayerRange::new(0, ctx.seq.len() - 1);
        let static_b = ctx.mem.static_bytes(&ctx.seq, full).as_f64();
        let pinned = ctx.table.saved_bytes_pinned(full).as_f64();
        let free = ctx.table.saved_bytes_all(full).as_f64() - pinned;
        // Pool holds statics, pinned tensors and a quarter of the free
        // activations: three quarters of the forward time is forced.
        let tight_cap = Bytes::new(convert::f64_u64_clamped(
            (static_b + pinned + free / 4.0) / 4.0,
        ));
        let roomy = forced_recompute_lb(&ctx, 4, Bytes::from_gib(80));
        let tight = forced_recompute_lb(&ctx, 4, tight_cap);
        assert_eq!(roomy, MicroSecs::ZERO);
        assert!(tight > MicroSecs::ZERO, "tight {tight}");
        Ok(())
    }
}
