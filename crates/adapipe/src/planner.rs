use crate::error::PlanError;
use crate::evaluate::{Evaluation, Throughput};
use crate::method::Method;
use crate::plan::{Plan, StagePlan};
use adapipe_exec::ExecPool;
use adapipe_hw::ClusterSpec;
use adapipe_memory::{f1b_live_microbatches, MemoryModel, OptimizerSpec, StageMemory};
use adapipe_model::{LayerRange, LayerSeq, ModelSpec, ParallelConfig, TrainConfig};
use adapipe_obs::{keys, Recorder};
use adapipe_partition::{
    algorithm1, f1b_iteration_time, subcache, KnapsackCostProvider, StageTimes,
};
use adapipe_profiler::{ProfileTable, Profiler};
use adapipe_recompute::{strategy, RecomputeStrategy};
use adapipe_sim::{schedule, simulate, StageExec};
use adapipe_units::{convert, Bytes, Flops, FlopsPerSec};
use std::sync::Arc;

/// The AdaPipe search engine plus baseline planners and the evaluation
/// harness (§6: "AdaPipe consists of a search engine and an execution
/// engine" — here the execution engine is the discrete-event simulator).
#[derive(Debug, Clone)]
pub struct Planner {
    model: ModelSpec,
    cluster: ClusterSpec,
    optimizer: OptimizerSpec,
    /// Fraction of device memory the adaptive search may plan into. The
    /// paper runs its DP against a conservative 70 GB limit on 80 GB
    /// devices (§7.4); 0.875 reproduces that.
    search_headroom: f64,
    rec: Recorder,
    /// Exec pool for parallel leaf prefill; `None` keeps the
    /// search fully serial (the default — plans are byte-identical
    /// either way, see docs/parallel.md).
    exec: Option<Arc<ExecPool>>,
    /// Whether adaptive searches consult the process-global
    /// content-addressed subproblem cache. Off by default so one-shot
    /// planners keep exact per-plan knapsack counters; the serving
    /// daemon turns it on to warm-start across requests.
    shared_subcache: bool,
}

pub(crate) struct Context {
    pub seq: LayerSeq,
    pub table: ProfileTable,
    pub mem: MemoryModel,
    pub n: usize,
}

impl Planner {
    /// Creates a planner for `model` on `cluster` with the paper's
    /// defaults (FP32 Adam + ZeRO-1, 87.5 % search headroom).
    #[must_use]
    pub fn new(model: ModelSpec, cluster: ClusterSpec) -> Self {
        Planner {
            model,
            cluster,
            optimizer: OptimizerSpec::adam_fp32(),
            search_headroom: 0.875,
            rec: Recorder::disabled(),
            exec: None,
            shared_subcache: false,
        }
    }

    /// Attaches an exec pool: `plan(AdaPipe, ..)` evaluates the
    /// isomorphism-class representative leaves in parallel over it
    /// before the serial Algorithm 1 sweep. The resulting plan is
    /// byte-identical to the serial one at any thread count; pools with
    /// a single worker are equivalent to `None`.
    #[must_use]
    pub fn with_exec_pool(mut self, pool: Arc<ExecPool>) -> Self {
        self.exec = Some(pool);
        self
    }

    /// Enables the process-global content-addressed subproblem cache
    /// ([`adapipe_partition::subcache::global`]): knapsack leaves are
    /// keyed by their layer-window *profile* and shared across plans and
    /// requests, so a cold plan for a similar model warm-starts from
    /// cached leaves. Replayed leaves are byte-identical to freshly
    /// solved ones; per-plan knapsack-effort counters shrink on hits,
    /// which is why this is opt-in.
    #[must_use]
    pub fn with_shared_subcache(mut self, enabled: bool) -> Self {
        self.shared_subcache = enabled;
        self
    }

    /// Attaches an observability recorder. Every phase of the search —
    /// profiling, the partition DP (and the recomputation knapsacks and
    /// isomorphism cache under it), plan materialization and the
    /// simulator — reports spans and counters to it; pass the same
    /// recorder to several planners to aggregate a sweep.
    #[must_use]
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.rec = rec;
        self
    }

    /// The recorder this planner reports to (disabled unless
    /// [`Planner::with_recorder`] was called).
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }

    /// Overrides the optimizer memory description.
    #[must_use]
    pub fn with_optimizer(mut self, optimizer: OptimizerSpec) -> Self {
        self.optimizer = optimizer;
        self
    }

    /// Overrides the fraction of device memory the adaptive search may
    /// fill (baselines are always checked against the full capacity).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < headroom <= 1`.
    #[must_use]
    pub fn with_search_headroom(mut self, headroom: f64) -> Self {
        assert!(
            headroom > 0.0 && headroom <= 1.0,
            "headroom must be in (0, 1]"
        );
        self.search_headroom = headroom;
        self
    }

    /// The model being planned for.
    #[must_use]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The cluster being planned for.
    #[must_use]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Usable device memory (capacity minus the device's
    /// driver/communication reservation).
    #[must_use]
    pub fn capacity(&self) -> Bytes {
        self.cluster.device().usable_bytes()
    }

    pub(crate) fn search_capacity(&self) -> Bytes {
        Bytes::new((self.capacity().as_f64() * self.search_headroom) as u64)
    }

    pub(crate) fn exec_pool(&self) -> Option<&ExecPool> {
        self.exec.as_deref()
    }

    pub(crate) fn context(&self, parallel: ParallelConfig, train: TrainConfig) -> Context {
        let _span = self.rec.span_cat(keys::SPAN_PLAN_PROFILE, "planner");
        let table = Profiler::new(self.cluster.clone()).profile(&self.model, &parallel, &train);
        Context {
            seq: LayerSeq::for_model(&self.model),
            table,
            mem: MemoryModel::new(self.model.clone(), parallel, self.optimizer),
            n: train.micro_batches(&parallel),
        }
    }

    /// Produces a plan with `method` for the given 3D parallelism and
    /// workload.
    ///
    /// Baseline plans (`Dapple*`, `Chimera*`, `Gpipe*`) are produced even
    /// when they exceed device memory — the paper reports those bars as
    /// OOM, which [`Planner::evaluate`] flags via
    /// [`Evaluation::fits`]. The adaptive methods (`AdaPipe`,
    /// `EvenPartitioning`) search under the memory constraint and return
    /// [`PlanError::OutOfMemory`] when no feasible strategy exists.
    ///
    /// # Errors
    ///
    /// [`PlanError::Config`] for invalid workload/parallelism
    /// combinations, [`PlanError::Unsupported`] for method-specific
    /// constraints (Chimera needs even `p` and `n` divisible by `p`),
    /// [`PlanError::OutOfMemory`] as described above.
    pub fn plan(
        &self,
        method: Method,
        parallel: ParallelConfig,
        train: TrainConfig,
    ) -> Result<Plan, PlanError> {
        let _span = self
            .rec
            .span_cat(keys::SPAN_PLAN, "planner")
            .with_arg("method", &method);
        train.validate_for(&parallel)?;
        if parallel.tensor() > self.cluster.devices_per_node() {
            return Err(PlanError::Unsupported {
                reason: format!(
                    "tensor parallelism {} exceeds the {} accelerators of one node                      (cross-node TP is prohibitively slow; the paper caps t at 8)",
                    parallel.tensor(),
                    self.cluster.devices_per_node()
                ),
            });
        }
        let ctx = self.context(parallel, train);
        let p = parallel.pipeline();

        if method.is_chimera() {
            if !p.is_multiple_of(2) {
                return Err(PlanError::Unsupported {
                    reason: format!("chimera needs an even pipeline size, got {p}"),
                });
            }
            if !ctx.n.is_multiple_of(p) {
                return Err(PlanError::Unsupported {
                    reason: format!("chimera needs n divisible by p ({} vs {p})", ctx.n),
                });
            }
        }

        let stages = match method {
            Method::AdaPipe => self.plan_adapipe(&ctx, parallel)?,
            Method::EvenPartitioning => self.plan_even_adaptive(&ctx, parallel)?,
            _ => self.plan_fixed(&ctx, parallel, method),
        };

        let predicted = match method {
            Method::GpipeFull | Method::GpipeNone => None,
            Method::InterleavedFull | Method::InterleavedNone => None,
            m if m.is_chimera() => None,
            _ => {
                let times: Vec<StageTimes> = stages
                    .iter()
                    .map(|s| StageTimes {
                        f: s.cost.time_f,
                        b: s.cost.time_b,
                    })
                    .collect();
                Some(f1b_iteration_time(&times, ctx.n))
            }
        };

        let plan = Plan {
            method,
            parallel,
            train,
            n_microbatches: ctx.n,
            stages,
            predicted,
        };
        // Search-engine self-check: in debug builds every emitted plan
        // must pass the full static invariant catalog (memory overflow
        // stays a warning for baselines — the paper reports those as OOM
        // bars rather than refusing to plan them).
        #[cfg(debug_assertions)]
        {
            let report = self.verify_with(&plan, crate::verify::VerifyOptions::quick());
            debug_assert!(
                !report.has_errors(),
                "planner emitted an invalid {method} plan:\n{report}"
            );
            // Soundness half of the optimality certificate: the analytic
            // lower bound may never exceed the plan's own predicted cost.
            // (The ε-band half is a property of the *search*, checked by
            // `verify --optimality`, not of every emitted plan.)
            if let Some(cert) = self.certificate(&plan) {
                debug_assert!(
                    cert.lower_bound <= cert.plan_cost * (1.0 + 1e-9),
                    "plan certificate claims an unsound lower bound: {cert}"
                );
            }
        }
        Ok(plan)
    }

    /// Builds the adaptive-search cost provider, attaching the global
    /// subproblem cache when [`Planner::with_shared_subcache`] opted in.
    fn adaptive_provider<'a>(&self, ctx: &'a Context) -> KnapsackCostProvider<'a> {
        let provider =
            KnapsackCostProvider::new(&ctx.seq, &ctx.table, &ctx.mem, self.search_capacity())
                .with_recorder(self.rec.clone());
        if self.shared_subcache {
            provider.with_subproblem_cache(subcache::global())
        } else {
            provider
        }
    }

    /// AdaPipe proper: Algorithm 1 over knapsack-optimized windows. With
    /// an attached [`ExecPool`], the isomorphism-class representatives
    /// of every window the DP can query are knapsack-optimized in
    /// parallel first; the serial sweep then runs against the warm cache
    /// and produces the same bytes it would have produced alone.
    fn plan_adapipe(
        &self,
        ctx: &Context,
        parallel: ParallelConfig,
    ) -> Result<Vec<StagePlan>, PlanError> {
        let provider = self.adaptive_provider(ctx);
        if let Some(pool) = &self.exec {
            let _span = self.rec.span_cat(keys::SPAN_PLAN_PREFILL, "planner");
            let windows = algorithm1::reachable_windows(ctx.seq.len(), parallel.pipeline());
            let computed = provider.prefill(pool, &windows)?;
            let stats = pool.stats();
            self.rec
                .gauge(keys::EXEC_POOL_WORKERS, convert::count_f64(pool.threads()));
            self.rec
                .gauge(keys::EXEC_POOL_BATCHES, convert::u64_f64(stats.batches));
            self.rec
                .gauge(keys::EXEC_POOL_TASKS, convert::u64_f64(stats.tasks));
            self.rec
                .gauge(keys::EXEC_POOL_STEALS, convert::u64_f64(stats.steals));
            self.rec
                .add(keys::PREFILL_LEAVES, convert::usize_u64(computed));
        }
        let plan = {
            let _span = self.rec.span_cat(keys::SPAN_PLAN_PARTITION, "planner");
            algorithm1::solve_traced(
                &provider,
                ctx.seq.len(),
                parallel.pipeline(),
                ctx.n,
                &self.rec,
            )
        }
        .ok_or(PlanError::OutOfMemory {
            context: "adaptive partitioning DP",
        })?;
        self.materialize_adaptive(ctx, parallel, &provider, &plan.ranges)
    }

    /// Even Partitioning ablation: baseline boundaries, adaptive
    /// recomputation per stage.
    fn plan_even_adaptive(
        &self,
        ctx: &Context,
        parallel: ParallelConfig,
    ) -> Result<Vec<StagePlan>, PlanError> {
        // Only p windows are queried here; prefill overhead would exceed
        // the work, so the even ablation gets the subcache but no pool.
        let provider = self.adaptive_provider(ctx);
        let ranges = ctx.seq.even_partition(parallel.pipeline());
        self.materialize_adaptive(ctx, parallel, &provider, &ranges)
    }

    fn materialize_adaptive(
        &self,
        ctx: &Context,
        parallel: ParallelConfig,
        provider: &KnapsackCostProvider<'_>,
        ranges: &[LayerRange],
    ) -> Result<Vec<StagePlan>, PlanError> {
        let _span = self.rec.span_cat(keys::SPAN_PLAN_MATERIALIZE, "planner");
        // Materialize-boundary self-check: Algorithm 1 (and the even
        // ablation) must hand over a contiguous, monotone cover of the
        // layer sequence before any stage is committed.
        #[cfg(debug_assertions)]
        {
            let diags = adapipe_check::check_partition(ranges, ctx.seq.len());
            debug_assert!(
                diags.is_empty(),
                "partitioning produced an invalid layer cover: {diags:?}"
            );
        }
        let mut stages = Vec::with_capacity(ranges.len());
        for (s, &range) in ranges.iter().enumerate() {
            let opt = provider.optimize_stage(s, range)?;
            let units = ctx.table.units_in(range);
            let buffer = strategy::buffer_bytes_of(&units, &opt.strategy);
            let live = f1b_live_microbatches(parallel.pipeline(), s) as u64;
            stages.push(StagePlan {
                range,
                memory: StageMemory {
                    static_bytes: ctx.mem.static_bytes(&ctx.seq, range),
                    buffer_bytes: buffer,
                    intermediate_bytes: live * opt.cost.saved_bytes_per_mb,
                },
                strategy: opt.strategy,
                cost: opt.cost,
            });
        }
        Ok(stages)
    }

    /// Non-adaptive baselines: even partition + full/no recomputation.
    /// Interleaved methods partition into `p · v` virtual-stage chunks;
    /// chunk `vs` runs on device `vs % p`.
    fn plan_fixed(
        &self,
        ctx: &Context,
        parallel: ParallelConfig,
        method: Method,
    ) -> Vec<StagePlan> {
        let p = parallel.pipeline();
        let vp = p * method.virtual_chunks();
        let ranges = ctx.seq.even_partition(vp);
        ranges
            .iter()
            .enumerate()
            .map(|(s, &range)| {
                let units = ctx.table.units_in(range);
                let strat: RecomputeStrategy = if method.saves_everything() {
                    strategy::none(&units)
                } else if method == Method::DappleSelective {
                    strategy::selective(&units)
                } else {
                    strategy::full(&units)
                };
                let cost = strategy::cost_of(&units, &strat);
                let buffer = strategy::buffer_bytes_of(&units, &strat);
                // Live micro-batch counts: p − s for 1F1B; all n for
                // GPipe; Chimera holds both directions' activations with
                // a direction-dependent profile — we charge the analytic
                // worst case here and let the simulator refine it.
                let live = method.live_microbatches(p, s, ctx.n) as u64;
                StagePlan {
                    range,
                    memory: StageMemory {
                        static_bytes: expected_static_bytes(ctx, method, &ranges, s),
                        buffer_bytes: buffer,
                        intermediate_bytes: live * cost.saved_bytes_per_mb,
                    },
                    strategy: strat,
                    cost,
                }
            })
            .collect()
    }

    /// Derives throughput metrics (tokens/s, MFU) from an evaluation.
    ///
    /// MFU counts only *useful* math (the standard `6 · params · tokens`
    /// forward+backward estimate), so recomputation-heavy plans report
    /// lower utilization even when their devices are equally busy —
    /// which is exactly the waste AdaPipe removes.
    #[must_use]
    pub fn throughput(&self, plan: &Plan, eval: &Evaluation) -> Throughput {
        let tokens = plan.train.tokens_per_iteration() as f64;
        let devices = plan.parallel.devices() as f64;
        let useful_flops = Flops::new(6.0 * self.model.total_params() as f64 * tokens);
        let peak: FlopsPerSec = self.cluster.device().peak_flops() * devices;
        Throughput {
            tokens_per_second: tokens / eval.iteration_time.as_secs(),
            mfu: useful_flops / (eval.iteration_time * peak),
        }
    }

    /// Builds the task graph `plan` would execute — the same graph
    /// [`Planner::evaluate`] simulates and the verifier checks
    /// statically, on one code path so they cannot drift.
    ///
    /// # Panics
    ///
    /// Panics if the plan violates its schedule's preconditions (fewer
    /// micro-batches than stages for 1F1B, odd pipelines for Chimera);
    /// [`Planner::verify`](crate::Planner::verify) reports those as
    /// diagnostics instead.
    pub(crate) fn build_schedule(&self, plan: &Plan, ctx: &Context) -> adapipe_sim::TaskGraph {
        let p = plan.parallel.pipeline();
        let execs: Vec<StageExec> = plan
            .stages
            .iter()
            .map(|s| StageExec {
                time_f: s.cost.time_f,
                time_b: s.cost.time_b,
                saved_bytes: s.cost.saved_bytes_per_mb,
                buffer_bytes: s.memory.buffer_bytes,
            })
            .collect();
        let p2p = self.cluster.p2p_time(ctx.table.boundary_bytes());
        match plan.method {
            Method::GpipeFull | Method::GpipeNone => schedule::gpipe(&execs, ctx.n, p2p),
            Method::ChimeraFull | Method::ChimeraNone => {
                schedule::chimera(&execs, ctx.n, p2p, false)
            }
            Method::ChimeraDFull | Method::ChimeraDNone => {
                schedule::chimera(&execs, ctx.n, p2p, true)
            }
            Method::InterleavedFull | Method::InterleavedNone => {
                schedule::interleaved(&execs, p, ctx.n, p2p)
            }
            _ => schedule::one_f_one_b(&execs, ctx.n, p2p),
        }
    }

    /// Executes `plan` on the discrete-event simulator and reports what
    /// the paper measures: iteration time, per-device peak memory and
    /// whether the plan fits the devices.
    ///
    /// # Panics
    ///
    /// Panics if the plan's stage count does not match its parallel
    /// configuration (corrupted plan), or if the generated schedule
    /// deadlocks (a schedule-generator bug).
    #[must_use]
    pub fn evaluate(&self, plan: &Plan) -> Evaluation {
        let _span = self
            .rec
            .span_cat(keys::SPAN_EVALUATE, "planner")
            .with_arg("method", &plan.method);
        let ctx = self.context(plan.parallel, plan.train);
        let p = plan.parallel.pipeline();
        let vp = p * plan.method.virtual_chunks();
        assert_eq!(plan.stages.len(), vp, "plan stage count mismatch");

        let graph = self.build_schedule(plan, &ctx);
        // Evaluate-boundary self-check: the generated task graph must be
        // statically executable (acyclic, fixed-order-feasible) before
        // the engine runs it — the engine's own deadlock panic fires too
        // late to say *why*.
        #[cfg(debug_assertions)]
        {
            let diags = adapipe_check::check_task_graph(&graph);
            debug_assert!(
                diags.is_empty(),
                "schedule generator emitted an invalid task graph: {diags:?}"
            );
        }
        let mut report = {
            let _span = self.rec.span_cat(keys::SPAN_EVALUATE_SIMULATE, "planner");
            match simulate(&graph, &self.rec) {
                Ok(report) => report,
                // lint: allow(panic): the shipped schedule generators never
                // emit a cyclic graph, so a deadlock here is a generator
                // bug, not a property of the plan; `chaos` maps it to a
                // typed error for fault-injected graphs instead.
                Err(e) => panic!("{e}"),
            }
        };

        // End-of-iteration gradient all-reduce across the data-parallel
        // group (the heaviest stage's gradients bound the synchronization).
        if plan.parallel.data() > 1 {
            let grad_bytes = plan
                .stages
                .iter()
                .map(|st| {
                    Bytes::new(
                        self.model.range_params(&ctx.seq, st.range)
                            * self.model.dtype_bytes() as u64
                            / plan.parallel.tensor() as u64,
                    )
                })
                .max()
                .unwrap_or(Bytes::ZERO);
            report.makespan += self
                .cluster
                .grad_allreduce_time(grad_bytes, plan.parallel.data());
        }

        let capacity = self.capacity();
        let peaks: Vec<Bytes> = report
            .devices
            .iter()
            .enumerate()
            .map(|(dev, d)| {
                // A device's static memory sums over every chunk it
                // hosts (one for plain pipelines, v for interleaved;
                // Chimera's replica pair is already folded into each
                // stage's static_bytes).
                let static_bytes: Bytes = plan
                    .stages
                    .iter()
                    .enumerate()
                    .filter(|(vs, _)| vs % p == dev)
                    .map(|(_, st)| st.memory.static_bytes)
                    .sum();
                static_bytes.saturating_add(d.peak_dynamic_bytes)
            })
            .collect();
        let fits = peaks.iter().all(|&b| b.fits(capacity));
        Evaluation {
            iteration_time: report.makespan,
            peak_bytes_per_device: peaks,
            capacity,
            fits,
            report,
        }
    }
}

/// Static bytes hosted for stage `s` of a `method` plan over `ranges`.
/// For Chimera each device hosts two stages — stage `s` of the down
/// pipeline and stage `p − 1 − s` of the up pipeline. Parameters and
/// gradients are replicated, but the two replicas form a data-parallel
/// pair, so ZeRO shards the optimizer states across them.
///
/// Shared between plan materialization and the verifier so the
/// memory-accounting check is exact by construction.
pub(crate) fn expected_static_bytes(
    ctx: &Context,
    method: Method,
    ranges: &[LayerRange],
    s: usize,
) -> Bytes {
    let range = ranges[s];
    if method.is_chimera() {
        let p = ranges.len();
        let (pg_a, opt_a) = ctx.mem.static_bytes_split(&ctx.seq, range);
        let (pg_b, opt_b) = ctx.mem.static_bytes_split(&ctx.seq, ranges[p - 1 - s]);
        pg_a.saturating_add(pg_b)
            .saturating_add(opt_a.saturating_add(opt_b) / 2)
    } else {
        ctx.mem.static_bytes(&ctx.seq, range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_hw::presets as hw;
    use adapipe_model::presets;
    use adapipe_units::MicroSecs;

    fn small() -> Result<(Planner, ParallelConfig, TrainConfig), PlanError> {
        Ok((
            Planner::new(presets::gpt2_small(), hw::cluster_a()),
            ParallelConfig::new(2, 4, 1)?,
            TrainConfig::new(1, 1024, 32)?,
        ))
    }

    #[test]
    fn adapipe_beats_or_ties_every_feasible_baseline() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let ada = planner.plan(Method::AdaPipe, parallel, train)?;
        let ada_t = planner.evaluate(&ada).iteration_time;
        for m in [Method::DappleFull, Method::EvenPartitioning] {
            let base = planner.plan(m, parallel, train)?;
            let t = planner.evaluate(&base).iteration_time;
            assert!(ada_t <= t * 1.0001, "{m}: adapipe {ada_t} vs {t}");
        }
        Ok(())
    }

    #[test]
    fn plans_have_valid_partitions() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        for m in Method::all() {
            let Ok(plan) = planner.plan(m, parallel, train) else {
                continue;
            };
            let seq = LayerSeq::for_model(planner.model());
            assert!(seq.is_valid_partition(&plan.ranges()), "{m}");
        }
        Ok(())
    }

    #[test]
    fn dapple_full_and_none_bracket_adaptive_backward_time() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let full = planner.plan(Method::DappleFull, parallel, train)?;
        let none = planner.plan(Method::DappleNone, parallel, train)?;
        let even = planner.plan(Method::EvenPartitioning, parallel, train)?;
        for s in 0..4 {
            let b = even.stages[s].cost.time_b;
            assert!(b <= full.stages[s].cost.time_b + MicroSecs::new(1e-6));
            assert!(b >= none.stages[s].cost.time_b - MicroSecs::new(1e-6));
        }
        Ok(())
    }

    #[test]
    fn saved_units_grow_along_the_pipeline() -> Result<(), PlanError> {
        // Table 4's monotone pattern under its own setting: GPT-3,
        // sequence 16384, (t, p, d) = (8, 8, 1). Later stages hold fewer
        // in-flight micro-batches and save more units.
        let planner = Planner::new(presets::gpt3_175b(), hw::cluster_a());
        let parallel = ParallelConfig::new(8, 8, 1)?;
        let train = TrainConfig::new(1, 16384, 32)?;
        let even = planner.plan(Method::EvenPartitioning, parallel, train)?;
        let saved = even.saved_units_per_stage();
        // Interior stages are structurally identical (the first/last also
        // carry embedding/head), so compare stages 1..=6.
        for w in saved[1..7].windows(2) {
            assert!(w[0] <= w[1], "saved units {saved:?}");
        }
        // And the first stage saves strictly less than the last interior
        // stage — the imbalance AdaPipe exploits.
        assert!(saved[1] < saved[6], "saved units {saved:?}");
        Ok(())
    }

    #[test]
    fn cross_node_tensor_parallelism_is_rejected() -> Result<(), PlanError> {
        let planner = Planner::new(presets::gpt2_small(), hw::cluster_a());
        let parallel = ParallelConfig::new(16, 2, 1)?;
        let train = TrainConfig::new(1, 1024, 32)?;
        assert!(matches!(
            planner.plan(Method::DappleFull, parallel, train),
            Err(PlanError::Unsupported { .. })
        ));
        Ok(())
    }

    #[test]
    fn data_parallel_sync_adds_iteration_time() -> Result<(), PlanError> {
        // Same per-replica work (n held fixed), but d=2 pays a gradient
        // all-reduce at the end of the iteration.
        let planner = Planner::new(presets::gpt2_small(), hw::cluster_a());
        let t1 = {
            let parallel = ParallelConfig::new(2, 4, 1)?;
            let train = TrainConfig::new(1, 1024, 32)?;
            let plan = planner.plan(Method::DappleFull, parallel, train)?;
            planner.evaluate(&plan).iteration_time
        };
        let t2 = {
            let parallel = ParallelConfig::new(2, 4, 2)?;
            let train = TrainConfig::new(1, 1024, 64)?; // same n = 32
            let plan = planner.plan(Method::DappleFull, parallel, train)?;
            planner.evaluate(&plan).iteration_time
        };
        assert!(t2 > t1, "d=2 {t2} should exceed d=1 {t1}");
        Ok(())
    }

    #[test]
    fn chimera_requires_even_pipeline() -> Result<(), PlanError> {
        let planner = Planner::new(presets::gpt2_small(), hw::cluster_a());
        let parallel = ParallelConfig::new(2, 3, 1)?;
        let train = TrainConfig::new(1, 1024, 30)?;
        assert!(matches!(
            planner.plan(Method::ChimeraFull, parallel, train),
            Err(PlanError::Unsupported { .. })
        ));
        Ok(())
    }

    #[test]
    fn chimera_static_memory_is_doubled() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let dapple = planner.plan(Method::DappleFull, parallel, train)?;
        let chimera = planner.plan(Method::ChimeraFull, parallel, train)?;
        for s in 0..4 {
            assert!(chimera.stages[s].memory.static_bytes > dapple.stages[s].memory.static_bytes);
        }
        Ok(())
    }

    #[test]
    fn invalid_train_config_is_rejected() -> Result<(), PlanError> {
        let (planner, parallel, _) = small()?;
        let train = TrainConfig::new(1, 1024, 3)?; // n < p
        assert!(matches!(
            planner.plan(Method::AdaPipe, parallel, train),
            Err(PlanError::Config(_))
        ));
        Ok(())
    }

    #[test]
    fn throughput_metrics_are_sane_and_favor_less_recomputation() -> Result<(), PlanError> {
        let (planner, parallel, train) = small()?;
        let full = planner.plan(Method::DappleFull, parallel, train)?;
        let none = planner.plan(Method::DappleNone, parallel, train)?;
        let tf = planner.throughput(&full, &planner.evaluate(&full));
        let tn = planner.throughput(&none, &planner.evaluate(&none));
        for t in [tf, tn] {
            assert!(t.tokens_per_second > 0.0);
            assert!(t.mfu > 0.0 && t.mfu < 1.0, "mfu {}", t.mfu);
        }
        // Same useful math, shorter iteration: no-recompute wins MFU.
        assert!(tn.mfu > tf.mfu);
        assert!(tn.tokens_per_second > tf.tokens_per_second);
        Ok(())
    }

    #[test]
    fn evaluation_matches_analytic_model_for_1f1b() -> Result<(), PlanError> {
        // The discrete-event simulator and the Equation (3) cost model
        // must agree (up to P2P delays, which the analytic model folds
        // away at zero).
        let (planner, parallel, train) = small()?;
        let plan = planner.plan(Method::DappleFull, parallel, train)?;
        let eval = planner.evaluate(&plan);
        let analytic = plan.predicted_time().ok_or(PlanError::Unsupported {
            reason: "plan has no analytic prediction".to_string(),
        })?;
        let rel = (eval.iteration_time - analytic).abs() / analytic;
        assert!(
            rel < 0.05,
            "sim {} vs analytic {analytic}",
            eval.iteration_time
        );
        Ok(())
    }
}
