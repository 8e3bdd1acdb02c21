use crate::optimizer::OptimizerSpec;
use adapipe_model::{LayerRange, LayerSeq, ModelSpec, ParallelConfig};
use adapipe_profiler::ProfileTable;
use adapipe_units::{convert, Bytes};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of micro-batches whose activations stage `s` (0-based) of a
/// `p`-stage 1F1B pipeline holds simultaneously: `p − s` (§2.1).
///
/// # Panics
///
/// Panics if `stage >= pipeline`.
#[must_use]
pub fn f1b_live_microbatches(pipeline: usize, stage: usize) -> usize {
    assert!(
        stage < pipeline,
        "stage {stage} out of range for p={pipeline}"
    );
    pipeline - stage
}

/// Full memory breakdown of one pipeline stage on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageMemory {
    /// Parameters + gradients + ZeRO-sharded optimizer states.
    pub static_bytes: Bytes,
    /// Recompute buffer: intermediates of one decoder layer (§4.2).
    pub buffer_bytes: Bytes,
    /// Saved intermediates: per-micro-batch saved bytes times the number
    /// of live micro-batches.
    pub intermediate_bytes: Bytes,
}

impl StageMemory {
    /// Total bytes used on the device.
    #[must_use]
    pub fn total(&self) -> Bytes {
        self.static_bytes
            .saturating_add(self.buffer_bytes)
            .saturating_add(self.intermediate_bytes)
    }

    /// Whether the stage fits in `capacity`.
    #[must_use]
    pub fn fits(&self, capacity: Bytes) -> bool {
        self.total().fits(capacity)
    }
}

impl fmt::Display for StageMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static {:.2} GB + buffer {:.2} GB + intermediates {:.2} GB = {:.2} GB",
            self.static_bytes.as_f64() / 1e9,
            self.buffer_bytes.as_f64() / 1e9,
            self.intermediate_bytes.as_f64() / 1e9,
            self.total().as_f64() / 1e9,
        )
    }
}

/// The §4.2 memory model: computes static memory, recompute buffers and
/// the activation budget handed to the recomputation knapsack.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    model: ModelSpec,
    parallel: ParallelConfig,
    optimizer: OptimizerSpec,
}

impl MemoryModel {
    /// Creates a memory model for `model` trained under `parallel` with
    /// `optimizer`.
    #[must_use]
    pub fn new(model: ModelSpec, parallel: ParallelConfig, optimizer: OptimizerSpec) -> Self {
        MemoryModel {
            model,
            parallel,
            optimizer,
        }
    }

    /// The model being described.
    #[must_use]
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    /// The parallel configuration.
    #[must_use]
    pub fn parallel(&self) -> &ParallelConfig {
        &self.parallel
    }

    /// The optimizer memory description.
    #[must_use]
    pub fn optimizer(&self) -> OptimizerSpec {
        self.optimizer
    }

    /// Static bytes for a stage holding the layers of `range`:
    /// `params·dtype/t + params·grad_bytes/t + params·(state+master)/(t·d)`.
    #[must_use]
    pub fn static_bytes(&self, seq: &LayerSeq, range: LayerRange) -> Bytes {
        let (pg, opt) = self.static_bytes_split(seq, range);
        pg.saturating_add(opt)
    }

    /// Static bytes split into the replicated part (parameters +
    /// gradients) and the ZeRO-sharded part (optimizer states + master
    /// copy). Bidirectional schedules like Chimera replicate the former
    /// per hosted pipeline but shard the latter across the replica pair.
    #[must_use]
    pub fn static_bytes_split(&self, seq: &LayerSeq, range: LayerRange) -> (Bytes, Bytes) {
        let n = self.model.range_params(seq, range);
        let t = convert::usize_u64(self.parallel.tensor());
        let d = convert::usize_u64(self.parallel.data());
        let params = n * convert::usize_u64(self.model.dtype_bytes()) / t;
        let grads = n * self.optimizer.grad_bytes_per_param / t;
        let opt = n
            * (self.optimizer.state_bytes_per_param + self.optimizer.master_bytes_per_param)
            / (t * d);
        (Bytes::new(params + grads), Bytes::new(opt))
    }

    /// The per-micro-batch activation budget the recomputation knapsack
    /// may spend for stage `stage` holding `range`, under device capacity
    /// `capacity`: `(capacity − static − buffer) / (p − s)`.
    ///
    /// Returns `None` when static memory plus the recompute buffer already
    /// exceed the capacity — the stage cannot run at all (the OOM cases in
    /// Table 3) — or when `stage` is not a stage of the pipeline.
    #[must_use]
    pub fn activation_budget(
        &self,
        table: &ProfileTable,
        seq: &LayerSeq,
        range: LayerRange,
        stage: usize,
        capacity: Bytes,
    ) -> Option<Bytes> {
        if stage >= self.parallel.pipeline() {
            return None;
        }
        let fixed = self
            .static_bytes(seq, range)
            .saturating_add(table.recompute_buffer_bytes(range));
        let free = capacity.checked_sub(fixed)?;
        let live = convert::usize_u64(f1b_live_microbatches(self.parallel.pipeline(), stage));
        Some(free / live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, TrainConfig};
    use adapipe_profiler::Profiler;

    fn setup() -> (ModelSpec, ParallelConfig, ProfileTable, LayerSeq) {
        let model = presets::gpt3_175b();
        let parallel = ParallelConfig::new(8, 8, 1).unwrap();
        let train = TrainConfig::new(1, 4096, 128).unwrap();
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        let seq = LayerSeq::for_model(&model);
        (model, parallel, table, seq)
    }

    #[test]
    fn live_microbatches_decrease_along_pipeline() {
        assert_eq!(f1b_live_microbatches(8, 0), 8);
        assert_eq!(f1b_live_microbatches(8, 7), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn live_microbatches_rejects_bad_stage() {
        let _ = f1b_live_microbatches(4, 4);
    }

    #[test]
    fn gpt3_static_memory_matches_back_of_envelope() {
        // A GPT-3 stage of 12 decoder blocks at t=8, d=1 holds ~2.7B
        // params/device: 5.5 GB params + 5.5 GB grads + 33 GB optimizer.
        let (_, parallel, _, seq) = setup();
        let mem = MemoryModel::new(presets::gpt3_175b(), parallel, OptimizerSpec::adam_fp32());
        let parts = seq.even_partition(8);
        let gb = mem.static_bytes(&seq, parts[3]).as_f64() / 1e9;
        assert!((35.0..55.0).contains(&gb), "static = {gb:.1} GB");
    }

    #[test]
    fn budget_shrinks_for_earlier_stages() {
        let (model, parallel, table, seq) = setup();
        let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
        let range = seq.even_partition(8)[3];
        let cap = Bytes::from_gib(80);
        let b0 = mem.activation_budget(&table, &seq, range, 0, cap).unwrap();
        let b7 = mem.activation_budget(&table, &seq, range, 7, cap).unwrap();
        assert!(b0 < b7);
        assert_eq!(b0 * 8, Bytes::new(b7.get() - b7.get() % 8));
    }

    #[test]
    fn budget_none_when_static_exceeds_capacity() {
        let (model, parallel, table, seq) = setup();
        let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
        let whole = LayerRange::new(0, seq.len() - 1);
        assert!(mem
            .activation_budget(&table, &seq, whole, 0, Bytes::from_gib(8))
            .is_none());
    }

    #[test]
    fn budget_none_for_a_stage_past_the_pipeline() {
        let (model, parallel, table, seq) = setup();
        let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
        let range = seq.even_partition(8)[3];
        assert!(mem
            .activation_budget(&table, &seq, range, 8, Bytes::from_gib(80))
            .is_none());
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let bd = StageMemory {
            static_bytes: Bytes::new(5),
            buffer_bytes: Bytes::new(7),
            intermediate_bytes: Bytes::new(8 * 123_456_789),
        };
        assert_eq!(bd.total(), Bytes::new(12 + 8 * 123_456_789));
        assert!(bd.fits(bd.total()) && bd.fits(Bytes::new(u64::MAX)));
        assert!(!bd.fits(Bytes::new(bd.total().get() - 1)));
    }

    #[test]
    fn split_static_parts_sum_to_total() {
        let (model, parallel, _, seq) = setup();
        let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
        for range in seq.even_partition(8) {
            let (pg, opt) = mem.static_bytes_split(&seq, range);
            assert_eq!(pg.saturating_add(opt), mem.static_bytes(&seq, range));
            assert!(pg > Bytes::ZERO && opt > Bytes::ZERO);
        }
    }

    #[test]
    fn zero2_style_sharding_reduces_optimizer_share() {
        let (model, _, _, seq) = setup();
        let p1 = ParallelConfig::new(8, 8, 1).unwrap();
        let p4 = ParallelConfig::new(8, 8, 4).unwrap();
        let m1 = MemoryModel::new(model.clone(), p1, OptimizerSpec::adam_fp32());
        let m4 = MemoryModel::new(model, p4, OptimizerSpec::adam_fp32());
        let range = seq.even_partition(8)[0];
        assert!(m4.static_bytes(&seq, range) < m1.static_bytes(&seq, range));
    }
}
