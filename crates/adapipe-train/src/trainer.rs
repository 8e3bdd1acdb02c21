// lint: allow-file(index): worker threads and their channels are created
// together in Trainer::new.
#![expect(
    clippy::expect_used,
    reason = "worker threads and their channels are created together in Trainer::new; \
              send/recv can only fail if a thread panicked, which the trainer surfaces \
              by propagating the panic"
)]

use crate::data::SyntheticCorpus;
use crate::pipeline::train_iteration_with;
use crate::stage::StageModule;
use crate::units::{build_layer_units, init_rng, Optimizer, TinyDims, UnitModule};
use adapipe_model::{LayerSeq, ModelSpec};

/// Learning-rate schedule for the miniature trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// The configured rate at every step.
    Constant,
    /// Linear warmup over `warmup` steps, then cosine decay to
    /// `floor · lr` at the final step — the schedule large-model
    /// pretraining jobs run.
    WarmupCosine {
        /// Warmup steps.
        warmup: usize,
        /// Final rate as a fraction of the peak.
        floor: f32,
    },
}

impl LrSchedule {
    /// The rate at 0-based `step` of `total` steps, given peak `lr`.
    #[must_use]
    pub fn rate(&self, lr: f32, step: usize, total: usize) -> f32 {
        match *self {
            LrSchedule::Constant => lr,
            LrSchedule::WarmupCosine { warmup, floor } => {
                if step < warmup {
                    lr * (step + 1) as f32 / warmup as f32
                } else if total <= warmup + 1 {
                    lr
                } else {
                    let progress = (step - warmup) as f32 / (total - warmup - 1).max(1) as f32;
                    let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
                    lr * (floor + (1.0 - floor) * cos)
                }
            }
        }
    }
}

/// How each stage decides what to save.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecomputeMode {
    /// Save only pinned layer outputs (full recomputation).
    Full,
    /// Save every unit output (no recomputation).
    None,
    /// Explicit per-stage, per-unit saved flags — e.g. materialized from
    /// an AdaPipe [`RecomputeStrategy`](adapipe_recompute::RecomputeStrategy).
    Adaptive(Vec<Vec<bool>>),
}

/// Configuration of a miniature pipeline-parallel training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerConfig {
    /// Model dimensions.
    pub dims: TinyDims,
    /// Number of decoder blocks.
    pub decoder_layers: usize,
    /// Pipeline stages.
    pub stages: usize,
    /// Tokens per micro-batch (micro-batch size is 1 sequence).
    pub seq_len: usize,
    /// Micro-batches per iteration.
    pub micro_batches: usize,
    /// Training iterations.
    pub steps: usize,
    /// SGD learning rate (ignored when `adam` is set).
    pub lr: f32,
    /// Use Adam instead of SGD.
    pub adam: bool,
    /// Learning-rate schedule applied on top of `lr`.
    pub schedule: LrSchedule,
    /// Seed for init and data.
    pub seed: u64,
    /// Recomputation mode.
    pub mode: RecomputeMode,
    /// Stage boundaries as layer ranges over the flat layer sequence
    /// (`None` = even partition).
    pub partition: Option<Vec<(usize, usize)>>,
}

impl TrainerConfig {
    /// A configuration small enough for unit tests (fractions of a
    /// second per run).
    #[must_use]
    pub fn tiny_for_tests() -> Self {
        TrainerConfig {
            dims: TinyDims {
                hidden: 16,
                heads: 2,
                kv_heads: 2,
                ffn_hidden: 32,
                vocab: 32,
                max_seq: 8,
                swiglu: false,
                dropout: 0.0,
            },
            decoder_layers: 2,
            stages: 2,
            seq_len: 8,
            micro_batches: 2,
            steps: 3,
            lr: 0.05,
            adam: false,
            schedule: LrSchedule::Constant,
            seed: 1234,
            mode: RecomputeMode::Full,
            partition: None,
        }
    }

    /// Same run with full recomputation.
    #[must_use]
    pub fn with_full_recompute(&self) -> Self {
        TrainerConfig {
            mode: RecomputeMode::Full,
            ..self.clone()
        }
    }

    /// Same run with no recomputation.
    #[must_use]
    pub fn with_no_recompute(&self) -> Self {
        TrainerConfig {
            mode: RecomputeMode::None,
            ..self.clone()
        }
    }

    /// Same run with explicit per-stage saved flags.
    #[must_use]
    pub fn with_adaptive(&self, flags: Vec<Vec<bool>>) -> Self {
        TrainerConfig {
            mode: RecomputeMode::Adaptive(flags),
            ..self.clone()
        }
    }

    /// Same run with explicit stage boundaries (inclusive layer ranges
    /// over `[Embedding, (Attn, Ffn)×L, Head]`).
    #[must_use]
    pub fn with_partition(&self, ranges: Vec<(usize, usize)>) -> Self {
        TrainerConfig {
            partition: Some(ranges),
            ..self.clone()
        }
    }

    /// The equivalent [`ModelSpec`], for driving the AdaPipe planner on
    /// the miniature model.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are inconsistent (zero fields).
    #[must_use]
    pub fn model_spec(&self) -> ModelSpec {
        let ffn = if self.dims.swiglu {
            adapipe_model::FfnKind::SwiGlu
        } else {
            adapipe_model::FfnKind::Gelu
        };
        ModelSpec::builder("tiny-train")
            .hidden(self.dims.hidden)
            .heads(self.dims.heads)
            .kv_heads(self.dims.kv_heads)
            .ffn_hidden(self.dims.ffn_hidden)
            .vocab(self.dims.vocab)
            .decoder_layers(self.decoder_layers)
            .ffn(ffn)
            .build()
            .expect("trainer dims are valid")
    }
}

/// The result of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per iteration, in order.
    pub losses: Vec<f32>,
}

impl TrainReport {
    /// Final loss.
    ///
    /// # Panics
    ///
    /// Panics if the run had zero steps.
    #[must_use]
    pub fn final_loss(&self) -> f32 {
        *self.losses.last().expect("at least one step")
    }
}

/// Runs a miniature pipeline-parallel training job.
///
/// Model initialization is a single seeded pass over the *whole* layer
/// sequence, independent of the partition — so runs that differ only in
/// stage boundaries or recomputation strategy start from bit-identical
/// parameters (and, since recomputation repeats identical kernels,
/// produce bit-identical losses; §7.5).
///
/// # Panics
///
/// Panics on inconsistent configuration (more stages than layers,
/// malformed partition or flags).
#[must_use]
pub fn train(cfg: &TrainerConfig) -> TrainReport {
    let spec = cfg.model_spec();
    let seq = LayerSeq::for_model(&spec);
    assert!(cfg.stages <= seq.len(), "more stages than layers");
    assert!(
        cfg.seq_len <= cfg.dims.max_seq,
        "seq_len {} exceeds the position table ({})",
        cfg.seq_len,
        cfg.dims.max_seq
    );

    // Build every layer's units in one deterministic pass.
    let mut rng = init_rng(cfg.seed);
    let mut per_layer: Vec<Vec<UnitModule>> = Vec::with_capacity(seq.len());
    for layer in seq.iter() {
        per_layer.push(build_layer_units(
            cfg.dims,
            layer.kind,
            layer.index,
            &mut rng,
        ));
    }

    // Stage boundaries.
    let ranges: Vec<(usize, usize)> = match &cfg.partition {
        Some(r) => {
            assert_eq!(r.len(), cfg.stages, "one range per stage");
            assert_eq!(r[0].0, 0, "partition must start at layer 0");
            assert_eq!(
                r[cfg.stages - 1].1,
                seq.len() - 1,
                "partition must end at the last layer"
            );
            for w in r.windows(2) {
                assert_eq!(w[1].0, w[0].1 + 1, "partition must be contiguous");
            }
            r.clone()
        }
        None => seq
            .even_partition(cfg.stages)
            .iter()
            .map(|lr| (lr.first, lr.last))
            .collect(),
    };

    // Assemble stages with their saved flags.
    let mut per_layer = per_layer.into_iter().map(Some).collect::<Vec<_>>();
    let mut stages: Vec<StageModule> = Vec::with_capacity(cfg.stages);
    for (s, &(first, last)) in ranges.iter().enumerate() {
        let mut units = Vec::new();
        for slot in &mut per_layer[first..=last] {
            units.extend(slot.take().expect("each layer assigned once"));
        }
        let saved: Vec<bool> = match &cfg.mode {
            RecomputeMode::Full => units.iter().map(UnitModule::is_pinned).collect(),
            RecomputeMode::None => vec![true; units.len()],
            RecomputeMode::Adaptive(flags) => {
                assert_eq!(flags.len(), cfg.stages, "one flag vector per stage");
                assert_eq!(
                    flags[s].len(),
                    units.len(),
                    "one flag per unit in stage {s}"
                );
                flags[s].clone()
            }
        };
        stages.push(StageModule::new(
            units,
            saved,
            cfg.dims.heads,
            cfg.dims.kv_heads,
            cfg.dims.dropout,
        ));
    }

    // Data and the training loop.
    let corpus = SyntheticCorpus::new(cfg.dims.vocab, 4 * cfg.seq_len, 0.02, cfg.seed ^ 0xDA7A);
    let opt = if cfg.adam {
        Optimizer::adam(cfg.lr)
    } else {
        Optimizer::Sgd { lr: cfg.lr }
    };
    let mut losses = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        let batches: Vec<(Vec<usize>, Vec<usize>)> = (0..cfg.micro_batches)
            .map(|m| corpus.batch(step, m, cfg.seq_len))
            .collect();
        losses.push(train_iteration_with(&mut stages, &batches, opt, step));
    }
    TrainReport { losses }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn losses_are_bit_identical_across_recompute_modes() {
        let cfg = TrainerConfig::tiny_for_tests();
        let full = train(&cfg.with_full_recompute());
        let none = train(&cfg.with_no_recompute());
        assert_eq!(full.losses, none.losses);
    }

    #[test]
    fn losses_are_bit_identical_across_partitions() {
        // Even [0..=2][3..=5] vs skewed [0..=1][2..=5]: same math, same
        // losses (§7.5 — the paper attributes its curve differences to
        // initialization, which we hold fixed).
        let cfg = TrainerConfig::tiny_for_tests();
        let even = train(&cfg);
        let skewed = train(&cfg.with_partition(vec![(0, 1), (2, 5)]));
        assert_eq!(even.losses, skewed.losses);
    }

    #[test]
    fn loss_decreases_over_training() {
        let mut cfg = TrainerConfig::tiny_for_tests();
        cfg.steps = 12;
        let report = train(&cfg);
        let early: f32 = report.losses[..3].iter().sum::<f32>() / 3.0;
        let late: f32 = report.losses[report.losses.len() - 3..].iter().sum::<f32>() / 3.0;
        assert!(late < early, "no learning: {:?}", report.losses);
    }

    #[test]
    fn adaptive_flags_must_cover_every_unit() {
        let cfg = TrainerConfig::tiny_for_tests();
        // Stage unit counts: [emb + attn + ffn] = 11, [attn + ffn + head] = 11.
        let spec = cfg.model_spec();
        let seq = LayerSeq::for_model(&spec);
        assert_eq!(seq.len(), 6);
        let flags = vec![vec![true; 11], vec![true; 11]];
        let report = train(&cfg.with_adaptive(flags));
        assert_eq!(report.losses.len(), cfg.steps);
    }

    #[test]
    fn adam_trains_and_is_recompute_invariant() {
        let mut cfg = TrainerConfig::tiny_for_tests();
        cfg.adam = true;
        cfg.lr = 0.01;
        cfg.steps = 8;
        let full = train(&cfg.with_full_recompute());
        let none = train(&cfg.with_no_recompute());
        assert_eq!(full.losses, none.losses);
        assert!(full.final_loss() < full.losses[0], "{:?}", full.losses);
    }

    #[test]
    fn dropout_training_is_recompute_invariant() {
        // The crux: dropout masks must replay identically when units are
        // recomputed, or gradients (and training) silently diverge.
        let mut cfg = TrainerConfig::tiny_for_tests();
        cfg.dims.dropout = 0.2;
        cfg.steps = 5;
        let full = train(&cfg.with_full_recompute());
        let none = train(&cfg.with_no_recompute());
        assert_eq!(full.losses, none.losses);
    }

    #[test]
    fn swiglu_gqa_model_trains_end_to_end() {
        let mut cfg = TrainerConfig::tiny_for_tests();
        cfg.dims.swiglu = true;
        cfg.dims.kv_heads = 1;
        cfg.steps = 10;
        cfg.lr = 0.05;
        let full = train(&cfg.with_full_recompute());
        let none = train(&cfg.with_no_recompute());
        assert_eq!(full.losses, none.losses);
        let early: f32 = full.losses[..3].iter().sum::<f32>() / 3.0;
        let late: f32 = full.losses[full.losses.len() - 3..].iter().sum::<f32>() / 3.0;
        assert!(
            late < early,
            "swiglu model did not learn: {:?}",
            full.losses
        );
    }

    #[test]
    fn warmup_cosine_schedule_shapes_the_rate() {
        let sched = LrSchedule::WarmupCosine {
            warmup: 4,
            floor: 0.1,
        };
        let total = 20;
        // Ramps up...
        assert!(sched.rate(1.0, 0, total) < sched.rate(1.0, 3, total));
        assert!((sched.rate(1.0, 3, total) - 1.0).abs() < 1e-6);
        // ...then decays monotonically to the floor.
        let mut last = f32::INFINITY;
        for step in 4..total {
            let r = sched.rate(1.0, step, total);
            assert!(r <= last + 1e-6, "step {step}");
            last = r;
        }
        assert!((last - 0.1).abs() < 1e-5, "final {last}");
        assert_eq!(LrSchedule::Constant.rate(0.3, 7, total), 0.3);
    }

    #[test]
    fn scheduled_training_remains_recompute_invariant() {
        let mut cfg = TrainerConfig::tiny_for_tests();
        cfg.schedule = LrSchedule::WarmupCosine {
            warmup: 2,
            floor: 0.05,
        };
        cfg.steps = 6;
        let full = train(&cfg.with_full_recompute());
        let none = train(&cfg.with_no_recompute());
        assert_eq!(full.losses, none.losses);
    }

    #[test]
    fn different_seeds_give_different_curves() {
        let mut cfg = TrainerConfig::tiny_for_tests();
        let a = train(&cfg);
        cfg.seed = 999;
        let b = train(&cfg);
        assert_ne!(a.losses, b.losses);
    }
}
