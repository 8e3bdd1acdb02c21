// lint: allow-file(index): unit splits come from LayerUnits::new, which
// validates coverage; the fixed-shape [q, k, v] projections are indexed by
// construction.
//! Executable computation units: the same Figure 4 decomposition as
//! [`adapipe_model`], each unit owning its parameters and able to run its
//! forward pass on a fresh autograd tape.
//!
//! Unit boundaries are exactly where recomputation decisions apply: a
//! unit's *output* is either saved after the stage's forward pass or
//! rematerialized during backward. Residual connections always read from
//! *pinned* unit outputs (layer boundaries), so recomputation segments
//! stay linear chains.
//!
//! Both transformer flavours are supported: GeLU MLPs with classic
//! multi-head attention (GPT) and SwiGLU MLPs with grouped-query
//! attention (Llama). Output projections carry optional dropout whose
//! mask is counter-based — recomputation replays it exactly.

#![expect(
    clippy::expect_used,
    reason = "unit splits come from LayerUnits::new, which validates coverage"
)]

use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use adapipe_model::UnitKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Dimensions of the miniature transformer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TinyDims {
    /// Hidden width.
    pub hidden: usize,
    /// Attention (query) heads.
    pub heads: usize,
    /// Key/value heads (equal to `heads` for classic attention).
    pub kv_heads: usize,
    /// Feed-forward inner width.
    pub ffn_hidden: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (position table size).
    pub max_seq: usize,
    /// Whether the FFN is SwiGLU (Llama-style) instead of GeLU.
    pub swiglu: bool,
    /// Dropout rate on the attention and FFN output projections.
    pub dropout: f32,
}

impl TinyDims {
    /// Per-head dimension.
    #[must_use]
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Width of the K/V projections.
    #[must_use]
    pub fn kv_hidden(&self) -> usize {
        self.kv_heads * self.head_dim()
    }
}

/// Optimizer for the miniature trainer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Optimizer {
    /// Plain SGD.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Adam with bias correction.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Denominator epsilon.
        eps: f32,
    },
}

impl Optimizer {
    /// Adam with the customary defaults.
    #[must_use]
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

/// One executable unit: kind + parameters (+ optimizer state).
#[derive(Debug)]
pub struct UnitModule {
    /// Which Figure 4 unit this is.
    pub kind: UnitKind,
    /// Index of the parent layer in the model's layer sequence.
    pub layer: usize,
    /// Parameter tensors, in a fixed per-kind order.
    pub params: Vec<Tensor>,
    /// Gradient accumulators, same shapes as `params`.
    pub grads: Vec<Tensor>,
    /// Adam moments, lazily initialized on the first Adam step.
    moments: Option<Vec<(Tensor, Tensor)>>,
}

impl UnitModule {
    /// Whether this unit's output is pinned saved.
    #[must_use]
    pub fn is_pinned(&self) -> bool {
        self.kind.is_pinned()
    }

    /// Whether this unit adds a residual connection from the layer input
    /// (the output GEMMs of attention and feed-forward layers).
    #[must_use]
    pub fn has_residual(&self) -> bool {
        matches!(
            self.kind,
            UnitKind::OutProj | UnitKind::FfnFc2 | UnitKind::FfnDown
        )
    }

    /// Whether this unit applies output dropout.
    #[must_use]
    pub fn has_dropout(&self) -> bool {
        self.has_residual()
    }

    /// Zeroes the gradient accumulators.
    pub fn zero_grads(&mut self) {
        for g in &mut self.grads {
            g.scale_assign(0.0);
        }
    }

    /// One optimizer step over this unit's parameters; `scale` divides
    /// accumulated gradients (the micro-batch count) and `t` is the
    /// 1-based Adam timestep.
    pub fn optimizer_step(&mut self, opt: Optimizer, t: usize, scale: f32) {
        match opt {
            Optimizer::Sgd { lr } => self.sgd_step(lr, scale),
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                if self.moments.is_none() {
                    self.moments = Some(
                        self.params
                            .iter()
                            .map(|p| {
                                (
                                    Tensor::zeros(p.rows(), p.cols()),
                                    Tensor::zeros(p.rows(), p.cols()),
                                )
                            })
                            .collect(),
                    );
                }
                let moments = self.moments.as_mut().expect("just initialized");
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                for ((p, g), (m, v)) in self
                    .params
                    .iter_mut()
                    .zip(&self.grads)
                    .zip(moments.iter_mut())
                {
                    for i in 0..p.len() {
                        let grad = g.data()[i] / scale;
                        let mi = &mut m.data_mut()[i];
                        *mi = beta1 * *mi + (1.0 - beta1) * grad;
                        let vi = &mut v.data_mut()[i];
                        *vi = beta2 * *vi + (1.0 - beta2) * grad * grad;
                        let mhat = *mi / bc1;
                        let vhat = *vi / bc2;
                        p.data_mut()[i] -= lr * mhat / (vhat.sqrt() + eps);
                    }
                }
            }
        }
    }

    /// SGD step: `p -= lr * g / scale`.
    pub fn sgd_step(&mut self, lr: f32, scale: f32) {
        for (p, g) in self.params.iter_mut().zip(&self.grads) {
            for (pv, gv) in p.data_mut().iter_mut().zip(g.data()) {
                *pv -= lr * gv / scale;
            }
        }
    }

    /// Runs the unit forward on `tape`.
    ///
    /// `input` is the unit's primary input (ignored by `Embedding`, which
    /// reads `ids`); `residual` must be the parent layer's input for
    /// residual units; `dropout` is `(rate, key)` for units with output
    /// dropout (the key must be stable across recomputation). Returns
    /// `(param_vars, output_var)`.
    ///
    /// # Panics
    ///
    /// Panics if a required input is missing, or if called on the
    /// multi-input units (`CoreAttention`, `FfnActGated`) which use
    /// [`UnitModule::forward_attention`] / [`UnitModule::forward_gated`].
    pub fn forward(
        &self,
        tape: &mut Tape,
        input: Option<Var>,
        residual: Option<Var>,
        ids: Option<&[usize]>,
        dropout: Option<(f32, u64)>,
    ) -> (Vec<Var>, Var) {
        let pvars: Vec<Var> = self.params.iter().map(|p| tape.leaf(p.clone())).collect();
        let x = input;
        let out = match self.kind {
            UnitKind::Embedding => {
                let ids = ids.expect("embedding needs token ids");
                tape.embedding(pvars[0], pvars[1], ids)
            }
            UnitKind::AttnNorm | UnitKind::FfnNorm => {
                tape.layer_norm(x.expect("norm needs input"), pvars[0], pvars[1])
            }
            UnitKind::QProj
            | UnitKind::KProj
            | UnitKind::VProj
            | UnitKind::FfnFc1
            | UnitKind::FfnGate
            | UnitKind::FfnUp => {
                let y = tape.matmul(x.expect("projection needs input"), pvars[0]);
                tape.add_bias(y, pvars[1])
            }
            UnitKind::OutProj | UnitKind::FfnFc2 | UnitKind::FfnDown => {
                let y = tape.matmul(x.expect("projection needs input"), pvars[0]);
                let mut y = tape.add_bias(y, pvars[1]);
                if let Some((rate, key)) = dropout {
                    if rate > 0.0 {
                        y = tape.dropout(y, rate, key);
                    }
                }
                tape.add(y, residual.expect("output projection needs residual"))
            }
            UnitKind::FfnAct => tape.gelu(x.expect("activation needs input")),
            UnitKind::DecodingHead => {
                let n = tape.layer_norm(x.expect("head needs input"), pvars[0], pvars[1]);
                tape.matmul(n, pvars[2])
            }
            UnitKind::CoreAttention => unreachable!("CoreAttention uses forward_attention"),
            UnitKind::FfnActGated => unreachable!("FfnActGated uses forward_gated"),
        };
        (pvars, out)
    }

    /// Runs the fused (grouped-query) attention core.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-`CoreAttention` unit.
    pub fn forward_attention(
        &self,
        tape: &mut Tape,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        kv_heads: usize,
    ) -> Var {
        assert_eq!(self.kind, UnitKind::CoreAttention, "not an attention core");
        tape.causal_attention_gqa(q, k, v, heads, kv_heads)
    }

    /// Runs the gated SwiGLU activation: `silu(gate) ⊙ up`.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-`FfnActGated` unit.
    pub fn forward_gated(&self, tape: &mut Tape, gate: Var, up: Var) -> Var {
        assert_eq!(self.kind, UnitKind::FfnActGated, "not a gated activation");
        tape.silu_mul(gate, up)
    }

    /// Accumulates tape gradients of `pvars` into this unit's `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `pvars` does not match the parameter count.
    pub fn harvest_grads(&mut self, tape: &Tape, pvars: &[Var]) {
        assert_eq!(pvars.len(), self.grads.len(), "param var count mismatch");
        for (g, &v) in self.grads.iter_mut().zip(pvars) {
            g.add_assign(&tape.grad(v));
        }
    }
}

/// Builds the unit modules of one layer `kind` with small random
/// initialization (seeded; the same seed reproduces the same model).
#[must_use]
pub fn build_layer_units(
    dims: TinyDims,
    kind: adapipe_model::LayerKind,
    layer: usize,
    rng: &mut StdRng,
) -> Vec<UnitModule> {
    use adapipe_model::LayerKind;
    let h = dims.hidden;
    let f = dims.ffn_hidden;
    let kv = dims.kv_hidden();
    let mk = |kind: UnitKind, shapes: &[(usize, usize)], rng: &mut StdRng| {
        let params: Vec<Tensor> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| init(r, c, kind, i, rng))
            .collect();
        let grads = shapes.iter().map(|&(r, c)| Tensor::zeros(r, c)).collect();
        UnitModule {
            kind,
            layer,
            params,
            grads,
            moments: None,
        }
    };
    match kind {
        LayerKind::Embedding => vec![mk(
            UnitKind::Embedding,
            &[(dims.vocab, h), (dims.max_seq, h)],
            rng,
        )],
        LayerKind::DecodingHead => vec![mk(
            UnitKind::DecodingHead,
            &[(1, h), (1, h), (h, dims.vocab)],
            rng,
        )],
        LayerKind::Attention => vec![
            mk(UnitKind::AttnNorm, &[(1, h), (1, h)], rng),
            mk(UnitKind::QProj, &[(h, h), (1, h)], rng),
            mk(UnitKind::KProj, &[(h, kv), (1, kv)], rng),
            mk(UnitKind::VProj, &[(h, kv), (1, kv)], rng),
            mk(UnitKind::CoreAttention, &[], rng),
            mk(UnitKind::OutProj, &[(h, h), (1, h)], rng),
        ],
        LayerKind::FeedForward if dims.swiglu => vec![
            mk(UnitKind::FfnNorm, &[(1, h), (1, h)], rng),
            mk(UnitKind::FfnGate, &[(h, f), (1, f)], rng),
            mk(UnitKind::FfnUp, &[(h, f), (1, f)], rng),
            mk(UnitKind::FfnActGated, &[], rng),
            mk(UnitKind::FfnDown, &[(f, h), (1, h)], rng),
        ],
        LayerKind::FeedForward => vec![
            mk(UnitKind::FfnNorm, &[(1, h), (1, h)], rng),
            mk(UnitKind::FfnFc1, &[(h, f), (1, f)], rng),
            mk(UnitKind::FfnAct, &[], rng),
            mk(UnitKind::FfnFc2, &[(f, h), (1, h)], rng),
        ],
    }
}

/// Parameter initialization: normals scaled per fan-in for matrices,
/// ones for norm gains (parameter index 0 of norm-bearing units), zeros
/// for biases.
fn init(rows: usize, cols: usize, kind: UnitKind, index: usize, rng: &mut StdRng) -> Tensor {
    let is_gain = matches!(
        kind,
        UnitKind::AttnNorm | UnitKind::FfnNorm | UnitKind::DecodingHead
    ) && rows == 1
        && index == 0;
    if rows == 1 {
        let mut t = Tensor::zeros(rows, cols);
        if is_gain {
            for v in t.data_mut() {
                *v = 1.0;
            }
        }
        t
    } else {
        let std = 0.02f32.max((1.0 / rows as f32).sqrt() * 0.5);
        let data = (0..rows * cols)
            .map(|_| {
                // Box–Muller from two uniforms.
                let u1: f32 = rng.gen_range(1e-6..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos() * std
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }
}

/// Builds a deterministic RNG for model initialization.
#[must_use]
pub fn init_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_model::LayerKind;

    pub(crate) fn dims() -> TinyDims {
        TinyDims {
            hidden: 16,
            heads: 2,
            kv_heads: 2,
            ffn_hidden: 32,
            vocab: 20,
            max_seq: 8,
            swiglu: false,
            dropout: 0.0,
        }
    }

    fn llama_dims() -> TinyDims {
        TinyDims {
            kv_heads: 1,
            swiglu: true,
            ..dims()
        }
    }

    #[test]
    fn layer_unit_kinds_match_model_decomposition() {
        let mut rng = init_rng(0);
        let units = build_layer_units(dims(), LayerKind::Attention, 1, &mut rng);
        let kinds: Vec<UnitKind> = units.iter().map(|u| u.kind).collect();
        assert_eq!(
            kinds,
            vec![
                UnitKind::AttnNorm,
                UnitKind::QProj,
                UnitKind::KProj,
                UnitKind::VProj,
                UnitKind::CoreAttention,
                UnitKind::OutProj
            ]
        );
    }

    #[test]
    fn swiglu_layer_has_five_units() {
        let mut rng = init_rng(0);
        let units = build_layer_units(llama_dims(), LayerKind::FeedForward, 2, &mut rng);
        let kinds: Vec<UnitKind> = units.iter().map(|u| u.kind).collect();
        assert_eq!(
            kinds,
            vec![
                UnitKind::FfnNorm,
                UnitKind::FfnGate,
                UnitKind::FfnUp,
                UnitKind::FfnActGated,
                UnitKind::FfnDown
            ]
        );
        assert!(units.last().unwrap().has_residual());
    }

    #[test]
    fn gqa_shrinks_kv_projections() {
        let mut rng = init_rng(0);
        let units = build_layer_units(llama_dims(), LayerKind::Attention, 1, &mut rng);
        let q = &units[1];
        let k = &units[2];
        assert_eq!(q.params[0].cols(), 16);
        assert_eq!(k.params[0].cols(), 8); // 1 kv head × head_dim 8
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let a = build_layer_units(dims(), LayerKind::FeedForward, 2, &mut init_rng(7));
        let b = build_layer_units(dims(), LayerKind::FeedForward, 2, &mut init_rng(7));
        for (ua, ub) in a.iter().zip(&b) {
            assert_eq!(ua.params, ub.params);
        }
    }

    #[test]
    fn norm_gains_start_at_one() {
        let units = build_layer_units(dims(), LayerKind::Attention, 1, &mut init_rng(0));
        let norm = &units[0];
        assert!(norm.params[0].data().iter().all(|&v| v == 1.0));
        assert!(norm.params[1].data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn residual_units_are_the_layer_outputs() {
        let mut rng = init_rng(0);
        for (d, kind) in [
            (dims(), LayerKind::Attention),
            (dims(), LayerKind::FeedForward),
            (llama_dims(), LayerKind::FeedForward),
        ] {
            let units = build_layer_units(d, kind, 1, &mut rng);
            for u in &units {
                assert_eq!(u.has_residual(), u.is_pinned(), "{:?}", u.kind);
                assert_eq!(u.has_dropout(), u.has_residual());
            }
        }
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let mut rng = init_rng(3);
        let mut units = build_layer_units(dims(), LayerKind::FeedForward, 2, &mut rng);
        let fc1 = &mut units[1];
        let before = fc1.params[0].at(0, 0);
        *fc1.grads[0].at_mut(0, 0) = 2.0;
        fc1.optimizer_step(Optimizer::Sgd { lr: 0.1 }, 1, 1.0);
        assert!((fc1.params[0].at(0, 0) - (before - 0.2)).abs() < 1e-6);
        fc1.zero_grads();
        assert_eq!(fc1.grads[0].at(0, 0), 0.0);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the first Adam step has magnitude ≈ lr
        // regardless of the gradient scale.
        let mut rng = init_rng(4);
        let mut units = build_layer_units(dims(), LayerKind::FeedForward, 2, &mut rng);
        let fc1 = &mut units[1];
        let before = fc1.params[0].at(0, 0);
        *fc1.grads[0].at_mut(0, 0) = 123.0;
        fc1.optimizer_step(Optimizer::adam(0.01), 1, 1.0);
        let step = before - fc1.params[0].at(0, 0);
        assert!((step - 0.01).abs() < 1e-4, "step {step}");
    }

    #[test]
    fn adam_is_deterministic() {
        let run = || {
            let mut units = build_layer_units(dims(), LayerKind::FeedForward, 2, &mut init_rng(5));
            for t in 1..=3 {
                *units[1].grads[0].at_mut(0, 0) = t as f32;
                units[1].optimizer_step(Optimizer::adam(0.01), t, 1.0);
            }
            units[1].params[0].at(0, 0)
        };
        assert_eq!(run(), run());
    }
}
