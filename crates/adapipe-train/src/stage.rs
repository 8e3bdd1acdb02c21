// lint: allow-file(index): the saved-set, unit table, and cache vectors are
// sized by the constructor to exactly `units.len()`; every index here is
// in-range by construction.
//! A pipeline stage: a run of layers executed with per-unit
//! save/recompute semantics.
//!
//! After the forward pass of a micro-batch, the stage retains only the
//! outputs of *saved* units (pinned layer outputs are always saved).
//! During backward it walks its layers in reverse; for each layer it
//! rematerializes the missing unit outputs from the layer's (pinned)
//! input — the one-layer recompute buffer of §4.2 — then backpropagates
//! unit by unit on short autograd tapes, accumulating parameter
//! gradients.
//!
//! Because rematerialization repeats bit-identical f32 kernels — and
//! dropout masks are counter-based, keyed by `(step, micro-batch, layer,
//! unit)` — the computed gradients are exactly those of a
//! no-recomputation run.

#![expect(
    clippy::expect_used,
    reason = "the saved-set, unit table and cache vectors are sized by the constructor; \
              the expects name those invariants"
)]

use crate::tape::Tape;
use crate::tensor::Tensor;
use crate::units::{Optimizer, UnitModule};
use adapipe_model::UnitKind;

/// Execution context identifying one forward/backward pass — the seed of
/// every counter-based random decision, so recomputation can replay it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCtx {
    /// Training step (optimizer iteration).
    pub step: usize,
    /// Micro-batch index within the step.
    pub micro_batch: usize,
}

impl ExecCtx {
    /// The dropout key for unit `slot` of layer `layer` under this
    /// context: a stateless mix of all four coordinates.
    #[must_use]
    pub fn dropout_key(&self, layer: usize, slot: usize) -> u64 {
        let mut z = (self.step as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((self.micro_batch as u64) << 32)
            .wrapping_add((layer as u64) << 16)
            .wrapping_add(slot as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    }
}

/// Saved activations of one micro-batch between forward and backward.
#[derive(Debug)]
pub struct ForwardCache {
    /// Per-unit outputs; `None` for units configured to recompute.
    outs: Vec<Option<Tensor>>,
    /// The stage input activation (absent for the first stage).
    input: Option<Tensor>,
    /// Token ids (present only when the stage starts with the embedding).
    ids: Option<Vec<usize>>,
    /// The context the forward ran under (replayed by recomputation).
    ctx: ExecCtx,
}

impl ForwardCache {
    /// Bytes of saved activations (4 bytes per f32) — lets tests assert
    /// that recomputation actually shrinks the cache.
    #[must_use]
    pub fn saved_bytes(&self) -> usize {
        self.outs
            .iter()
            .flatten()
            .map(|t| t.len() * 4)
            .sum::<usize>()
            + self.input.as_ref().map_or(0, |t| t.len() * 4)
    }
}

/// One pipeline stage of the miniature trainer.
#[derive(Debug)]
pub struct StageModule {
    units: Vec<UnitModule>,
    saved: Vec<bool>,
    heads: usize,
    kv_heads: usize,
    dropout: f32,
    /// `(first_unit, last_unit)` index ranges per layer, in order.
    layers: Vec<(usize, usize)>,
}

impl StageModule {
    /// Builds a stage from unit modules and per-unit saved flags.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ, a pinned unit is marked recomputed, or
    /// the head configuration is inconsistent.
    #[must_use]
    pub fn new(
        units: Vec<UnitModule>,
        saved: Vec<bool>,
        heads: usize,
        kv_heads: usize,
        dropout: f32,
    ) -> Self {
        assert_eq!(units.len(), saved.len(), "one flag per unit");
        assert!(
            heads > 0 && kv_heads > 0 && heads.is_multiple_of(kv_heads),
            "bad head configuration"
        );
        assert!((0.0..1.0).contains(&dropout), "dropout must be in [0, 1)");
        for (u, &s) in units.iter().zip(&saved) {
            assert!(
                s || !u.is_pinned(),
                "pinned unit {:?} cannot be recomputed",
                u.kind
            );
        }
        let mut layers: Vec<(usize, usize)> = Vec::new();
        for (i, u) in units.iter().enumerate() {
            match layers.last_mut() {
                Some((_, last)) if units[*last].layer == u.layer => *last = i,
                _ => layers.push((i, i)),
            }
        }
        StageModule {
            units,
            saved,
            heads,
            kv_heads,
            dropout,
            layers,
        }
    }

    /// Convenience constructor for classic attention without dropout.
    #[must_use]
    pub fn new_simple(units: Vec<UnitModule>, saved: Vec<bool>, heads: usize) -> Self {
        Self::new(units, saved, heads, heads, 0.0)
    }

    /// The stage's unit modules.
    #[must_use]
    pub fn units(&self) -> &[UnitModule] {
        &self.units
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for u in &mut self.units {
            u.zero_grads();
        }
    }

    /// Optimizer update over all units (`t` is the 1-based step).
    pub fn optimizer_step(&mut self, opt: Optimizer, t: usize, scale: f32) {
        for u in &mut self.units {
            u.optimizer_step(opt, t, scale);
        }
    }

    /// SGD update over all units (kept for API compatibility).
    pub fn sgd_step(&mut self, lr: f32, scale: f32) {
        self.optimizer_step(Optimizer::Sgd { lr }, 1, scale);
    }

    /// The dropout key for unit index `i` (within the stage).
    fn key_of(&self, ctx: ExecCtx, i: usize, first: usize) -> Option<(f32, u64)> {
        if self.dropout > 0.0 && self.units[i].has_dropout() {
            Some((
                self.dropout,
                ctx.dropout_key(self.units[i].layer, i - first),
            ))
        } else {
            None
        }
    }

    /// Forward pass of one micro-batch. Exactly one of `input`
    /// (activation from the previous stage) or `ids` (tokens, first
    /// stage) must be provided. Returns the cache and the stage output.
    ///
    /// # Panics
    ///
    /// Panics if neither or both inputs are provided, or if the stage's
    /// first unit expects the other kind.
    #[must_use]
    pub fn forward(
        &self,
        input: Option<Tensor>,
        ids: Option<&[usize]>,
        ctx: ExecCtx,
    ) -> (ForwardCache, Tensor) {
        assert!(input.is_some() != ids.is_some(), "exactly one of input/ids");
        let mut outs: Vec<Option<Tensor>> = vec![None; self.units.len()];
        let mut layer_input = input.clone();
        for &(first, last) in &self.layers {
            let all = self.run_layer(first, last, layer_input.as_ref(), ids, ctx);
            for (k, out) in all.iter().enumerate() {
                if self.saved[first + k] {
                    outs[first + k] = Some(out.clone());
                }
            }
            layer_input = Some(all.last().expect("layer has units").clone());
        }
        let output = layer_input.expect("stage produced an output");
        (
            ForwardCache {
                outs,
                input,
                ids: ids.map(<[usize]>::to_vec),
                ctx,
            },
            output,
        )
    }

    /// Recomputes every unit output of the layer spanning `[first, last]`
    /// given the layer input, reusing saved outputs from `cache` where
    /// present. Returns all outputs in unit order.
    fn materialize_layer(
        &self,
        first: usize,
        last: usize,
        layer_input: Option<&Tensor>,
        cache: &ForwardCache,
    ) -> Vec<Tensor> {
        if (first..=last).all(|i| cache.outs[i].is_some()) {
            return (first..=last)
                .map(|i| cache.outs[i].clone().expect("checked"))
                .collect();
        }
        let fresh = self.run_layer(first, last, layer_input, cache.ids.as_deref(), cache.ctx);
        (first..=last)
            .zip(fresh)
            .map(|(i, f)| cache.outs[i].clone().unwrap_or(f))
            .collect()
    }

    /// Runs the units of one layer forward (no gradients kept), honoring
    /// the intra-layer wiring of Figure 4.
    fn run_layer(
        &self,
        first: usize,
        last: usize,
        layer_input: Option<&Tensor>,
        ids: Option<&[usize]>,
        ctx: ExecCtx,
    ) -> Vec<Tensor> {
        let mut outs: Vec<Tensor> = Vec::with_capacity(last - first + 1);
        for i in first..=last {
            let u = &self.units[i];
            let mut tape = Tape::new();
            let out = match u.kind {
                UnitKind::CoreAttention => {
                    // Q, K, V directly precede the core in unit order.
                    let q = tape.leaf(outs[i - first - 3].clone());
                    let k = tape.leaf(outs[i - first - 2].clone());
                    let v = tape.leaf(outs[i - first - 1].clone());
                    u.forward_attention(&mut tape, q, k, v, self.heads, self.kv_heads)
                }
                UnitKind::FfnActGated => {
                    let gate = tape.leaf(outs[i - first - 2].clone());
                    let up = tape.leaf(outs[i - first - 1].clone());
                    u.forward_gated(&mut tape, gate, up)
                }
                _ => {
                    let x = self
                        .unit_input(i, first, &outs, layer_input)
                        .map(|t| tape.leaf(t));
                    let resid = if u.has_residual() {
                        Some(tape.leaf(layer_input.expect("residual needs layer input").clone()))
                    } else {
                        None
                    };
                    u.forward(&mut tape, x, resid, ids, self.key_of(ctx, i, first))
                        .1
                }
            };
            outs.push(tape.value(out).clone());
        }
        outs
    }

    /// The primary input tensor of unit `i` (index within the stage),
    /// given the outputs of earlier units of the same layer.
    fn unit_input(
        &self,
        i: usize,
        first: usize,
        outs: &[Tensor],
        layer_input: Option<&Tensor>,
    ) -> Option<Tensor> {
        match self.units[i].kind {
            UnitKind::Embedding => None,
            // First unit of a layer reads the layer input.
            UnitKind::AttnNorm | UnitKind::FfnNorm | UnitKind::DecodingHead => {
                Some(layer_input.expect("layer input missing").clone())
            }
            // Q/K/V and Gate/Up all read the norm output (unit 0).
            UnitKind::QProj
            | UnitKind::KProj
            | UnitKind::VProj
            | UnitKind::FfnGate
            | UnitKind::FfnUp => Some(outs[0].clone()),
            // Everything else reads its predecessor.
            _ => Some(outs[i - first - 1].clone()),
        }
    }

    /// Backward pass of one micro-batch: consumes the forward cache and
    /// the gradient of the stage output; accumulates parameter gradients
    /// and returns the gradient of the stage input (or `None` for the
    /// embedding stage).
    ///
    /// # Panics
    ///
    /// Panics if the cache does not belong to this stage.
    pub fn backward(&mut self, cache: &ForwardCache, grad_out: Tensor) -> Option<Tensor> {
        assert_eq!(cache.outs.len(), self.units.len(), "cache/stage mismatch");
        let mut grad = grad_out;
        for li in (0..self.layers.len()).rev() {
            let (first, last) = self.layers[li];
            let layer_input: Option<Tensor> = if li == 0 {
                cache.input.clone()
            } else {
                let (_, prev_last) = self.layers[li - 1];
                Some(
                    cache.outs[prev_last]
                        .clone()
                        .expect("layer outputs are pinned saved"),
                )
            };
            let outs = self.materialize_layer(first, last, layer_input.as_ref(), cache);
            match self.backward_layer(first, last, layer_input.as_ref(), &outs, grad, cache) {
                Some(g) => grad = g,
                None => return None, // embedding layer: no input gradient
            }
        }
        Some(grad)
    }

    /// Backpropagates one unit with a single primary input; returns the
    /// input gradient after harvesting parameter gradients.
    fn backprop_simple(
        &mut self,
        i: usize,
        first: usize,
        x_val: &Tensor,
        grad_out: Tensor,
        ctx: ExecCtx,
    ) -> Tensor {
        let key = self.key_of(ctx, i, first);
        let u = &mut self.units[i];
        let mut tape = Tape::new();
        let x = tape.leaf(x_val.clone());
        let (pvars, out) = u.forward(&mut tape, Some(x), None, None, key);
        tape.backward(out, grad_out);
        u.harvest_grads(&tape, &pvars);
        tape.grad(x)
    }

    /// Backpropagates a residual output projection; returns the
    /// gradients of (primary input, residual).
    fn backprop_residual(
        &mut self,
        i: usize,
        first: usize,
        x_val: &Tensor,
        resid_val: &Tensor,
        grad_out: Tensor,
        ctx: ExecCtx,
    ) -> (Tensor, Tensor) {
        let key = self.key_of(ctx, i, first);
        let u = &mut self.units[i];
        let mut tape = Tape::new();
        let x = tape.leaf(x_val.clone());
        let r = tape.leaf(resid_val.clone());
        let (pvars, out) = u.forward(&mut tape, Some(x), Some(r), None, key);
        tape.backward(out, grad_out);
        u.harvest_grads(&tape, &pvars);
        (tape.grad(x), tape.grad(r))
    }

    /// Backpropagates through one layer; returns the gradient of the
    /// layer input (`None` for the embedding).
    fn backward_layer(
        &mut self,
        first: usize,
        _last: usize,
        layer_input: Option<&Tensor>,
        outs: &[Tensor],
        grad_out: Tensor,
        cache: &ForwardCache,
    ) -> Option<Tensor> {
        let ctx = cache.ctx;
        match self.units[first].kind {
            UnitKind::Embedding => {
                let u = &mut self.units[first];
                let mut tape = Tape::new();
                let ids = cache.ids.as_deref().expect("embedding stage keeps ids");
                let (pvars, out) = u.forward(&mut tape, None, None, Some(ids), None);
                tape.backward(out, grad_out);
                u.harvest_grads(&tape, &pvars);
                None
            }
            UnitKind::DecodingHead => Some(self.backprop_simple(
                first,
                first,
                layer_input.expect("head needs input"),
                grad_out,
                ctx,
            )),
            UnitKind::AttnNorm => {
                // Units: [norm, q, k, v, core, out_proj].
                let layer_in = layer_input.expect("attention needs layer input").clone();
                let (g_core, g_resid) =
                    self.backprop_residual(first + 5, first, &outs[4], &layer_in, grad_out, ctx);
                // Attention core.
                let (gq, gk, gv) = {
                    let u = &self.units[first + 4];
                    let mut tape = Tape::new();
                    let q = tape.leaf(outs[1].clone());
                    let k = tape.leaf(outs[2].clone());
                    let v = tape.leaf(outs[3].clone());
                    let out = u.forward_attention(&mut tape, q, k, v, self.heads, self.kv_heads);
                    tape.backward(out, g_core);
                    (tape.grad(q), tape.grad(k), tape.grad(v))
                };
                // Q/K/V projections, all reading the norm output.
                let mut g_norm = Tensor::zeros(outs[0].rows(), outs[0].cols());
                for (offset, g) in [(1usize, gq), (2, gk), (3, gv)] {
                    g_norm.add_assign(&self.backprop_simple(
                        first + offset,
                        first,
                        &outs[0].clone(),
                        g,
                        ctx,
                    ));
                }
                // Norm.
                let g_in = self.backprop_simple(first, first, &layer_in, g_norm, ctx);
                Some(g_in.add(&g_resid))
            }
            UnitKind::FfnNorm if self.units[first + 1].kind == UnitKind::FfnGate => {
                // SwiGLU: [norm, gate, up, act_gated, down].
                let layer_in = layer_input.expect("ffn needs layer input").clone();
                let (g_act, g_resid) =
                    self.backprop_residual(first + 4, first, &outs[3], &layer_in, grad_out, ctx);
                // Gated activation.
                let (g_gate, g_up) = {
                    let u = &self.units[first + 3];
                    let mut tape = Tape::new();
                    let gate = tape.leaf(outs[1].clone());
                    let up = tape.leaf(outs[2].clone());
                    let out = u.forward_gated(&mut tape, gate, up);
                    tape.backward(out, g_act);
                    (tape.grad(gate), tape.grad(up))
                };
                let mut g_norm =
                    self.backprop_simple(first + 1, first, &outs[0].clone(), g_gate, ctx);
                g_norm.add_assign(&self.backprop_simple(
                    first + 2,
                    first,
                    &outs[0].clone(),
                    g_up,
                    ctx,
                ));
                let g_in = self.backprop_simple(first, first, &layer_in, g_norm, ctx);
                Some(g_in.add(&g_resid))
            }
            UnitKind::FfnNorm => {
                // GeLU: [norm, fc1, act, fc2].
                let layer_in = layer_input.expect("ffn needs layer input").clone();
                let (g_act, g_resid) =
                    self.backprop_residual(first + 3, first, &outs[2], &layer_in, grad_out, ctx);
                let g_fc1 = self.backprop_simple(first + 2, first, &outs[1].clone(), g_act, ctx);
                let g_norm = self.backprop_simple(first + 1, first, &outs[0].clone(), g_fc1, ctx);
                let g_in = self.backprop_simple(first, first, &layer_in, g_norm, ctx);
                Some(g_in.add(&g_resid))
            }
            other => unreachable!("layer cannot start with {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{build_layer_units, init_rng, TinyDims};
    use adapipe_model::LayerKind;

    fn dims() -> TinyDims {
        TinyDims {
            hidden: 16,
            heads: 2,
            kv_heads: 2,
            ffn_hidden: 32,
            vocab: 24,
            max_seq: 6,
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

    fn ctx() -> ExecCtx {
        ExecCtx {
            step: 0,
            micro_batch: 0,
        }
    }

    /// One decoder block (attention + ffn) as a stage.
    fn block_stage(d: TinyDims, saved_all: bool) -> StageModule {
        let mut rng = init_rng(42);
        let mut units = build_layer_units(d, LayerKind::Attention, 1, &mut rng);
        units.extend(build_layer_units(d, LayerKind::FeedForward, 2, &mut rng));
        let saved: Vec<bool> = units.iter().map(|u| saved_all || u.is_pinned()).collect();
        StageModule::new(units, saved, d.heads, d.kv_heads, d.dropout)
    }

    fn sample_input() -> Tensor {
        Tensor::from_vec(
            6,
            16,
            (0..96).map(|i| ((i % 13) as f32 - 6.0) / 10.0).collect(),
        )
    }

    #[test]
    fn forward_is_strategy_invariant() {
        for d in [dims(), llama_dims()] {
            let full = block_stage(d, false);
            let none = block_stage(d, true);
            let (_, y_full) = full.forward(Some(sample_input()), None, ctx());
            let (_, y_none) = none.forward(Some(sample_input()), None, ctx());
            assert_eq!(y_full, y_none);
        }
    }

    #[test]
    fn recompute_shrinks_the_cache() {
        let full = block_stage(dims(), false);
        let none = block_stage(dims(), true);
        let (c_full, _) = full.forward(Some(sample_input()), None, ctx());
        let (c_none, _) = none.forward(Some(sample_input()), None, ctx());
        assert!(c_full.saved_bytes() < c_none.saved_bytes());
    }

    #[test]
    fn gradients_are_bit_identical_across_strategies() {
        for d in [dims(), llama_dims()] {
            let mut full = block_stage(d, false);
            let mut none = block_stage(d, true);
            let (c_full, _) = full.forward(Some(sample_input()), None, ctx());
            let (c_none, _) = none.forward(Some(sample_input()), None, ctx());
            let seed = Tensor::from_vec(6, 16, vec![0.01; 96]);
            let g_full = full.backward(&c_full, seed.clone()).unwrap();
            let g_none = none.backward(&c_none, seed).unwrap();
            assert_eq!(g_full, g_none);
            for (uf, un) in full.units().iter().zip(none.units()) {
                assert_eq!(uf.grads, un.grads, "{:?}", uf.kind);
            }
        }
    }

    #[test]
    fn dropout_is_replayed_exactly_under_recomputation() {
        // With dropout active, a recomputing stage must regenerate the
        // same masks in backward as the forward used — counter-based RNG
        // makes the gradients bit-identical to the all-saved stage.
        let d = TinyDims {
            dropout: 0.25,
            ..dims()
        };
        let mut full = block_stage(d, false);
        let mut none = block_stage(d, true);
        let (c_full, y_full) = full.forward(Some(sample_input()), None, ctx());
        let (c_none, y_none) = none.forward(Some(sample_input()), None, ctx());
        assert_eq!(y_full, y_none);
        let seed = Tensor::from_vec(6, 16, vec![0.01; 96]);
        let g_full = full.backward(&c_full, seed.clone()).unwrap();
        let g_none = none.backward(&c_none, seed).unwrap();
        assert_eq!(g_full, g_none);
        for (uf, un) in full.units().iter().zip(none.units()) {
            assert_eq!(uf.grads, un.grads, "{:?}", uf.kind);
        }
    }

    #[test]
    fn dropout_masks_differ_across_microbatches() {
        let d = TinyDims {
            dropout: 0.25,
            ..dims()
        };
        let stage = block_stage(d, true);
        let (_, y0) = stage.forward(
            Some(sample_input()),
            None,
            ExecCtx {
                step: 0,
                micro_batch: 0,
            },
        );
        let (_, y1) = stage.forward(
            Some(sample_input()),
            None,
            ExecCtx {
                step: 0,
                micro_batch: 1,
            },
        );
        let (_, y2) = stage.forward(
            Some(sample_input()),
            None,
            ExecCtx {
                step: 1,
                micro_batch: 0,
            },
        );
        assert_ne!(y0, y1);
        assert_ne!(y0, y2);
    }

    #[test]
    fn stage_input_gradient_matches_finite_differences() {
        for d in [dims(), llama_dims()] {
            let mut stage = block_stage(d, false);
            let x0 = sample_input();
            let loss = |x: &Tensor, stage: &StageModule| {
                let (_, y) = stage.forward(Some(x.clone()), None, ctx());
                y.data().iter().sum::<f32>()
            };
            let fd = {
                let mut plus = x0.clone();
                plus.data_mut()[5] += 1e-2;
                let mut minus = x0.clone();
                minus.data_mut()[5] -= 1e-2;
                (loss(&plus, &stage) - loss(&minus, &stage)) / 2e-2
            };
            let (cache, y) = stage.forward(Some(x0), None, ctx());
            let seed = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]);
            let g = stage.backward(&cache, seed).unwrap();
            assert!(
                (g.data()[5] - fd).abs() < 2e-2 * (1.0 + fd.abs()),
                "autograd {} vs fd {fd} (swiglu={})",
                g.data()[5],
                d.swiglu
            );
        }
    }

    #[test]
    fn embedding_stage_returns_no_input_grad() {
        let mut rng = init_rng(1);
        let units = build_layer_units(dims(), LayerKind::Embedding, 0, &mut rng);
        let saved = vec![true; units.len()];
        let mut stage = StageModule::new_simple(units, saved, dims().heads);
        let ids = [1usize, 5, 3, 2];
        let (cache, y) = stage.forward(None, Some(&ids), ctx());
        assert_eq!(y.rows(), 4);
        let g = stage.backward(&cache, Tensor::zeros(4, 16));
        assert!(g.is_none());
    }

    #[test]
    #[should_panic(expected = "pinned unit")]
    fn pinned_units_cannot_be_dropped() {
        let mut rng = init_rng(1);
        let units = build_layer_units(dims(), LayerKind::Attention, 1, &mut rng);
        let saved = vec![false; units.len()];
        let _ = StageModule::new_simple(units, saved, dims().heads);
    }
}
