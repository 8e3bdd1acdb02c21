//! Reverse-mode autograd over [`Tensor`]s.
//!
//! A [`Tape`] records every operation; [`Tape::backward`] walks the
//! records in reverse, accumulating gradients. Each computation-unit
//! module in [`units`](crate::units) runs on its own short tape, which is
//! what makes per-unit recomputation natural: dropping a unit's
//! intermediates is simply dropping its tape.

#![allow(
    clippy::needless_range_loop,
    reason = "kernel loops below keep explicit (row, column, head) indices, so the math \
              reads like the equations it implements"
)]

use crate::tensor::Tensor;

/// Handle to a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug)]
enum Record {
    Leaf,
    /// `a @ b`.
    MatMul(Var, Var),
    /// `x + bias` (row-broadcast).
    AddBias(Var, Var),
    /// Elementwise `a + b`.
    Add(Var, Var),
    /// GeLU(x), tanh approximation.
    Gelu(Var),
    /// `silu(gate) ⊙ up` — the fused SwiGLU activation.
    SiluMul(Var, Var),
    /// Inverted dropout with a counter-based mask, replayable under
    /// recomputation (same `key` → same mask, with no RNG state).
    Dropout {
        x: Var,
        rate: f32,
        key: u64,
    },
    /// Row layer-norm with affine parameters.
    LayerNorm {
        x: Var,
        gain: Var,
        bias: Var,
    },
    /// Fused causal multi-head attention with optional grouped-query
    /// layout (`kv_heads` divides `heads`); saves per-head probabilities.
    CausalAttention {
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        kv_heads: usize,
        probs: Vec<Tensor>,
    },
    /// Token + position embedding lookup.
    Embedding {
        table: Var,
        pos: Var,
        ids: Vec<usize>,
    },
    /// Mean token cross-entropy; saves the softmax probabilities.
    CrossEntropy {
        logits: Var,
        targets: Vec<usize>,
        probs: Tensor,
    },
}

#[derive(Debug)]
struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Record,
}

/// An autograd tape.
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

const LN_EPS: f32 = 1e-5;

impl Tape {
    /// Creates an empty tape.
    #[must_use]
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    fn push(&mut self, value: Tensor, op: Record) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
        });
        Var(self.nodes.len() - 1)
    }

    /// Registers an input (leaf) tensor.
    pub fn leaf(&mut self, value: Tensor) -> Var {
        self.push(value, Record::Leaf)
    }

    /// The value of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not from this tape.
    #[must_use]
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The accumulated gradient of `v` after [`Tape::backward`], or a
    /// zero tensor if none flowed.
    #[must_use]
    pub fn grad(&self, v: Var) -> Tensor {
        let node = &self.nodes[v.0];
        node.grad
            .clone()
            .unwrap_or_else(|| Tensor::zeros(node.value.rows(), node.value.cols()))
    }

    /// `a @ b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        self.push(value, Record::MatMul(a, b))
    }

    /// `x` plus a `[1, cols]` bias broadcast over rows.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = self.value(x).add_bias(self.value(bias));
        self.push(value, Record::AddBias(x, bias))
    }

    /// Elementwise `a + b` (residual connections).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).add(self.value(b));
        self.push(value, Record::Add(a, b))
    }

    /// GeLU activation (tanh approximation).
    pub fn gelu(&mut self, x: Var) -> Var {
        let mut value = self.value(x).clone();
        for v in value.data_mut() {
            *v = gelu(*v);
        }
        self.push(value, Record::Gelu(x))
    }

    /// Fused SwiGLU activation: `silu(gate) ⊙ up`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn silu_mul(&mut self, gate: Var, up: Var) -> Var {
        let g = self.value(gate);
        let u = self.value(up);
        assert_eq!(
            (g.rows(), g.cols()),
            (u.rows(), u.cols()),
            "silu_mul shape mismatch"
        );
        let data = g
            .data()
            .iter()
            .zip(u.data())
            .map(|(&gv, &uv)| silu(gv) * uv)
            .collect();
        let value = Tensor::from_vec(g.rows(), g.cols(), data);
        self.push(value, Record::SiluMul(gate, up))
    }

    /// Inverted dropout. The mask is a pure function of `(key, element
    /// index)`, so recomputing the unit replays the identical mask — the
    /// property a real execution engine needs for recomputation to be
    /// loss-exact in the presence of randomness.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= rate < 1`.
    pub fn dropout(&mut self, x: Var, rate: f32, key: u64) -> Var {
        assert!((0.0..1.0).contains(&rate), "dropout rate must be in [0, 1)");
        let mut value = self.value(x).clone();
        if rate > 0.0 {
            let scale = 1.0 / (1.0 - rate);
            for (i, v) in value.data_mut().iter_mut().enumerate() {
                if dropout_kept(key, i as u64, rate) {
                    *v *= scale;
                } else {
                    *v = 0.0;
                }
            }
        }
        self.push(value, Record::Dropout { x, rate, key })
    }

    /// Row-wise layer norm with learned `gain` and `bias` (`[1, cols]`).
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        let xt = self.value(x);
        let (rows, cols) = (xt.rows(), xt.cols());
        let mut out = Tensor::zeros(rows, cols);
        for r in 0..rows {
            let (mean, rstd) = row_stats(xt.row(r));
            for c in 0..cols {
                let xhat = (xt.at(r, c) - mean) * rstd;
                *out.at_mut(r, c) = xhat * self.value(gain).at(0, c) + self.value(bias).at(0, c);
            }
        }
        self.push(out, Record::LayerNorm { x, gain, bias })
    }

    /// Fused causal multi-head self-attention over `[seq, hidden]`
    /// inputs; `hidden` must divide evenly into `heads`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn causal_attention(&mut self, q: Var, k: Var, v: Var, heads: usize) -> Var {
        self.causal_attention_gqa(q, k, v, heads, heads)
    }

    /// Grouped-query causal attention: `q` has `heads` heads, `k`/`v`
    /// have `kv_heads` (each shared by `heads / kv_heads` query heads).
    ///
    /// # Panics
    ///
    /// Panics if shapes or head counts are inconsistent.
    pub fn causal_attention_gqa(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        heads: usize,
        kv_heads: usize,
    ) -> Var {
        let (s, h) = (self.value(q).rows(), self.value(q).cols());
        assert_eq!(self.value(k).rows(), s);
        assert_eq!(self.value(v).rows(), s);
        assert_eq!(h % heads, 0, "hidden {h} not divisible by {heads} heads");
        assert!(
            kv_heads > 0 && heads.is_multiple_of(kv_heads),
            "{heads} heads not divisible by {kv_heads}"
        );
        let dh = h / heads;
        assert_eq!(self.value(k).cols(), kv_heads * dh, "kv width mismatch");
        assert_eq!(self.value(v).cols(), kv_heads * dh, "kv width mismatch");
        let group = heads / kv_heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut out = Tensor::zeros(s, h);
        let mut probs = Vec::with_capacity(heads);
        for t in 0..heads {
            let off = t * dh;
            let kv_off = (t / group) * dh;
            // Scores with causal mask, row-wise softmax.
            let mut p = Tensor::zeros(s, s);
            for i in 0..s {
                let mut max = f32::NEG_INFINITY;
                for j in 0..=i {
                    let mut dot = 0.0;
                    for c in 0..dh {
                        dot += self.value(q).at(i, off + c) * self.value(k).at(j, kv_off + c);
                    }
                    let sc = dot * scale;
                    *p.at_mut(i, j) = sc;
                    max = max.max(sc);
                }
                let mut denom = 0.0;
                for j in 0..=i {
                    let e = (p.at(i, j) - max).exp();
                    *p.at_mut(i, j) = e;
                    denom += e;
                }
                for j in 0..=i {
                    *p.at_mut(i, j) /= denom;
                }
            }
            // out = P @ V_head.
            for i in 0..s {
                for j in 0..=i {
                    let w = p.at(i, j);
                    for c in 0..dh {
                        *out.at_mut(i, off + c) += w * self.value(v).at(j, kv_off + c);
                    }
                }
            }
            probs.push(p);
        }
        self.push(
            out,
            Record::CausalAttention {
                q,
                k,
                v,
                heads,
                kv_heads,
                probs,
            },
        )
    }

    /// Token embedding lookup plus learned positions:
    /// `out[i] = table[ids[i]] + pos[i]`.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of vocabulary or the sequence exceeds the
    /// position table.
    pub fn embedding(&mut self, table: Var, pos: Var, ids: &[usize]) -> Var {
        let h = self.value(table).cols();
        assert!(
            ids.len() <= self.value(pos).rows(),
            "sequence longer than position table"
        );
        let mut out = Tensor::zeros(ids.len(), h);
        for (i, &id) in ids.iter().enumerate() {
            assert!(
                id < self.value(table).rows(),
                "token id {id} out of vocabulary"
            );
            for c in 0..h {
                *out.at_mut(i, c) = self.value(table).at(id, c) + self.value(pos).at(i, c);
            }
        }
        self.push(
            out,
            Record::Embedding {
                table,
                pos,
                ids: ids.to_vec(),
            },
        )
    }

    /// Mean cross-entropy of `logits` against `targets`; returns a
    /// `[1, 1]` scalar.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of logit rows.
    pub fn cross_entropy(&mut self, logits: Var, targets: &[usize]) -> Var {
        let lt = self.value(logits);
        let (s, vocab) = (lt.rows(), lt.cols());
        assert_eq!(targets.len(), s, "one target per row");
        let mut probs = Tensor::zeros(s, vocab);
        let mut loss = 0.0f32;
        for i in 0..s {
            let row = lt.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for c in 0..vocab {
                let e = (row[c] - max).exp();
                *probs.at_mut(i, c) = e;
                denom += e;
            }
            for c in 0..vocab {
                *probs.at_mut(i, c) /= denom;
            }
            loss -= probs.at(i, targets[i]).max(1e-30).ln();
        }
        loss /= s as f32;
        self.push(
            Tensor::from_vec(1, 1, vec![loss]),
            Record::CrossEntropy {
                logits,
                targets: targets.to_vec(),
                probs,
            },
        )
    }

    fn accumulate(&mut self, v: Var, g: Tensor) {
        let node = &mut self.nodes[v.0];
        match &mut node.grad {
            Some(cur) => cur.add_assign(&g),
            None => node.grad = Some(g),
        }
    }

    /// Runs reverse-mode differentiation from `root`, seeding its
    /// gradient with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seed`'s shape differs from `root`'s value.
    pub fn backward(&mut self, root: Var, seed: Tensor) {
        assert_eq!(
            (seed.rows(), seed.cols()),
            (self.value(root).rows(), self.value(root).cols()),
            "seed gradient shape mismatch"
        );
        self.accumulate(root, seed);
        for idx in (0..=root.0).rev() {
            let Some(dy) = self.nodes[idx].grad.clone() else {
                continue;
            };
            // Temporarily take the op out of the node so gradient
            // accumulation can borrow the tape mutably.
            let op = std::mem::replace(&mut self.nodes[idx].op, Record::Leaf);
            match &op {
                Record::Leaf => {}
                Record::MatMul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = dy.matmul_t(self.value(b));
                    let db = self.value(a).t_matmul(&dy);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Record::AddBias(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    let db = dy.col_sum();
                    self.accumulate(x, dy);
                    self.accumulate(bias, db);
                }
                Record::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(a, dy.clone());
                    self.accumulate(b, dy);
                }
                Record::Gelu(x) => {
                    let x = *x;
                    let mut dx = dy;
                    for (g, &xv) in dx.data_mut().iter_mut().zip(self.nodes[x.0].value.data()) {
                        *g *= gelu_grad(xv);
                    }
                    self.accumulate(x, dx);
                }
                Record::SiluMul(gate, up) => {
                    let (gate, up) = (*gate, *up);
                    let gv = self.nodes[gate.0].value.clone();
                    let uv = self.nodes[up.0].value.clone();
                    let mut dgate = dy.clone();
                    let mut dup = dy;
                    for i in 0..gv.len() {
                        let g = gv.data()[i];
                        let u = uv.data()[i];
                        dgate.data_mut()[i] *= u * silu_grad(g);
                        dup.data_mut()[i] *= silu(g);
                    }
                    self.accumulate(gate, dgate);
                    self.accumulate(up, dup);
                }
                Record::Dropout { x, rate, key } => {
                    let (x, rate, key) = (*x, *rate, *key);
                    let mut dx = dy;
                    if rate > 0.0 {
                        let scale = 1.0 / (1.0 - rate);
                        for (i, g) in dx.data_mut().iter_mut().enumerate() {
                            if dropout_kept(key, i as u64, rate) {
                                *g *= scale;
                            } else {
                                *g = 0.0;
                            }
                        }
                    }
                    self.accumulate(x, dx);
                }
                Record::LayerNorm { x, gain, bias } => {
                    let (x, gain, bias) = (*x, *gain, *bias);
                    let (dx, dgain, dbias) =
                        layer_norm_backward(&self.nodes[x.0].value, &self.nodes[gain.0].value, &dy);
                    self.accumulate(x, dx);
                    self.accumulate(gain, dgain);
                    self.accumulate(bias, dbias);
                }
                Record::CausalAttention {
                    q,
                    k,
                    v,
                    heads,
                    kv_heads,
                    probs,
                } => {
                    let (q, k, v, heads, kv_heads) = (*q, *k, *v, *heads, *kv_heads);
                    let (dq, dk, dv) = attention_backward(
                        &self.nodes[q.0].value,
                        &self.nodes[k.0].value,
                        &self.nodes[v.0].value,
                        heads,
                        kv_heads,
                        probs,
                        &dy,
                    );
                    self.accumulate(q, dq);
                    self.accumulate(k, dk);
                    self.accumulate(v, dv);
                }
                Record::Embedding { table, pos, ids } => {
                    let (table, pos) = (*table, *pos);
                    let ids = ids.clone();
                    let tval = &self.nodes[table.0].value;
                    let pval = &self.nodes[pos.0].value;
                    let mut dt = Tensor::zeros(tval.rows(), tval.cols());
                    let mut dp = Tensor::zeros(pval.rows(), pval.cols());
                    for (i, &id) in ids.iter().enumerate() {
                        for c in 0..dt.cols() {
                            *dt.at_mut(id, c) += dy.at(i, c);
                            *dp.at_mut(i, c) += dy.at(i, c);
                        }
                    }
                    self.accumulate(table, dt);
                    self.accumulate(pos, dp);
                }
                Record::CrossEntropy {
                    logits,
                    targets,
                    probs,
                } => {
                    let logits = *logits;
                    let scale = dy.at(0, 0) / targets.len() as f32;
                    let mut dl = probs.clone();
                    for (i, &t) in targets.iter().enumerate() {
                        *dl.at_mut(i, t) -= 1.0;
                    }
                    dl.scale_assign(scale);
                    self.accumulate(logits, dl);
                }
            }
            self.nodes[idx].op = op;
        }
    }
}

fn gelu(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + (C * (x + 0.044_715 * x * x * x)).tanh())
}

fn silu(x: f32) -> f32 {
    x / (1.0 + (-x).exp())
}

fn silu_grad(x: f32) -> f32 {
    let sig = 1.0 / (1.0 + (-x).exp());
    sig * (1.0 + x * (1.0 - sig))
}

/// Counter-based keep/drop decision: a stateless splitmix64-style hash
/// of `(key, index)` compared against the drop threshold.
fn dropout_kept(key: u64, index: u64, rate: f32) -> bool {
    let mut z = key ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Top 24 bits → uniform in [0, 1).
    let u = (z >> 40) as f32 / (1u64 << 24) as f32;
    u >= rate
}

fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044_715 * x * x * x);
    let t = u.tanh();
    let du = C * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

fn row_stats(row: &[f32]) -> (f32, f32) {
    let n = row.len() as f32;
    let mean = row.iter().sum::<f32>() / n;
    let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / n;
    (mean, 1.0 / (var + LN_EPS).sqrt())
}

fn layer_norm_backward(x: &Tensor, gain: &Tensor, dy: &Tensor) -> (Tensor, Tensor, Tensor) {
    let (rows, cols) = (x.rows(), x.cols());
    let mut dx = Tensor::zeros(rows, cols);
    let mut dgain = Tensor::zeros(1, cols);
    let mut dbias = Tensor::zeros(1, cols);
    for r in 0..rows {
        let (mean, rstd) = row_stats(x.row(r));
        let mut sum_g = 0.0f32;
        let mut sum_gx = 0.0f32;
        let mut xhat = vec![0.0f32; cols];
        let mut g = vec![0.0f32; cols];
        for c in 0..cols {
            xhat[c] = (x.at(r, c) - mean) * rstd;
            g[c] = dy.at(r, c) * gain.at(0, c);
            sum_g += g[c];
            sum_gx += g[c] * xhat[c];
            *dgain.at_mut(0, c) += dy.at(r, c) * xhat[c];
            *dbias.at_mut(0, c) += dy.at(r, c);
        }
        let n = cols as f32;
        for c in 0..cols {
            *dx.at_mut(r, c) = (g[c] - sum_g / n - xhat[c] * sum_gx / n) * rstd;
        }
    }
    (dx, dgain, dbias)
}

fn attention_backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    heads: usize,
    kv_heads: usize,
    probs: &[Tensor],
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (s, h) = (q.rows(), q.cols());
    let dh = h / heads;
    let group = heads / kv_heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let mut dq = Tensor::zeros(s, h);
    let mut dk = Tensor::zeros(s, kv_heads * dh);
    let mut dv = Tensor::zeros(s, kv_heads * dh);
    for t in 0..heads {
        let off = t * dh;
        let kv_off = (t / group) * dh;
        let p = &probs[t];
        // dV_head = Pᵀ dO_head; dP = dO_head V_headᵀ.
        let mut dp = Tensor::zeros(s, s);
        for i in 0..s {
            for j in 0..=i {
                let w = p.at(i, j);
                let mut acc = 0.0;
                for c in 0..dh {
                    *dv.at_mut(j, kv_off + c) += w * dy.at(i, off + c);
                    acc += dy.at(i, off + c) * v.at(j, kv_off + c);
                }
                *dp.at_mut(i, j) = acc;
            }
        }
        // Softmax jacobian per row: dS = P ⊙ (dP − Σ_j dP⊙P).
        for i in 0..s {
            let mut dot = 0.0;
            for j in 0..=i {
                dot += dp.at(i, j) * p.at(i, j);
            }
            for j in 0..=i {
                let ds = p.at(i, j) * (dp.at(i, j) - dot) * scale;
                for c in 0..dh {
                    *dq.at_mut(i, off + c) += ds * k.at(j, kv_off + c);
                    *dk.at_mut(j, kv_off + c) += ds * q.at(i, off + c);
                }
            }
        }
    }
    (dq, dk, dv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Central finite differences of a scalar-valued tape computation
    /// with respect to one leaf.
    fn finite_diff<F>(build: F, input: &Tensor, eps: f32) -> Tensor
    where
        F: Fn(&Tensor) -> f32,
    {
        let mut grad = Tensor::zeros(input.rows(), input.cols());
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[i] += eps;
            let mut minus = input.clone();
            minus.data_mut()[i] -= eps;
            grad.data_mut()[i] = (build(&plus) - build(&minus)) / (2.0 * eps);
        }
        grad
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.data().iter().zip(b.data()) {
            let denom = 1.0f32.max(x.abs()).max(y.abs());
            assert!(
                (x - y).abs() / denom < tol,
                "gradient mismatch: {x} vs {y} (tol {tol})\n{a:?}\n{b:?}"
            );
        }
    }

    fn seeded(rows: usize, cols: usize, seed: u32) -> Tensor {
        // Tiny deterministic LCG; magnitudes ~U(-0.5, 0.5).
        let mut s = seed.wrapping_mul(2_654_435_761).max(1);
        let data = (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn matmul_gradcheck() {
        let a0 = seeded(3, 4, 1);
        let b0 = seeded(4, 2, 2);
        let loss = |a: &Tensor, b: &Tensor| {
            let mut t = Tape::new();
            let (va, vb) = (t.leaf(a.clone()), t.leaf(b.clone()));
            let c = t.matmul(va, vb);
            t.value(c).data().iter().sum::<f32>()
        };
        let mut t = Tape::new();
        let (va, vb) = (t.leaf(a0.clone()), t.leaf(b0.clone()));
        let c = t.matmul(va, vb);
        let ones = Tensor::from_vec(3, 2, vec![1.0; 6]);
        t.backward(c, ones);
        assert_close(&t.grad(va), &finite_diff(|a| loss(a, &b0), &a0, 1e-3), 2e-2);
        assert_close(&t.grad(vb), &finite_diff(|b| loss(&a0, b), &b0, 1e-3), 2e-2);
    }

    #[test]
    fn layer_norm_gradcheck() {
        let x0 = seeded(2, 6, 3);
        let g0 = seeded(1, 6, 4);
        let b0 = seeded(1, 6, 5);
        let loss = |x: &Tensor, g: &Tensor, b: &Tensor| {
            let mut t = Tape::new();
            let (vx, vg, vb) = (t.leaf(x.clone()), t.leaf(g.clone()), t.leaf(b.clone()));
            let y = t.layer_norm(vx, vg, vb);
            t.value(y)
                .data()
                .iter()
                .enumerate()
                .map(|(i, v)| v * (i as f32 + 1.0))
                .sum::<f32>()
        };
        let mut t = Tape::new();
        let (vx, vg, vb) = (t.leaf(x0.clone()), t.leaf(g0.clone()), t.leaf(b0.clone()));
        let y = t.layer_norm(vx, vg, vb);
        let seed = Tensor::from_vec(2, 6, (0..12).map(|i| i as f32 + 1.0).collect());
        t.backward(y, seed);
        assert_close(
            &t.grad(vx),
            &finite_diff(|x| loss(x, &g0, &b0), &x0, 1e-3),
            3e-2,
        );
        assert_close(
            &t.grad(vg),
            &finite_diff(|g| loss(&x0, g, &b0), &g0, 1e-3),
            3e-2,
        );
        assert_close(
            &t.grad(vb),
            &finite_diff(|b| loss(&x0, &g0, b), &b0, 1e-3),
            3e-2,
        );
    }

    #[test]
    fn attention_gradcheck() {
        let (s, h, heads) = (4, 6, 2);
        let q0 = seeded(s, h, 7);
        let k0 = seeded(s, h, 8);
        let v0 = seeded(s, h, 9);
        let weight: Vec<f32> = (0..s * h).map(|i| ((i % 5) as f32 - 2.0) / 3.0).collect();
        let loss = |q: &Tensor, k: &Tensor, v: &Tensor| {
            let mut t = Tape::new();
            let (vq, vk, vv) = (t.leaf(q.clone()), t.leaf(k.clone()), t.leaf(v.clone()));
            let o = t.causal_attention(vq, vk, vv, heads);
            t.value(o)
                .data()
                .iter()
                .zip(&weight)
                .map(|(a, w)| a * w)
                .sum::<f32>()
        };
        let mut t = Tape::new();
        let (vq, vk, vv) = (t.leaf(q0.clone()), t.leaf(k0.clone()), t.leaf(v0.clone()));
        let o = t.causal_attention(vq, vk, vv, heads);
        t.backward(o, Tensor::from_vec(s, h, weight.clone()));
        assert_close(
            &t.grad(vq),
            &finite_diff(|q| loss(q, &k0, &v0), &q0, 1e-3),
            4e-2,
        );
        assert_close(
            &t.grad(vk),
            &finite_diff(|k| loss(&q0, k, &v0), &k0, 1e-3),
            4e-2,
        );
        assert_close(
            &t.grad(vv),
            &finite_diff(|v| loss(&q0, &k0, v), &v0, 1e-3),
            4e-2,
        );
    }

    #[test]
    fn gelu_and_bias_gradcheck() {
        let x0 = seeded(2, 5, 11);
        let b0 = seeded(1, 5, 12);
        let loss = |x: &Tensor, b: &Tensor| {
            let mut t = Tape::new();
            let (vx, vb) = (t.leaf(x.clone()), t.leaf(b.clone()));
            let y = t.add_bias(vx, vb);
            let z = t.gelu(y);
            t.value(z).data().iter().sum::<f32>()
        };
        let mut t = Tape::new();
        let (vx, vb) = (t.leaf(x0.clone()), t.leaf(b0.clone()));
        let y = t.add_bias(vx, vb);
        let z = t.gelu(y);
        t.backward(z, Tensor::from_vec(2, 5, vec![1.0; 10]));
        assert_close(&t.grad(vx), &finite_diff(|x| loss(x, &b0), &x0, 1e-3), 2e-2);
        assert_close(&t.grad(vb), &finite_diff(|b| loss(&x0, b), &b0, 1e-3), 2e-2);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let l0 = seeded(3, 5, 13);
        let targets = vec![1usize, 4, 0];
        let loss = |l: &Tensor| {
            let mut t = Tape::new();
            let vl = t.leaf(l.clone());
            let c = t.cross_entropy(vl, &targets);
            t.value(c).at(0, 0)
        };
        let mut t = Tape::new();
        let vl = t.leaf(l0.clone());
        let c = t.cross_entropy(vl, &targets);
        t.backward(c, Tensor::from_vec(1, 1, vec![1.0]));
        assert_close(&t.grad(vl), &finite_diff(loss, &l0, 1e-3), 2e-2);
    }

    #[test]
    fn embedding_scatters_gradients() {
        let table = seeded(10, 4, 14);
        let pos = seeded(3, 4, 15);
        let mut t = Tape::new();
        let (vt, vp) = (t.leaf(table), t.leaf(pos));
        let e = t.embedding(vt, vp, &[2, 2, 7]);
        let seed = Tensor::from_vec(3, 4, vec![1.0; 12]);
        t.backward(e, seed);
        let dt = t.grad(vt);
        // Token 2 appears twice, token 7 once, others never.
        assert_eq!(dt.at(2, 0), 2.0);
        assert_eq!(dt.at(7, 0), 1.0);
        assert_eq!(dt.at(0, 0), 0.0);
        assert_eq!(t.grad(vp).at(1, 3), 1.0);
    }

    #[test]
    fn silu_mul_gradcheck() {
        let g0 = seeded(2, 5, 21);
        let u0 = seeded(2, 5, 22);
        let loss = |g: &Tensor, u: &Tensor| {
            let mut t = Tape::new();
            let (vg, vu) = (t.leaf(g.clone()), t.leaf(u.clone()));
            let y = t.silu_mul(vg, vu);
            t.value(y).data().iter().sum::<f32>()
        };
        let mut t = Tape::new();
        let (vg, vu) = (t.leaf(g0.clone()), t.leaf(u0.clone()));
        let y = t.silu_mul(vg, vu);
        t.backward(y, Tensor::from_vec(2, 5, vec![1.0; 10]));
        assert_close(&t.grad(vg), &finite_diff(|g| loss(g, &u0), &g0, 1e-3), 2e-2);
        assert_close(&t.grad(vu), &finite_diff(|u| loss(&g0, u), &u0, 1e-3), 2e-2);
    }

    #[test]
    fn gqa_attention_gradcheck() {
        let (s, heads, kv_heads, dh) = (4usize, 4usize, 2usize, 3usize);
        let q0 = seeded(s, heads * dh, 31);
        let k0 = seeded(s, kv_heads * dh, 32);
        let v0 = seeded(s, kv_heads * dh, 33);
        let loss = |q: &Tensor, k: &Tensor, v: &Tensor| {
            let mut t = Tape::new();
            let (vq, vk, vv) = (t.leaf(q.clone()), t.leaf(k.clone()), t.leaf(v.clone()));
            let o = t.causal_attention_gqa(vq, vk, vv, heads, kv_heads);
            t.value(o).data().iter().sum::<f32>()
        };
        let mut t = Tape::new();
        let (vq, vk, vv) = (t.leaf(q0.clone()), t.leaf(k0.clone()), t.leaf(v0.clone()));
        let o = t.causal_attention_gqa(vq, vk, vv, heads, kv_heads);
        let ones = Tensor::from_vec(s, heads * dh, vec![1.0; s * heads * dh]);
        t.backward(o, ones);
        assert_close(
            &t.grad(vq),
            &finite_diff(|q| loss(q, &k0, &v0), &q0, 1e-3),
            4e-2,
        );
        assert_close(
            &t.grad(vk),
            &finite_diff(|k| loss(&q0, k, &v0), &k0, 1e-3),
            4e-2,
        );
        assert_close(
            &t.grad(vv),
            &finite_diff(|v| loss(&q0, &k0, v), &v0, 1e-3),
            4e-2,
        );
    }

    #[test]
    fn gqa_reduces_to_mha_when_heads_match() {
        let (s, h) = (4usize, 6usize);
        let q = seeded(s, h, 41);
        let k = seeded(s, h, 42);
        let v = seeded(s, h, 43);
        let mut t1 = Tape::new();
        let (a, b, c) = (t1.leaf(q.clone()), t1.leaf(k.clone()), t1.leaf(v.clone()));
        let o1 = t1.causal_attention(a, b, c, 2);
        let mut t2 = Tape::new();
        let (a, b, c) = (t2.leaf(q), t2.leaf(k), t2.leaf(v));
        let o2 = t2.causal_attention_gqa(a, b, c, 2, 2);
        assert_eq!(t1.value(o1), t2.value(o2));
    }

    #[test]
    fn dropout_mask_is_replayable_and_scales() {
        let x0 = seeded(4, 8, 51);
        let run = |key: u64| {
            let mut t = Tape::new();
            let vx = t.leaf(x0.clone());
            let y = t.dropout(vx, 0.5, key);
            t.value(y).clone()
        };
        // Same key → identical mask (the recomputation-replay property).
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        // Kept elements are scaled by 1 / (1 - rate).
        let y = run(7);
        for (a, b) in x0.data().iter().zip(y.data()) {
            assert!(*b == 0.0 || (b - a * 2.0).abs() < 1e-6);
        }
        // Drop fraction is near the rate.
        let zeros = y.data().iter().filter(|v| **v == 0.0).count();
        assert!((4..=28).contains(&zeros), "{zeros} zeros of 32");
    }

    #[test]
    fn dropout_gradient_matches_mask() {
        let x0 = seeded(3, 6, 61);
        let mut t = Tape::new();
        let vx = t.leaf(x0.clone());
        let y = t.dropout(vx, 0.3, 99);
        let kept: Vec<bool> = t.value(y).data().iter().map(|v| *v != 0.0).collect();
        t.backward(y, Tensor::from_vec(3, 6, vec![1.0; 18]));
        let g = t.grad(vx);
        for (i, &k) in kept.iter().enumerate() {
            if k {
                assert!((g.data()[i] - 1.0 / 0.7).abs() < 1e-5);
            } else {
                assert_eq!(g.data()[i], 0.0);
            }
        }
    }

    #[test]
    fn zero_rate_dropout_is_identity() {
        let x0 = seeded(2, 4, 71);
        let mut t = Tape::new();
        let vx = t.leaf(x0.clone());
        let y = t.dropout(vx, 0.0, 1);
        assert_eq!(t.value(y), &x0);
    }

    #[test]
    fn residual_add_gradcheck() {
        let a0 = seeded(2, 3, 16);
        let mut t = Tape::new();
        let va = t.leaf(a0.clone());
        let vb = t.leaf(a0.clone());
        let y = t.add(va, vb);
        t.backward(y, Tensor::from_vec(2, 3, vec![2.0; 6]));
        assert_eq!(t.grad(va).data(), &[2.0; 6]);
        assert_eq!(t.grad(vb).data(), &[2.0; 6]);
    }
}
