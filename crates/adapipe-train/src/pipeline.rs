// lint: allow-file(index): stage/channel wiring is built by Pipeline::new
// with one sender/receiver per boundary; an out-of-range stage is a
// construction bug the ctor asserts, not a runtime condition a caller can
// trigger.
//! The multi-threaded 1F1B pipeline executor.
//!
//! Each stage runs on its own thread, connected to its neighbours by
//! channels — activations flow forward, gradients flow backward — and
//! executes the 1F1B script (warmup forwards, steady 1F1B alternation,
//! backward drain). Gradients accumulate across micro-batches and a
//! synchronous SGD step closes the iteration, exactly like the DAPPLE
//! engine the paper builds on.

#![expect(
    clippy::expect_used,
    reason = "Pipeline::new wires one sender/receiver per boundary; a missing channel \
              is a construction bug, not a runtime condition a caller can trigger"
)]

use crate::stage::{ExecCtx, ForwardCache, StageModule};
use crate::tape::Tape;
use crate::tensor::Tensor;
use crate::units::Optimizer;
use adapipe_faults::DegradationEvent;
use adapipe_sim::schedule::f1b_position;
use adapipe_sim::OpKind;
use adapipe_units::{Bytes, MicroSecs};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Instant;

/// Runtime degradation detection for the threaded trainer: per-stage
/// saved-activation budgets and an optional per-op wall-clock deadline.
/// An empty watchdog (the [`Default`]) checks nothing and costs nothing.
///
/// The trainer *reports* violations as typed [`DegradationEvent`]s and
/// finishes the iteration — graceful degradation — rather than
/// panicking mid-pipeline; the caller decides whether to retry, replan
/// or abort.
#[derive(Debug, Clone, Default)]
pub struct TrainWatchdog {
    /// Saved-activation high-water budget per stage (stages beyond
    /// `budgets.len()` are unchecked) — the trainer-side analogue of
    /// the Eq. (1)-(2) activation budget.
    pub budgets: Vec<Bytes>,
    /// Wall-clock deadline per forward/backward op (`None` disables
    /// timing). The planner-side analogue is α × the planned stage
    /// time; here the caller supplies the absolute cutoff.
    pub deadline: Option<MicroSecs>,
}

impl TrainWatchdog {
    /// Whether any check is armed.
    #[must_use]
    pub fn is_armed(&self) -> bool {
        !self.budgets.is_empty() || self.deadline.is_some()
    }
}

/// Stage `s`'s ops in 1F1B script order ([`f1b_position`]), each a kind
/// and a micro-batch.
fn f1b_script(p: usize, s: usize, n: usize) -> Vec<(OpKind, usize)> {
    let mut ops: Vec<_> = (0..n)
        .flat_map(|m| [(OpKind::Forward, m), (OpKind::Backward, m)])
        .collect();
    ops.sort_by_key(|&(kind, m)| f1b_position(kind, m, s, p, n));
    ops
}

/// One training iteration over `n` micro-batches with SGD — see
/// [`train_iteration_with`].
///
/// # Panics
///
/// As for [`train_iteration_with`].
pub fn train_iteration(
    stages: &mut [StageModule],
    batches: &[(Vec<usize>, Vec<usize>)],
    lr: f32,
) -> f32 {
    train_iteration_with(stages, batches, Optimizer::Sgd { lr }, 0)
}

/// One training iteration over `n` micro-batches: forward/backward every
/// micro-batch under 1F1B, accumulate gradients, take one optimizer
/// step. Returns the mean loss across micro-batches.
///
/// `batches[m]` is the `(input ids, target ids)` pair of micro-batch
/// `m`; `step` is the 0-based training step (it seeds dropout masks and
/// drives Adam's bias correction).
///
/// # Panics
///
/// Panics if `stages` is empty, `batches` is empty, or a stage thread
/// panics (e.g. shape mismatch).
pub fn train_iteration_with(
    stages: &mut [StageModule],
    batches: &[(Vec<usize>, Vec<usize>)],
    opt: Optimizer,
    step: usize,
) -> f32 {
    train_iteration_watched(stages, batches, opt, step, &TrainWatchdog::default()).0
}

/// [`train_iteration_with`] plus runtime degradation detection: returns
/// the mean loss and every [`DegradationEvent`] the watchdog raised
/// (saved-activation high-water over budget, per-op deadline misses),
/// in stage order. Violations never abort the iteration.
///
/// # Panics
///
/// As for [`train_iteration_with`].
pub fn train_iteration_watched(
    stages: &mut [StageModule],
    batches: &[(Vec<usize>, Vec<usize>)],
    opt: Optimizer,
    step: usize,
    watch: &TrainWatchdog,
) -> (f32, Vec<DegradationEvent>) {
    let p = stages.len();
    let n = batches.len();
    assert!(p > 0, "need at least one stage");
    assert!(n > 0, "need at least one micro-batch");

    // Channels between neighbours. Bounded at `n`: each direction
    // carries exactly one tensor per micro-batch per iteration, so the
    // senders never block, but a scheduling bug that over-produces now
    // deadlocks loudly instead of buffering without limit.
    let mut fwd_tx: Vec<Option<mpsc::SyncSender<Tensor>>> = Vec::new();
    let mut fwd_rx: Vec<Option<mpsc::Receiver<Tensor>>> = vec![None];
    let mut bwd_tx: Vec<Option<mpsc::SyncSender<Tensor>>> = vec![None];
    let mut bwd_rx: Vec<Option<mpsc::Receiver<Tensor>>> = Vec::new();
    for _ in 0..p - 1 {
        let (ftx, frx) = mpsc::sync_channel(n);
        fwd_tx.push(Some(ftx));
        fwd_rx.push(Some(frx));
        let (btx, brx) = mpsc::sync_channel(n);
        bwd_tx.push(Some(btx));
        bwd_rx.push(Some(brx));
    }
    fwd_tx.push(None);
    bwd_rx.push(None);

    let mut loss_sum = 0.0f32;
    let mut all_events = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (s, stage) in stages.iter_mut().enumerate() {
            let fwd_in = fwd_rx[s].take();
            let fwd_out = fwd_tx[s].take();
            let bwd_in = bwd_rx[s].take();
            let bwd_out = bwd_tx[s].take();
            let batches = &batches;
            let budget = watch.budgets.get(s).copied();
            let deadline = watch.deadline;
            handles.push(scope.spawn(move || {
                stage.zero_grads();
                // Both queues are bounded by the in-flight micro-batch
                // count: 1F1B holds at most `n` forward caches (and in
                // practice at most the warmup depth) before the
                // matching backward drains them.
                let mut caches: VecDeque<(usize, ForwardCache)> = VecDeque::with_capacity(n);
                let mut pending_grads: VecDeque<(usize, Tensor)> = VecDeque::with_capacity(n);
                let mut losses = 0.0f32;
                let mut events: Vec<DegradationEvent> = Vec::new();
                let mut live_bytes = 0usize;
                let mut high_water = 0usize;
                let check_deadline =
                    |events: &mut Vec<DegradationEvent>, m: usize, started: Option<Instant>| {
                        let (Some(deadline), Some(t0)) = (deadline, started) else {
                            return;
                        };
                        let observed = MicroSecs::new(t0.elapsed().as_secs_f64() * 1e6);
                        if observed > deadline {
                            events.push(DegradationEvent::DeadlineMissed {
                                stage: s,
                                micro_batch: m,
                                observed,
                                deadline,
                            });
                        }
                    };
                let is_first = s == 0;
                let is_last = s == p - 1;
                for (kind, m) in f1b_script(p, s, n) {
                    match kind {
                        OpKind::Forward => {
                            let ctx = ExecCtx {
                                step,
                                micro_batch: m,
                            };
                            // The deadline clocks compute, not the wait
                            // for the upstream activation.
                            let (x, started) = if is_first {
                                (None, deadline.map(|_| Instant::now()))
                            } else {
                                let x = fwd_in
                                    .as_ref()
                                    .expect("interior stage has input channel")
                                    .recv()
                                    .expect("previous stage alive");
                                (Some(x), deadline.map(|_| Instant::now()))
                            };
                            let (cache, out) = if is_first {
                                stage.forward(None, Some(&batches[m].0), ctx)
                            } else {
                                stage.forward(x, None, ctx)
                            };
                            check_deadline(&mut events, m, started);
                            live_bytes += cache.saved_bytes();
                            high_water = high_water.max(live_bytes);
                            caches.push_back((m, cache));
                            if let Some(tx) = &fwd_out {
                                tx.send(out).expect("next stage alive");
                            } else {
                                // Last stage: out = logits. Compute loss
                                // and the logits gradient right away.
                                let mut tape = Tape::new();
                                let logits = tape.leaf(out);
                                let loss = tape.cross_entropy(logits, &batches[m].1);
                                losses += tape.value(loss).at(0, 0);
                                tape.backward(loss, Tensor::from_vec(1, 1, vec![1.0]));
                                pending_grads.push_back((m, tape.grad(logits)));
                            }
                        }
                        OpKind::Backward => {
                            let grad = if is_last {
                                let (gm, g) = pending_grads
                                    .pop_front()
                                    .expect("forward precedes backward");
                                assert_eq!(gm, m, "1f1b order violated");
                                g
                            } else {
                                bwd_in
                                    .as_ref()
                                    .expect("interior stage has grad channel")
                                    .recv()
                                    .expect("next stage alive")
                            };
                            let started = deadline.map(|_| Instant::now());
                            let (cm, cache) =
                                caches.pop_front().expect("forward precedes backward");
                            assert_eq!(cm, m, "1f1b order violated");
                            let g_in = stage.backward(&cache, grad);
                            check_deadline(&mut events, m, started);
                            live_bytes = live_bytes.saturating_sub(cache.saved_bytes());
                            if let Some(tx) = &bwd_out {
                                tx.send(g_in.expect("non-embedding stage has input grad"))
                                    .expect("previous stage alive");
                            }
                        }
                    }
                }
                if let Some(budget) = budget {
                    let high_water = Bytes::new(high_water as u64);
                    if !high_water.fits(budget) {
                        events.push(DegradationEvent::BudgetExceeded {
                            stage: s,
                            high_water,
                            budget,
                        });
                    }
                }
                stage.optimizer_step(opt, step + 1, n as f32);
                (losses, events)
            }));
        }
        for h in handles {
            let (losses, events) = h.join().expect("stage thread panicked");
            loss_sum += losses;
            all_events.extend(events);
        }
    });
    (loss_sum / n as f32, all_events)
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
            max_seq: 8,
            swiglu: false,
            dropout: 0.0,
        }
    }

    /// A 2-stage pipeline: [emb, attn, ffn] | [attn, ffn, head].
    fn two_stage(save_all: bool) -> Vec<StageModule> {
        let d = dims();
        let mut rng = init_rng(11);
        let mut all = Vec::new();
        all.extend(build_layer_units(d, LayerKind::Embedding, 0, &mut rng));
        for l in 0..2 {
            all.extend(build_layer_units(
                d,
                LayerKind::Attention,
                1 + 2 * l,
                &mut rng,
            ));
            all.extend(build_layer_units(
                d,
                LayerKind::FeedForward,
                2 + 2 * l,
                &mut rng,
            ));
        }
        all.extend(build_layer_units(d, LayerKind::DecodingHead, 5, &mut rng));
        // Split after the first ffn (layer index 2): 1 + 6 + 4 units.
        let second: Vec<_> = all.split_off(11);
        let mk = |units: Vec<crate::units::UnitModule>| {
            let saved = units.iter().map(|u| save_all || u.is_pinned()).collect();
            StageModule::new_simple(units, saved, d.heads)
        };
        vec![mk(all), mk(second)]
    }

    fn batches(n: usize, seq: usize) -> Vec<(Vec<usize>, Vec<usize>)> {
        (0..n)
            .map(|m| {
                let ids: Vec<usize> = (0..seq).map(|i| (i * 3 + m) % 24).collect();
                let tgt: Vec<usize> = (0..seq).map(|i| (i * 3 + m + 1) % 24).collect();
                (ids, tgt)
            })
            .collect()
    }

    #[test]
    fn f1b_script_covers_all_ops_in_order() {
        let script = f1b_script(3, 0, 5);
        let (f, b) = (OpKind::Forward, OpKind::Backward);
        // Two warmup forwards on stage 0 of a 3-stage pipe, then F/B
        // alternation, then the backward drain.
        assert_eq!(
            script,
            [
                (f, 0),
                (f, 1),
                (f, 2),
                (b, 0),
                (f, 3),
                (b, 1),
                (f, 4),
                (b, 2),
                (b, 3),
                (b, 4)
            ]
        );
    }

    #[test]
    fn pipeline_loss_decreases() {
        let mut stages = two_stage(true);
        let bs = batches(3, 6);
        let first = train_iteration(&mut stages, &bs, 0.05);
        let mut last = first;
        for _ in 0..10 {
            last = train_iteration(&mut stages, &bs, 0.05);
        }
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn recomputation_gives_bit_identical_training() {
        let bs = batches(4, 6);
        let mut full = two_stage(false);
        let mut none = two_stage(true);
        for step in 0..3 {
            let lf = train_iteration(&mut full, &bs, 0.05);
            let ln = train_iteration(&mut none, &bs, 0.05);
            assert_eq!(lf, ln, "losses diverged at step {step}");
        }
    }

    #[test]
    fn disarmed_watchdog_changes_nothing_and_raises_nothing() {
        let bs = batches(3, 6);
        let mut plain = two_stage(true);
        let mut watched = two_stage(true);
        let expect = train_iteration(&mut plain, &bs, 0.05);
        let (loss, events) = train_iteration_watched(
            &mut watched,
            &bs,
            Optimizer::Sgd { lr: 0.05 },
            0,
            &TrainWatchdog::default(),
        );
        assert_eq!(loss, expect, "watchdog must not perturb the math");
        assert!(events.is_empty(), "{events:?}");
        assert!(!TrainWatchdog::default().is_armed());
    }

    #[test]
    fn activation_overrun_is_reported_not_fatal() {
        let mut stages = two_stage(true);
        let bs = batches(3, 6);
        // A 1-byte budget on stage 0; stage 1 unchecked.
        let watch = TrainWatchdog {
            budgets: vec![adapipe_units::Bytes::new(1)],
            deadline: None,
        };
        let (loss, events) =
            train_iteration_watched(&mut stages, &bs, Optimizer::Sgd { lr: 0.05 }, 0, &watch);
        assert!(
            loss.is_finite(),
            "iteration must complete despite the overrun"
        );
        assert_eq!(events.len(), 1, "{events:?}");
        match &events[0] {
            DegradationEvent::BudgetExceeded {
                stage,
                high_water,
                budget,
            } => {
                assert_eq!(*stage, 0);
                assert!(*high_water > *budget);
            }
            other => panic!("expected a budget event, got {other:?}"),
        }
    }

    #[test]
    fn impossible_deadline_reports_misses_with_op_identity() {
        let mut stages = two_stage(true);
        let bs = batches(2, 6);
        let watch = TrainWatchdog {
            budgets: Vec::new(),
            deadline: Some(MicroSecs::new(0.0)),
        };
        assert!(watch.is_armed());
        let (_, events) =
            train_iteration_watched(&mut stages, &bs, Optimizer::Sgd { lr: 0.05 }, 0, &watch);
        // Every op takes > 0 µs, so every (stage, micro-batch, pass)
        // misses: 2 stages × 2 micro-batches × 2 passes.
        assert_eq!(events.len(), 8, "{events:?}");
        for e in &events {
            match e {
                DegradationEvent::DeadlineMissed {
                    stage,
                    micro_batch,
                    observed,
                    deadline,
                } => {
                    assert!(*stage < 2);
                    assert!(*micro_batch < 2);
                    assert!(observed > deadline);
                }
                other => panic!("expected deadline misses, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_stage_pipeline_works() {
        let d = dims();
        let mut rng = init_rng(5);
        let mut all = Vec::new();
        all.extend(build_layer_units(d, LayerKind::Embedding, 0, &mut rng));
        all.extend(build_layer_units(d, LayerKind::Attention, 1, &mut rng));
        all.extend(build_layer_units(d, LayerKind::FeedForward, 2, &mut rng));
        all.extend(build_layer_units(d, LayerKind::DecodingHead, 3, &mut rng));
        let saved = all.iter().map(|u| u.is_pinned()).collect();
        let mut stages = vec![StageModule::new_simple(all, saved, d.heads)];
        let loss = train_iteration(&mut stages, &batches(2, 4), 0.01);
        assert!(loss.is_finite() && loss > 0.0);
    }
}
