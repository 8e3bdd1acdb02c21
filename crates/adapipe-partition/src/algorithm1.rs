//! Algorithm 1 of the paper: the partitioning dynamic program.
//!
//! `P[s, i]` is the best plan for assigning layers `i..` to stages
//! `s..p−1`. The DP sweeps stages from `p−2` down to `0`, trying every
//! split point `j` for stage `s`'s window `i..=j`, and combines the
//! Equation (3) recurrences with the knapsack-optimized `f[s,i,j]` and
//! `b[s,i,j]` supplied by a [`StageCostProvider`].
//!
//! Infeasible windows (`None` from the provider) simply contribute no
//! candidate; if no feasible plan reaches `P[0, 0]`, the whole
//! configuration is out of memory.

// The DP sweeps below keep the paper's index notation (P[s, i], splits j).
#![allow(clippy::needless_range_loop)]

use crate::cost::{F1bBreakdown, StageTimes};
use crate::provider::StageCostProvider;
use adapipe_model::LayerRange;
use adapipe_obs::{keys, Recorder};
use adapipe_units::{convert, Cost, MicroSecs};
use serde::{Deserialize, Serialize};

/// The output of Algorithm 1: per-stage layer ranges, their optimized
/// forward/backward times, and the analytic iteration breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionPlan {
    /// Layer range of each stage, in pipeline order.
    pub ranges: Vec<LayerRange>,
    /// Optimized `F_s`/`B_s` of each stage.
    pub stage_times: Vec<StageTimes>,
    /// Warmup / steady / ending decomposition of one iteration.
    pub breakdown: F1bBreakdown,
}

impl PartitionPlan {
    /// Predicted iteration time.
    #[must_use]
    pub fn iteration_time(&self) -> MicroSecs {
        self.breakdown.total()
    }
}

/// One DP state: the best continuation from `(stage, first_layer)`.
#[derive(Debug, Clone, Copy)]
struct State {
    /// Warmup time `W_s`.
    w: MicroSecs,
    /// Ending time `E_s`.
    e: MicroSecs,
    /// Bottleneck micro-step `M_s` over stages `s..`.
    m: MicroSecs,
    /// Forward time of stage `s` itself.
    f: MicroSecs,
    /// Backward time of stage `s` itself.
    b: MicroSecs,
    /// Objective `W + E + (n − p + s)·M` used for comparisons; the
    /// NaN-free [`Cost`] order makes `<` a genuine total order here.
    t: Cost,
    /// Chosen last layer of stage `s` (split point).
    split: usize,
}

/// Runs Algorithm 1 for `num_layers` layers over `p` stages and `n`
/// micro-batches per iteration. Returns `None` when no feasible partition
/// exists (every choice runs out of memory somewhere).
///
/// DP effort goes to `rec` (pass [`Recorder::disabled()`] to opt out):
/// states filled (`partition.alg1.states`), split candidates scored
/// (`partition.alg1.candidates`) and total solve time inside a
/// `partition.alg1` span.
///
/// This is the crate's only Algorithm 1 entry point. It keeps the
/// `_traced` suffix only because the paper-scale benchmark under
/// `perfbench/` calls it by this name; the rename to `solve` waits for
/// the next change to that package.
///
/// # Panics
///
/// Panics if `p == 0`, `p > num_layers`, or `n < p`.
#[must_use]
pub fn solve_traced(
    provider: &impl StageCostProvider,
    num_layers: usize,
    p: usize,
    n: usize,
    rec: &Recorder,
) -> Option<PartitionPlan> {
    let _span = rec.span_cat(keys::SPAN_PARTITION_ALG1, "partition");
    let mut states: u64 = 0;
    let mut candidates: u64 = 0;
    assert!(p > 0, "pipeline size must be positive");
    assert!(
        p <= num_layers,
        "more stages ({p}) than layers ({num_layers})"
    );
    assert!(n >= p, "1F1B needs n >= p (n={n}, p={p})");
    let l = num_layers;

    // P[s][i]; only i in [s, l - (p - s)] are reachable.
    let mut table: Vec<Vec<Option<State>>> = vec![vec![None; l]; p];

    // Base case: the last stage takes everything from i to the end.
    for i in (p - 1)..l {
        states += 1;
        candidates += 1;
        let range = LayerRange::new(i, l - 1);
        if let Some(times) = provider.stage_times(p - 1, range) {
            let m = times.f + times.b;
            table[p - 1][i] = Some(State {
                w: times.f,
                e: times.b,
                m,
                f: times.f,
                b: times.b,
                t: Cost::of(times.f + times.b + convert::count_f64(n - 1) * m),
                split: l - 1,
            });
        }
    }

    // Backwards sweep over stages.
    for s in (0..p - 1).rev() {
        let remaining = p - s; // stages still to place, including s
        for i in s..=(l - remaining) {
            states += 1;
            let mut best: Option<State> = None;
            // Stage s takes layers i..=j; the tail needs p-1-s layers.
            for j in i..=(l - remaining) {
                candidates += 1;
                let Some(next) = table[s + 1][j + 1] else {
                    continue;
                };
                let range = LayerRange::new(i, j);
                let Some(times) = provider.stage_times(s, range) else {
                    continue;
                };
                let ahead = convert::count_f64(p - s - 1);
                let w = times.f + (next.w + next.b).max(ahead * times.f);
                let e = times.b + (next.e + next.f).max(ahead * times.b);
                let m = next.m.max(times.f + times.b);
                let t = Cost::of(w + e + convert::count_f64(n - p + s) * m);
                if best.is_none_or(|cur| t < cur.t) {
                    best = Some(State {
                        w,
                        e,
                        m,
                        f: times.f,
                        b: times.b,
                        t,
                        split: j,
                    });
                }
            }
            table[s][i] = best;
        }
    }

    rec.add(keys::ALG1_STATES, states);
    rec.add(keys::ALG1_CANDIDATES, candidates);

    // Reconstruct the winning partition from P[0, 0].
    let mut ranges = Vec::with_capacity(p);
    let mut stage_times = Vec::with_capacity(p);
    let mut first = 0usize;
    for s in 0..p {
        let state = table[s][first]?;
        let range = LayerRange::new(first, state.split);
        ranges.push(range);
        stage_times.push(StageTimes {
            f: state.f,
            b: state.b,
        });
        first = state.split + 1;
    }
    let root = (*table.first()?.first()?)?;
    Some(PartitionPlan {
        ranges,
        stage_times,
        breakdown: F1bBreakdown {
            warmup: root.w,
            steady: convert::count_f64(n - p) * root.m,
            ending: root.e,
            bottleneck: root.m,
        },
    })
}

/// Enumerates every `(stage, layer window)` pair [`solve_traced`] can
/// query for an instance of `num_layers` layers over `p` stages, in the
/// same order the DP visits them. Feed the result to
/// [`KnapsackCostProvider::prefill`](crate::KnapsackCostProvider::prefill)
/// to evaluate the isomorphism-class representatives in parallel before
/// the serial DP sweep; the DP then answers every `stage_times` query
/// from the warm cache.
///
/// The sweep over-approximates slightly: the DP skips a window when the
/// tail `P[s+1][j+1]` is already known infeasible, while this
/// enumeration cannot know that. Extra windows only cost extra cached
/// leaves — the returned plan is unaffected.
///
/// # Panics
///
/// Panics under the same preconditions as [`solve_traced`]: `p == 0` or
/// `p > num_layers`.
#[must_use]
pub fn reachable_windows(num_layers: usize, p: usize) -> Vec<(usize, LayerRange)> {
    assert!(p > 0, "pipeline size must be positive");
    assert!(
        p <= num_layers,
        "more stages ({p}) than layers ({num_layers})"
    );
    let l = num_layers;
    let mut windows = Vec::new();
    for i in (p - 1)..l {
        windows.push((p - 1, LayerRange::new(i, l - 1)));
    }
    for s in (0..p - 1).rev() {
        let remaining = p - s;
        for i in s..=(l - remaining) {
            for j in i..=(l - remaining) {
                windows.push((s, LayerRange::new(i, j)));
            }
        }
    }
    windows
}

/// Evaluates a *given* partition (e.g. the even-partitioning baseline)
/// under the same per-stage optimization: each stage still gets its best
/// recomputation strategy, only the boundaries are fixed. Returns `None`
/// if any stage is infeasible.
#[must_use]
pub fn evaluate_partition(
    provider: &impl StageCostProvider,
    ranges: &[LayerRange],
    n: usize,
) -> Option<PartitionPlan> {
    let mut stage_times = Vec::with_capacity(ranges.len());
    for (s, range) in ranges.iter().enumerate() {
        stage_times.push(provider.stage_times(s, *range)?);
    }
    let breakdown = crate::cost::f1b_iteration_time(&stage_times, n);
    Some(PartitionPlan {
        ranges: ranges.to_vec(),
        stage_times,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::StageCostProvider;
    use adapipe_model::LayerRange;
    use adapipe_units::MicroSecs;

    /// A synthetic provider: layer `k` costs `weights[k]` forward and
    /// `2·weights[k]` backward, no memory constraints.
    struct Synthetic {
        weights: Vec<f64>,
    }

    impl StageCostProvider for Synthetic {
        fn stage_times(&self, _stage: usize, range: LayerRange) -> Option<StageTimes> {
            let f: f64 = self.weights[range.first..=range.last].iter().sum();
            Some(StageTimes {
                f: MicroSecs::new(f),
                b: MicroSecs::new(2.0 * f),
            })
        }
    }

    /// Exhaustive search over all partitions for small instances.
    fn exhaustive_best(provider: &impl StageCostProvider, l: usize, p: usize, n: usize) -> f64 {
        crate::exhaustive::solve(provider, l, p, n)
            .map_or(f64::INFINITY, |plan| plan.iteration_time().as_micros())
    }

    #[test]
    fn uniform_layers_get_even_partition_cost() {
        let provider = Synthetic {
            weights: vec![1.0; 8],
        };
        let plan = solve_traced(&provider, 8, 4, 16, &Recorder::disabled()).unwrap();
        // All stages must end up with equal work: bottleneck = 2 layers.
        assert!((plan.breakdown.bottleneck.as_micros() - 6.0).abs() < 1e-12);
        let lens: Vec<usize> = plan.ranges.iter().map(LayerRange::len).collect();
        assert_eq!(lens, vec![2, 2, 2, 2]);
    }

    #[test]
    fn heavy_tail_layer_gets_own_stage() {
        // One layer is 10x the others; the optimum isolates it.
        let mut weights = vec![1.0; 6];
        weights[5] = 10.0;
        let provider = Synthetic { weights };
        let plan = solve_traced(&provider, 6, 3, 12, &Recorder::disabled()).unwrap();
        let last = *plan.ranges.last().unwrap();
        assert_eq!((last.first, last.last), (5, 5));
    }

    #[test]
    fn dp_matches_exhaustive_search() {
        for (l, p, n) in [(6usize, 2usize, 8usize), (7, 3, 6), (8, 4, 8), (9, 3, 20)] {
            let weights: Vec<f64> = (0..l)
                .map(|k| 1.0 + 0.37 * (k as f64).sin().abs())
                .collect();
            let provider = Synthetic { weights };
            let plan = solve_traced(&provider, l, p, n, &Recorder::disabled()).unwrap();
            let best = exhaustive_best(&provider, l, p, n);
            assert!(
                (plan.iteration_time().as_micros() - best).abs() < 1e-9,
                "l={l} p={p} n={n}: dp {} vs exhaustive {best}",
                plan.iteration_time()
            );
        }
    }

    #[test]
    fn plan_is_valid_partition() {
        let provider = Synthetic {
            weights: vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0],
        };
        let plan = solve_traced(&provider, 7, 3, 9, &Recorder::disabled()).unwrap();
        assert_eq!(plan.ranges[0].first, 0);
        assert_eq!(plan.ranges.last().unwrap().last, 6);
        for w in plan.ranges.windows(2) {
            assert_eq!(w[1].first, w[0].last + 1);
        }
    }

    /// Provider where stage 0 cannot hold more than `cap` layers
    /// (memory-infeasible otherwise).
    struct Capped {
        cap: usize,
    }

    impl StageCostProvider for Capped {
        fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
            if stage == 0 && range.len() > self.cap {
                return None;
            }
            Some(StageTimes {
                f: MicroSecs::new(range.len() as f64),
                b: MicroSecs::new(2.0 * range.len() as f64),
            })
        }
    }

    #[test]
    fn infeasible_windows_are_routed_around() {
        let plan = solve_traced(&Capped { cap: 1 }, 8, 4, 8, &Recorder::disabled()).unwrap();
        assert_eq!(plan.ranges[0].len(), 1);
    }

    #[test]
    fn fully_infeasible_returns_none() {
        let plan = solve_traced(&Capped { cap: 0 }, 8, 4, 8, &Recorder::disabled());
        assert!(plan.is_none());
    }

    #[test]
    fn evaluate_matches_solve_for_optimal_ranges() {
        let provider = Synthetic {
            weights: vec![1.0, 2.0, 1.5, 0.5, 2.5, 1.0],
        };
        let plan = solve_traced(&provider, 6, 3, 12, &Recorder::disabled()).unwrap();
        let eval = evaluate_partition(&provider, &plan.ranges, 12).unwrap();
        assert!((eval.iteration_time() - plan.iteration_time()).abs() < MicroSecs::new(1e-9));
    }

    #[test]
    fn traced_solve_reports_dp_effort() {
        let provider = Synthetic {
            weights: vec![1.0; 8],
        };
        let rec = Recorder::new();
        let traced = solve_traced(&provider, 8, 4, 16, &rec).unwrap();
        let plain = solve_traced(&provider, 8, 4, 16, &Recorder::disabled()).unwrap();
        assert_eq!(traced, plain, "tracing must not change the plan");
        let snap = rec.snapshot();
        assert!(snap.counters["partition.alg1.states"] > 0);
        assert!(
            snap.counters["partition.alg1.candidates"] >= snap.counters["partition.alg1.states"]
        );
        assert_eq!(
            snap.spans
                .iter()
                .filter(|s| s.name == "partition.alg1")
                .count(),
            1
        );
    }

    /// Records every query a wrapped provider receives.
    struct Recording<'a> {
        inner: &'a Synthetic,
        seen: std::sync::Mutex<Vec<(usize, LayerRange)>>,
    }

    impl StageCostProvider for Recording<'_> {
        fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
            self.seen.lock().unwrap().push((stage, range));
            self.inner.stage_times(stage, range)
        }
    }

    #[test]
    fn reachable_windows_covers_every_solve_query() {
        for (l, p, n) in [(6usize, 2usize, 8usize), (8, 4, 8), (9, 3, 20), (5, 5, 5)] {
            let inner = Synthetic {
                weights: vec![1.0; l],
            };
            let rec = Recording {
                inner: &inner,
                seen: std::sync::Mutex::new(Vec::new()),
            };
            let _ = solve_traced(&rec, l, p, n, &Recorder::disabled());
            let reachable: std::collections::HashSet<(usize, LayerRange)> =
                reachable_windows(l, p).into_iter().collect();
            for q in rec.seen.lock().unwrap().iter() {
                assert!(
                    reachable.contains(q),
                    "l={l} p={p}: solve queried {q:?} outside reachable_windows"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "more stages")]
    fn too_many_stages_panics() {
        let provider = Synthetic {
            weights: vec![1.0; 3],
        };
        let _ = solve_traced(&provider, 3, 4, 8, &Recorder::disabled());
    }
}
