//! Exhaustive partition search: the brute-force reference Algorithm 1 is
//! checked against. Exponential in the stage count — usable only for
//! small instances, which is exactly what tests and the DP-quality
//! benchmark need.

use crate::algorithm1::{evaluate_partition, PartitionPlan};
use crate::provider::StageCostProvider;
use adapipe_model::LayerRange;

/// Enumerates every partition of `num_layers` layers into `p` contiguous
/// stages, evaluates each with the full 1F1B cost model, and returns the
/// best feasible plan (or `None` if all choices are infeasible).
///
/// Complexity: `C(num_layers − 1, p − 1)` evaluations. Use for
/// `num_layers ≲ 25` only; Algorithm 1 covers the real sizes.
///
/// # Panics
///
/// Panics under the same conditions as
/// [`algorithm1::solve_traced`](crate::algorithm1::solve_traced).
#[must_use]
pub fn solve(
    provider: &impl StageCostProvider,
    num_layers: usize,
    p: usize,
    n: usize,
) -> Option<PartitionPlan> {
    assert!(p > 0, "pipeline size must be positive");
    assert!(
        p <= num_layers,
        "more stages ({p}) than layers ({num_layers})"
    );
    assert!(n >= p, "1F1B needs n >= p (n={n}, p={p})");

    let mut best: Option<PartitionPlan> = None;
    let mut ranges: Vec<LayerRange> = Vec::with_capacity(p);
    recurse(provider, num_layers, p, n, 0, 0, &mut ranges, &mut best);
    best
}

#[allow(clippy::too_many_arguments)] // recursion carries the full search state
fn recurse(
    provider: &impl StageCostProvider,
    l: usize,
    p: usize,
    n: usize,
    stage: usize,
    first: usize,
    ranges: &mut Vec<LayerRange>,
    best: &mut Option<PartitionPlan>,
) {
    if stage == p - 1 {
        ranges.push(LayerRange::new(first, l - 1));
        if let Some(plan) = evaluate_partition(provider, ranges, n) {
            if best
                .as_ref()
                .is_none_or(|b| plan.iteration_time() < b.iteration_time())
            {
                *best = Some(plan);
            }
        }
        ranges.pop();
        return;
    }
    // Stage takes [first..=j]; leave at least one layer per later stage.
    for j in first..=(l - (p - stage)) {
        ranges.push(LayerRange::new(first, j));
        recurse(provider, l, p, n, stage + 1, j + 1, ranges, best);
        ranges.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1;
    use crate::cost::StageTimes;
    use adapipe_obs::Recorder;
    use adapipe_units::MicroSecs;

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

    #[test]
    fn dp_never_loses_to_exhaustive() {
        for (l, p, n) in [(6usize, 2usize, 8usize), (8, 3, 8), (10, 4, 12), (9, 5, 10)] {
            let weights: Vec<f64> = (0..l)
                .map(|k| 1.0 + ((k * 7 + 3) % 5) as f64 * 0.31)
                .collect();
            let provider = Synthetic { weights };
            let dp = algorithm1::solve_traced(&provider, l, p, n, &Recorder::disabled()).unwrap();
            let brute = solve(&provider, l, p, n).unwrap();
            assert!(
                dp.iteration_time() <= brute.iteration_time() + MicroSecs::new(1e-9),
                "l={l} p={p} n={n}: dp {} vs brute {}",
                dp.iteration_time(),
                brute.iteration_time()
            );
        }
    }

    #[test]
    fn single_stage_takes_everything() {
        let provider = Synthetic {
            weights: vec![1.0; 5],
        };
        let plan = solve(&provider, 5, 1, 4).unwrap();
        assert_eq!(plan.ranges, vec![LayerRange::new(0, 4)]);
    }

    /// Provider where long windows are infeasible.
    struct Capped;

    impl StageCostProvider for Capped {
        fn stage_times(&self, _stage: usize, range: LayerRange) -> Option<StageTimes> {
            (range.len() <= 2).then_some(StageTimes {
                f: MicroSecs::new(1.0),
                b: MicroSecs::new(2.0),
            })
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        #[test]
        fn dp_matches_exhaustive_on_random_instances(
            weights in proptest::collection::vec(0.2f64..3.0, 4..11),
            p in 2usize..5,
            extra in 0usize..16,
        ) {
            proptest::prop_assume!(p <= weights.len());
            let l = weights.len();
            let n = p + extra;
            let provider = Synthetic { weights };
            let dp = algorithm1::solve_traced(&provider, l, p, n, &Recorder::disabled()).unwrap();
            let brute = solve(&provider, l, p, n).unwrap();
            // The printed Algorithm 1 is "near-optimal", not exact: its
            // per-stage objective weighs the bottleneck by (n − p + s),
            // which misjudges split points most when the pipeline is
            // barely filled (observed gaps: ~6 % at n = p, ~2 % slightly
            // above, none once the steady phase dominates). Hold it to
            // an empirically calibrated band — and never *better* than
            // brute force, which would indicate a cost-model bug.
            proptest::prop_assert!(
                dp.iteration_time() >= brute.iteration_time() - MicroSecs::new(1e-9),
                "dp beat exhaustive: {} vs {}", dp.iteration_time(), brute.iteration_time()
            );
            let band = if n < 2 * p { 1.10 } else { 1.05 };
            proptest::prop_assert!(
                dp.iteration_time() <= brute.iteration_time() * band + MicroSecs::new(1e-9),
                "dp {} vs brute {} (n={}, p={})", dp.iteration_time(), brute.iteration_time(), n, p
            );
        }
    }

    #[test]
    fn infeasible_everywhere_returns_none() {
        // 7 layers over 3 stages with max window 2 = at most 6 layers.
        assert!(solve(&Capped, 7, 3, 8).is_none());
        // 6 layers over 3 stages fits exactly.
        let plan = solve(&Capped, 6, 3, 8).unwrap();
        assert!(plan.ranges.iter().all(|r| r.len() == 2));
    }
}
