//! Property-based tests spanning crates: the analytic 1F1B cost model
//! against the discrete-event simulator, and the planner's feasibility
//! guarantees under randomized workloads.

use adapipe_obs::Recorder;
use adapipe_partition::{f1b_iteration_time, StageTimes};
use adapipe_sim::{schedule, simulate, StageExec};
use adapipe_units::{Bytes, MicroSecs};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Equation (3) and the event simulator agree exactly on uniform
    /// pipelines, for any forward/backward ratio, depth and micro-batch
    /// count.
    #[test]
    fn analytic_1f1b_exact_on_uniform_pipelines(
        f in 0.05f64..5.0,
        b in 0.05f64..10.0,
        p in 1usize..10,
        extra in 0usize..40,
    ) {
        let stages = vec![
            StageExec {
                time_f: MicroSecs::new(f),
                time_b: MicroSecs::new(b),
                saved_bytes: Bytes::new(1),
                buffer_bytes: Bytes::ZERO
            };
            p
        ];
        let stage_times = vec![
            StageTimes {
                f: MicroSecs::new(f),
                b: MicroSecs::new(b)
            };
            p
        ];
        let n = p + extra;
        let analytic = f1b_iteration_time(&stage_times, n).total().as_micros();
        let simulated = simulate(&schedule::one_f_one_b(&stages, n, MicroSecs::ZERO), &Recorder::disabled()).unwrap()
            .makespan
            .as_micros();
        prop_assert!(
            (analytic - simulated).abs() <= 1e-9 * analytic.max(1.0),
            "analytic {analytic} vs simulated {simulated} (p={p}, n={n})"
        );
    }

    /// On *balanced* pipelines — the regime AdaPipe leaves every plan in
    /// after its partitioning pass: micro-step spread within 20 % and a
    /// long steady phase — the paper's cost model is a lower bound that
    /// tracks the simulator within 10 %. Outside this regime Equation (3)
    /// is only "near-optimal", which is exactly how the paper positions
    /// it (our planner's own plans agree within 5 %; see the end-to-end
    /// tests).
    #[test]
    fn analytic_1f1b_tracks_simulated_in_balanced_regime(
        base in 0.5f64..2.0,
        spreads in proptest::collection::vec((1.0f64..1.2, 1.5f64..3.0), 2..9),
        extra in 0usize..64,
    ) {
        let stages: Vec<StageExec> = spreads
            .iter()
            .map(|&(sp, ratio)| StageExec {
                time_f: MicroSecs::new(base * sp),
                time_b: MicroSecs::new(base * sp * ratio),
                saved_bytes: Bytes::new(1),
                buffer_bytes: Bytes::ZERO,
            })
            .collect();
        let steps: Vec<f64> = stages
            .iter()
            .map(|s| (s.time_f + s.time_b).as_micros())
            .collect();
        let spread = steps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            / steps.iter().copied().fold(f64::INFINITY, f64::min);
        prop_assume!(spread <= 1.2);
        let stage_times: Vec<StageTimes> = stages
            .iter()
            .map(|s| StageTimes { f: s.time_f, b: s.time_b })
            .collect();
        // Long steady phase: n >= 4p, as in every paper workload.
        let n = 4 * stages.len() + extra;
        let analytic = f1b_iteration_time(&stage_times, n).total();
        let simulated = simulate(&schedule::one_f_one_b(&stages, n, MicroSecs::ZERO), &Recorder::disabled()).unwrap().makespan;
        prop_assert!(
            simulated >= analytic - MicroSecs::new(1e-9),
            "model must not overestimate"
        );
        prop_assert!(
            simulated <= analytic * 1.10,
            "analytic {analytic} vs simulated {simulated} (p={}, n={n})",
            stages.len()
        );
    }

    /// 1F1B peak activation residency is exactly (p - s) micro-batches
    /// plus the recompute buffer, for any stage times.
    #[test]
    fn f1b_memory_residency_invariant(
        times in proptest::collection::vec((0.1f64..5.0, 0.1f64..10.0), 2..8),
        saved in 1u64..1000,
        buffer in 0u64..100,
        extra in 0usize..20,
    ) {
        let p = times.len();
        let stages: Vec<StageExec> = times
            .iter()
            .map(|&(f, b)| StageExec {
                time_f: MicroSecs::new(f),
                time_b: MicroSecs::new(b),
                saved_bytes: Bytes::new(saved),
                buffer_bytes: Bytes::new(buffer),
            })
            .collect();
        let n = p + extra;
        let report = simulate(&schedule::one_f_one_b(&stages, n, MicroSecs::ZERO), &Recorder::disabled()).unwrap();
        for (s, dev) in report.devices.iter().enumerate() {
            prop_assert_eq!(
                dev.peak_dynamic_bytes,
                Bytes::new((p - s) as u64 * saved + buffer),
                "stage {} of p={}, n={}", s, p, n
            );
        }
    }

    /// GPipe residency is n micro-batches everywhere — always at least
    /// the 1F1B peak.
    #[test]
    fn gpipe_dominates_f1b_memory(
        times in proptest::collection::vec((0.1f64..5.0, 0.1f64..10.0), 2..8),
        saved in 1u64..1000,
        extra in 0usize..20,
    ) {
        let stages: Vec<StageExec> = times
            .iter()
            .map(|&(f, b)| StageExec {
                time_f: MicroSecs::new(f),
                time_b: MicroSecs::new(b),
                saved_bytes: Bytes::new(saved),
                buffer_bytes: Bytes::ZERO,
            })
            .collect();
        let n = stages.len() + extra;
        let g = simulate(&schedule::gpipe(&stages, n, MicroSecs::ZERO), &Recorder::disabled()).unwrap();
        let f = simulate(&schedule::one_f_one_b(&stages, n, MicroSecs::ZERO), &Recorder::disabled()).unwrap();
        for (gd, fd) in g.devices.iter().zip(&f.devices) {
            prop_assert_eq!(gd.peak_dynamic_bytes, Bytes::new(n as u64 * saved));
            prop_assert!(gd.peak_dynamic_bytes >= fd.peak_dynamic_bytes);
        }
    }

    /// P2P delays only ever slow the pipeline down, monotonically.
    #[test]
    fn p2p_delay_is_monotone(
        times in proptest::collection::vec((0.1f64..5.0, 0.1f64..10.0), 2..6),
        d1 in 0.0f64..0.5,
        d2 in 0.0f64..0.5,
    ) {
        let stages: Vec<StageExec> = times
            .iter()
            .map(|&(f, b)| StageExec {
                time_f: MicroSecs::new(f),
                time_b: MicroSecs::new(b),
                saved_bytes: Bytes::ZERO,
                buffer_bytes: Bytes::ZERO,
            })
            .collect();
        let n = stages.len() + 4;
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let t_lo = simulate(&schedule::one_f_one_b(&stages, n, MicroSecs::new(lo)), &Recorder::disabled()).unwrap().makespan;
        let t_hi = simulate(&schedule::one_f_one_b(&stages, n, MicroSecs::new(hi)), &Recorder::disabled()).unwrap().makespan;
        prop_assert!(t_hi >= t_lo - MicroSecs::new(1e-9));
    }
}

/// Randomized planner feasibility: every plan the adaptive search emits
/// fits its own memory constraint when simulated.
#[test]
fn random_workloads_yield_feasible_adaptive_plans() {
    use adapipe::{Method, Planner};
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, ParallelConfig, TrainConfig};

    let planner = Planner::new(presets::gpt2_small(), hw::cluster_a_with_nodes(1));
    for (t, p, seq, gbs) in [
        (1usize, 2usize, 512usize, 8usize),
        (2, 2, 1024, 16),
        (2, 4, 2048, 16),
        (4, 2, 512, 32),
        (1, 8, 1024, 16),
    ] {
        let parallel = ParallelConfig::new(t, p, 1).expect("valid");
        let train = TrainConfig::new(1, seq, gbs).expect("valid");
        let Ok(plan) = planner.plan(Method::AdaPipe, parallel, train) else {
            continue;
        };
        let eval = planner.evaluate(&plan);
        assert!(
            eval.fits,
            "({t},{p}) seq {seq}: {:.1} GB",
            eval.max_peak_gb()
        );
        assert!(!eval.iteration_time.is_invalid_cost());
    }
}
