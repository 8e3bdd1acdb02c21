//! The analytic 1F1B cost model (§5.1, Equation (3)).

use adapipe_recompute::StageCost;
use adapipe_units::{convert, MicroSecs};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-stage forward and backward times of one micro-batch (`F_s`, `B_s`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageTimes {
    /// Forward time of one micro-batch through the stage.
    pub f: MicroSecs,
    /// Backward time of one micro-batch through the stage (including any
    /// recomputation the stage's strategy performs).
    pub b: MicroSecs,
}

impl StageTimes {
    /// Micro-step time `F_s + B_s` — what Figure 9 of the paper plots.
    #[must_use]
    pub fn micro_step(&self) -> MicroSecs {
        self.f + self.b
    }
}

/// The Eq. (3) view of an optimized stage: its forward and backward
/// times, without the memory footprint.
impl From<&StageCost> for StageTimes {
    fn from(cost: &StageCost) -> Self {
        StageTimes {
            f: cost.time_f,
            b: cost.time_b,
        }
    }
}

/// Breakdown of one 1F1B iteration into the three phases of §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct F1bBreakdown {
    /// Warmup time `W₀`: first forward until stage 0's first backward.
    pub warmup: MicroSecs,
    /// Steady time `(n − p) · M₀`.
    pub steady: MicroSecs,
    /// Ending time `E₀`.
    pub ending: MicroSecs,
    /// Bottleneck micro-step `M₀ = max_s (F_s + B_s)`.
    pub bottleneck: MicroSecs,
}

impl F1bBreakdown {
    /// Total iteration time `W₀ + steady + E₀`.
    #[must_use]
    pub fn total(&self) -> MicroSecs {
        self.warmup + self.steady + self.ending
    }
}

impl fmt::Display for F1bBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "warmup {:.3}s + steady {:.3}s + ending {:.3}s = {:.3}s",
            self.warmup.as_secs(),
            self.steady.as_secs(),
            self.ending.as_secs(),
            self.total().as_secs()
        )
    }
}

/// Evaluates the Equation (3) recurrences for a concrete pipeline.
///
/// For the last stage `W = F`, `E = B`, `M = F + B`; going backwards,
///
/// ```text
/// W_s = F_s + max(W_{s+1} + B_{s+1}, (p − s − 1) · F_s)
/// E_s = B_s + max(E_{s+1} + F_{s+1}, (p − s − 1) · B_s)
/// M_s = max(M_{s+1}, F_s + B_s)
/// ```
///
/// and the iteration takes `W₀ + E₀ + (n − p) · M₀`.
///
/// # Panics
///
/// Panics if `times` is empty or `n` is smaller than the stage count.
#[must_use]
pub fn f1b_iteration_time(times: &[StageTimes], n: usize) -> F1bBreakdown {
    let p = times.len();
    assert!(p > 0, "pipeline must have at least one stage");
    assert!(n >= p, "1F1B needs at least p micro-batches (n={n}, p={p})");

    let last = times[p - 1];
    let mut w = last.f;
    let mut e = last.b;
    let mut m = last.f + last.b;
    let mut prev = last;
    for s in (0..p - 1).rev() {
        let cur = times[s];
        let ahead = convert::count_f64(p - s - 1);
        w = cur.f + (w + prev.b).max(ahead * cur.f);
        e = cur.b + (e + prev.f).max(ahead * cur.b);
        m = m.max(cur.f + cur.b);
        prev = cur;
    }
    F1bBreakdown {
        warmup: w,
        steady: convert::count_f64(n - p) * m,
        ending: e,
        bottleneck: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(p: usize, f: f64, b: f64) -> Vec<StageTimes> {
        vec![
            StageTimes {
                f: MicroSecs::new(f),
                b: MicroSecs::new(b),
            };
            p
        ]
    }

    #[test]
    fn single_stage_is_sequential() {
        let bd = f1b_iteration_time(&uniform(1, 2.0, 3.0), 10);
        assert!((bd.total().as_micros() - 10.0 * 5.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_pipeline_matches_closed_form() {
        // Balanced 1F1B: T = (n + p − 1)(f + b).
        for p in [2usize, 4, 8] {
            for n in [p, 2 * p, 64] {
                let (f, b) = (1.0, 2.0);
                let bd = f1b_iteration_time(&uniform(p, f, b), n);
                let expect = (n + p - 1) as f64 * (f + b);
                assert!(
                    (bd.total().as_micros() - expect).abs() < 1e-9,
                    "p={p} n={n}: {} vs {expect}",
                    bd.total()
                );
            }
        }
    }

    #[test]
    fn bubble_fraction_matches_paper_formula() {
        // Bubble ratio of 1F1B is (p − 1) / n.
        let (p, n) = (8usize, 64usize);
        let bd = f1b_iteration_time(&uniform(p, 1.0, 2.0), n);
        let work = n as f64 * 3.0;
        let bubble = bd.total().as_micros() - work;
        let ratio = bubble / work;
        assert!((ratio - (p - 1) as f64 / n as f64).abs() < 1e-9);
    }

    #[test]
    fn slow_stage_dominates_steady_phase() {
        let mut times = uniform(4, 1.0, 2.0);
        times[2] = StageTimes {
            f: MicroSecs::new(2.0),
            b: MicroSecs::new(4.0),
        };
        let bd = f1b_iteration_time(&times, 100);
        assert!((bd.bottleneck.as_micros() - 6.0).abs() < 1e-12);
        assert!((bd.steady.as_micros() - 96.0 * 6.0).abs() < 1e-9);
    }

    #[test]
    fn two_stage_example_from_figure3() {
        // Stage 1 warmup is one forward; stage 0 warmup adds its own
        // forward plus max(fwd+bwd downstream, its second forward).
        let times = [
            StageTimes {
                f: MicroSecs::new(1.0),
                b: MicroSecs::new(2.0),
            },
            StageTimes {
                f: MicroSecs::new(1.0),
                b: MicroSecs::new(2.0),
            },
        ];
        let bd = f1b_iteration_time(&times, 2);
        // W0 = 1 + max(1+2, 1) = 4; E0 = 2 + max(2+1, 2) = 5; steady 0.
        assert!((bd.warmup.as_micros() - 4.0).abs() < 1e-12);
        assert!((bd.ending.as_micros() - 5.0).abs() < 1e-12);
        assert!((bd.total().as_micros() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn reducing_backward_time_shortens_warmup() {
        let slow = f1b_iteration_time(&uniform(4, 1.0, 3.0), 8);
        let fast = f1b_iteration_time(&uniform(4, 1.0, 2.0), 8);
        assert!(fast.warmup < slow.warmup);
        assert!(fast.ending < slow.ending);
    }

    #[test]
    #[should_panic(expected = "at least p micro-batches")]
    fn underfilled_pipeline_panics() {
        let _ = f1b_iteration_time(&uniform(4, 1.0, 1.0), 3);
    }

    #[test]
    fn micro_step_is_f_plus_b() {
        let st = StageTimes {
            f: MicroSecs::new(1.5),
            b: MicroSecs::new(2.5),
        };
        assert!((st.micro_step().as_micros() - 4.0).abs() < 1e-15);
    }
}
