//! Watchdogs: scanning an executed timeline for deadline and budget
//! violations, and classifying the resulting events as transient or
//! persistent.

use crate::events::DegradationEvent;
use adapipe_sim::{OpKind, SimReport, StageExec};
use adapipe_units::Bytes;

/// Detection thresholds.
///
/// * `alpha` — the per-op deadline multiplier: an op whose observed
///   duration exceeds `alpha` × its planned duration raises
///   [`DegradationEvent::DeadlineMissed`]. The paper's planned
///   micro-step `M₀` is built from exactly these per-stage times, so
///   `alpha` bounds the tolerated drift of the steady phase.
/// * `persistent_threshold` — a stage with at least this many deadline
///   misses in one scan is classified a *persistent* straggler (worth
///   a replan); fewer are *transient* (worth a retry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Watchdog {
    /// Deadline multiplier over the planned op time.
    pub alpha: f64,
    /// Deadline misses per stage at which a fault counts as persistent.
    pub persistent_threshold: usize,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            alpha: 1.5,
            persistent_threshold: 3,
        }
    }
}

/// Classified scan result, ready for the replan ladder.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnosis {
    /// `(stage, micro_batch)` of each transient deadline miss.
    pub transient_stalls: Vec<(usize, usize)>,
    /// Stages missing deadlines persistently (≥ threshold misses).
    pub persistent_stragglers: Vec<usize>,
    /// `(stage, high_water, budget)` of each budget violation.
    pub budget_exceeded: Vec<(usize, Bytes, Bytes)>,
}

impl Diagnosis {
    /// Whether nothing was detected.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.transient_stalls.is_empty()
            && self.persistent_stragglers.is_empty()
            && self.budget_exceeded.is_empty()
    }

    /// Whether any detection warrants re-running the planner
    /// (persistent straggler or budget loss — transient stalls only
    /// warrant retries).
    #[must_use]
    pub fn needs_replan(&self) -> bool {
        !self.persistent_stragglers.is_empty() || !self.budget_exceeded.is_empty()
    }
}

impl Watchdog {
    /// Scans an executed timeline against the plan's promises:
    /// per-op deadlines (`alpha` × the planned stage times) and
    /// per-device dynamic-memory budgets (`budgets[d]`; devices beyond
    /// `budgets.len()` are unchecked, as are stages beyond
    /// `planned.len()`).
    ///
    /// Events are returned in timeline order (deadlines) followed by
    /// device order (budgets) — deterministic for equal reports.
    #[must_use]
    pub fn scan(
        &self,
        report: &SimReport,
        planned: &[StageExec],
        budgets: &[Bytes],
    ) -> Vec<DegradationEvent> {
        let mut events = Vec::new();
        for e in &report.timeline {
            let Some(stage) = planned.get(e.meta.stage) else {
                continue;
            };
            let planned_dur = match e.meta.kind {
                OpKind::Forward => stage.time_f,
                OpKind::Backward => stage.time_b,
            };
            let deadline = planned_dur * self.alpha;
            let observed = e.end - e.start;
            if observed > deadline {
                events.push(DegradationEvent::DeadlineMissed {
                    stage: e.meta.stage,
                    micro_batch: e.meta.micro_batch,
                    observed,
                    deadline,
                });
            }
        }
        for (device, d) in report.devices.iter().enumerate() {
            let Some(&budget) = budgets.get(device) else {
                continue;
            };
            if !d.peak_dynamic_bytes.fits(budget) {
                events.push(DegradationEvent::BudgetExceeded {
                    stage: device,
                    high_water: d.peak_dynamic_bytes,
                    budget,
                });
            }
        }
        events
    }

    /// Splits scanned events into transient stalls, persistent
    /// stragglers and budget violations (see [`Watchdog`] for the
    /// threshold semantics).
    #[must_use]
    pub fn diagnose(&self, events: &[DegradationEvent]) -> Diagnosis {
        let mut diagnosis = Diagnosis::default();
        let mut missed: Vec<(usize, usize)> = Vec::new();
        for e in events {
            match e {
                DegradationEvent::DeadlineMissed {
                    stage, micro_batch, ..
                } => missed.push((*stage, *micro_batch)),
                DegradationEvent::BudgetExceeded {
                    stage,
                    high_water,
                    budget,
                } => diagnosis
                    .budget_exceeded
                    .push((*stage, *high_water, *budget)),
            }
        }
        let mut stages: Vec<usize> = missed.iter().map(|&(s, _)| s).collect();
        stages.sort_unstable();
        stages.dedup();
        for stage in stages {
            let misses: Vec<(usize, usize)> = missed
                .iter()
                .copied()
                .filter(|&(s, _)| s == stage)
                .collect();
            if misses.len() >= self.persistent_threshold {
                diagnosis.persistent_stragglers.push(stage);
            } else {
                diagnosis.transient_stalls.extend(misses);
            }
        }
        diagnosis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_obs::Recorder;
    use adapipe_sim::{schedule, simulate, TaskGraph};
    use adapipe_units::MicroSecs;

    fn stages(p: usize) -> Vec<StageExec> {
        vec![
            StageExec {
                time_f: MicroSecs::new(1.0),
                time_b: MicroSecs::new(2.0),
                saved_bytes: Bytes::new(100),
                buffer_bytes: Bytes::ZERO
            };
            p
        ]
    }

    fn healthy_run(p: usize, n: usize) -> (TaskGraph, Vec<StageExec>) {
        let st = stages(p);
        (schedule::one_f_one_b(&st, n, MicroSecs::ZERO), st)
    }

    #[test]
    fn healthy_run_raises_nothing() {
        let (graph, planned) = healthy_run(3, 6);
        let report = simulate(&graph, &Recorder::disabled()).unwrap();
        let wd = Watchdog::default();
        let budgets = vec![Bytes::new(1_000_000); 3];
        let events = wd.scan(&report, &planned, &budgets);
        assert!(events.is_empty(), "{events:?}");
        assert!(wd.diagnose(&events).is_healthy());
    }

    #[test]
    fn slowed_device_misses_deadlines_persistently() {
        let (mut graph, planned) = healthy_run(3, 8);
        graph.slow_device(1, 0.5); // 2x slower: over the 1.5x deadline
        let report = simulate(&graph, &Recorder::disabled()).unwrap();
        let wd = Watchdog::default();
        let events = wd.scan(&report, &planned, &[]);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.stage() == 1));
        let diagnosis = wd.diagnose(&events);
        assert_eq!(diagnosis.persistent_stragglers, vec![1]);
        assert!(diagnosis.transient_stalls.is_empty());
        assert!(diagnosis.needs_replan());
    }

    #[test]
    fn single_stall_is_transient() {
        let (mut graph, planned) = healthy_run(3, 8);
        // Lengthen one forward on device 2 past the deadline.
        let id = (0..graph.len())
            .find(|&i| graph.task_device(i) == 2 && graph.task_meta(i).micro_batch == 4)
            .unwrap();
        graph.delay_task(id, MicroSecs::new(5.0));
        let report = simulate(&graph, &Recorder::disabled()).unwrap();
        let wd = Watchdog::default();
        let diagnosis = wd.diagnose(&wd.scan(&report, &planned, &[]));
        assert_eq!(diagnosis.transient_stalls, vec![(2, 4)]);
        assert!(diagnosis.persistent_stragglers.is_empty());
        assert!(!diagnosis.needs_replan());
        assert!(!diagnosis.is_healthy());
    }

    #[test]
    fn budget_overrun_is_detected_per_device() {
        let (graph, planned) = healthy_run(3, 6);
        let report = simulate(&graph, &Recorder::disabled()).unwrap();
        // Stage 0 holds p - 0 = 3 in-flight activations of 100 B; give
        // it a budget of only 2.
        let budgets = vec![Bytes::new(200), Bytes::new(1_000_000)];
        let wd = Watchdog::default();
        let events = wd.scan(&report, &planned, &budgets);
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            DegradationEvent::BudgetExceeded { stage: 0, .. }
        ));
        let diagnosis = wd.diagnose(&events);
        assert_eq!(diagnosis.budget_exceeded.len(), 1);
        assert!(diagnosis.needs_replan());
    }
}
