//! Static checks over the simulator's task graphs: an untimed replay of
//! the engine's dispatch rule must start every task.

use crate::diag::{CheckCode, Diagnostic};
use adapipe_sim::{Discipline, TaskGraph};
use adapipe_units::MicroSecs;

/// Runs `g` without time and returns the tasks that never start,
/// ascending. A task starts once its dependencies have run and, given
/// `queues`, it is next in its device's queue (the fixed-order rule);
/// without them, any task whose dependencies have run starts (the
/// greedy rule, which is Kahn's algorithm).
fn never_started(g: &TaskGraph, queues: Option<&[Vec<usize>]>) -> Vec<usize> {
    let n = g.len();
    // The dependents of task t are `dependents[row[t]..row[t + 1]]`.
    let mut row = vec![0usize; n + 1];
    for t in 0..n {
        for &(dep, _) in g.task_deps(t) {
            row[dep] += 1;
        }
    }
    for t in 0..n {
        row[t + 1] += row[t];
    }
    let mut dependents = vec![0usize; row[n]];
    for t in 0..n {
        for &(dep, _) in g.task_deps(t) {
            row[dep] -= 1;
            dependents[row[dep]] = t;
        }
    }

    let mut unmet: Vec<usize> = (0..n).map(|t| g.task_deps(t).len()).collect();
    let mut next = vec![0usize; g.devices()];
    let is_next = |next: &[usize], t: usize| {
        let dev = g.task_device(t);
        queues.is_none_or(|q| q[dev].get(next[dev]) == Some(&t))
    };
    let mut runnable: Vec<usize> = (0..n)
        .filter(|&t| unmet[t] == 0 && is_next(&next, t))
        .collect();
    let mut started = vec![false; n];
    while let Some(t) = runnable.pop() {
        started[t] = true;
        if let Some(q) = queues {
            let dev = g.task_device(t);
            next[dev] += 1;
            runnable.extend(q[dev].get(next[dev]).filter(|&&head| unmet[head] == 0));
        }
        for &d in &dependents[row[t]..row[t + 1]] {
            unmet[d] -= 1;
            if unmet[d] == 0 && is_next(&next, d) {
                runnable.push(d);
            }
        }
    }
    (0..n).filter(|&t| !started[t]).collect()
}

fn describe(g: &TaskGraph, stuck: &[usize]) -> String {
    let sample: Vec<String> = stuck
        .iter()
        .take(4)
        .map(|&t| {
            let m = g.task_meta(t);
            format!(
                "task {t} ({}{} stage {} dev {})",
                m.kind,
                m.micro_batch,
                m.stage,
                g.task_device(t)
            )
        })
        .collect();
    format!(
        "{} of {} tasks can never start: {}",
        stuck.len(),
        g.len(),
        sample.join(", ")
    )
}

/// Checks a task graph for the schedule-level invariants: non-negative
/// durations, and every task started by a replay of the graph's
/// [`Discipline`] in the [`TaskGraph::device_queues`] order the engine
/// runs. A graph that passes costs one replay; one that sticks gets
/// `cycle-detected` if a greedy replay (its dependencies alone) also
/// sticks, else `device-order-deadlock`.
#[must_use]
pub fn check_task_graph(g: &TaskGraph) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for t in 0..g.len() {
        if g.task_duration(t) < MicroSecs::ZERO {
            out.push(Diagnostic::error(
                CheckCode::TaskDuration,
                Some(g.task_meta(t).stage),
                format!("task {t} has negative duration {}", g.task_duration(t)),
            ));
        }
    }

    let queues = (g.discipline() == Discipline::FixedOrder).then(|| g.device_queues());
    let stuck = never_started(g, queues.as_deref());
    if stuck.is_empty() {
        return out;
    }
    let (code, what, tasks) = if queues.is_none() {
        (CheckCode::CycleDetected, "dependency cycle", stuck)
    } else {
        // Only a failing fixed-order graph pays for the greedy replay
        // that tells a dependency cycle from a contradicting queue.
        let cyclic = never_started(g, None);
        if cyclic.is_empty() {
            (
                CheckCode::DeviceOrderDeadlock,
                "fixed-order queues contradict the dependencies",
                stuck,
            )
        } else {
            (CheckCode::CycleDetected, "dependency cycle", cyclic)
        }
    };
    out.push(Diagnostic::error(
        code,
        None,
        format!("{what}: {}", describe(g, &tasks)),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_sim::{OpKind, TaskMeta};
    use adapipe_units::Bytes;

    fn meta(stage: usize, mb: usize) -> TaskMeta {
        TaskMeta {
            kind: OpKind::Forward,
            micro_batch: mb,
            stage,
            replica: 0,
        }
    }

    #[test]
    fn linear_chain_is_clean() {
        let mut g = TaskGraph::new("chain", 2, Discipline::FixedOrder);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0, 0),
        );
        let b = g.push(
            1,
            MicroSecs::new(1.0),
            vec![(a, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(1, 0),
        );
        let _ = g.push(
            0,
            MicroSecs::new(1.0),
            vec![(b, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            2,
            meta(0, 1),
        );
        assert!(check_task_graph(&g).is_empty());
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = TaskGraph::new("cyclic", 1, Discipline::GreedyPriority);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0, 0),
        );
        let b = g.push(
            0,
            MicroSecs::new(1.0),
            vec![(a, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(0, 1),
        );
        g.add_dep(a, b, MicroSecs::ZERO);
        let diags = check_task_graph(&g);
        assert!(diags.iter().any(|d| d.code == CheckCode::CycleDetected));
        assert!(diags[0].message.contains("can never start"));
    }

    #[test]
    fn fixed_order_deadlock_is_detected() {
        // Queue on device 0: x then y, but y must run before x.
        let mut g = TaskGraph::new("deadlock", 2, Discipline::FixedOrder);
        let x = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0, 0),
        );
        let up = g.push(
            1,
            MicroSecs::new(1.0),
            vec![(x, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(1, 0),
        );
        let y = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            2,
            meta(0, 1),
        );
        g.add_dep(x, y, MicroSecs::ZERO);
        let _ = up;
        let diags = check_task_graph(&g);
        assert!(
            diags
                .iter()
                .any(|d| d.code == CheckCode::DeviceOrderDeadlock),
            "{diags:?}"
        );
        // The same graph under greedy priorities is fine (y runs first).
        let mut g2 = TaskGraph::new("greedy", 2, Discipline::GreedyPriority);
        let x = g2.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            5,
            meta(0, 0),
        );
        let _ = g2.push(
            1,
            MicroSecs::new(1.0),
            vec![(x, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(1, 0),
        );
        let y = g2.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0, 1),
        );
        g2.add_dep(x, y, MicroSecs::ZERO);
        assert!(check_task_graph(&g2).is_empty());
    }

    /// dev0 queues B (priority 0) before A (priority 1), but B waits on
    /// X (dev1), which waits on A. Insertion order A, X, B respects every
    /// dependency; the queue order the engine runs does not.
    fn priority_probe() -> TaskGraph {
        let mut g = TaskGraph::new("probe", 2, Discipline::FixedOrder);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(0, 0),
        );
        let x = g.push(
            1,
            MicroSecs::new(1.0),
            vec![(a, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(1, 0),
        );
        let _ = g.push(
            0,
            MicroSecs::new(1.0),
            vec![(x, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0, 1),
        );
        g
    }

    #[test]
    fn queue_priority_order_deadlock_is_detected() {
        let diags = check_task_graph(&priority_probe());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, CheckCode::DeviceOrderDeadlock);
        assert!(diags[0].message.contains("3 of 3 tasks"), "{diags:?}");
    }

    #[test]
    fn fixed_order_cycle_is_a_cycle() {
        let mut g = priority_probe();
        g.add_dep(0, 2, MicroSecs::ZERO);
        let diags = check_task_graph(&g);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, CheckCode::CycleDetected);
    }

    #[test]
    fn negative_duration_is_flagged() {
        let mut g = TaskGraph::new("neg", 1, Discipline::FixedOrder);
        let _ = g.push(
            0,
            MicroSecs::new(-1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0, 0),
        );
        let diags = check_task_graph(&g);
        assert!(diags.iter().any(|d| d.code == CheckCode::TaskDuration));
    }
}
