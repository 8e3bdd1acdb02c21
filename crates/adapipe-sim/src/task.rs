use adapipe_units::{Bytes, MicroSecs};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Forward or backward pass of one micro-batch through one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Forward pass.
    Forward,
    /// Backward pass (including any recomputation).
    Backward,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OpKind::Forward => "F",
            OpKind::Backward => "B",
        })
    }
}

/// What a task represents, for timelines and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskMeta {
    /// Forward or backward.
    pub kind: OpKind,
    /// Micro-batch index (for doubled forwards, the first of the pair).
    pub micro_batch: usize,
    /// Pipeline stage the op belongs to.
    pub stage: usize,
    /// Model replica (0 for single pipelines; Chimera uses 0 = down,
    /// 1 = up).
    pub replica: usize,
}

/// Per-stage execution profile handed to the schedule generators: the
/// durations and activation footprint of one micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageExec {
    /// Forward duration.
    pub time_f: MicroSecs,
    /// Backward duration (including recomputation).
    pub time_b: MicroSecs,
    /// Intermediates stored per in-flight micro-batch.
    pub saved_bytes: Bytes,
    /// Recompute buffer live during a backward pass.
    pub buffer_bytes: Bytes,
}

/// How devices choose their next task from [`TaskGraph::device_queues`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discipline {
    /// Run each device's queue strictly in order, waiting while the next
    /// task's dependencies are unfinished.
    FixedOrder,
    /// Run the first task in the device's queue whose dependencies have
    /// finished.
    GreedyPriority,
}

/// One schedulable task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Task {
    pub device: usize,
    pub dur: MicroSecs,
    /// `(task id, extra edge delay)` — the task may start only after
    /// every dependency has finished plus its edge delay (P2P transfer).
    pub deps: Vec<(usize, MicroSecs)>,
    /// Memory acquired on the device when the task starts.
    pub mem_acquire: Bytes,
    /// Memory released on the device when the task ends.
    pub mem_release: Bytes,
    /// Queue key on the device (smaller first, ties by id); fixed-order
    /// generators store the script position here.
    pub priority: u64,
    pub meta: TaskMeta,
}

/// A complete schedule: tasks, device count and execution discipline.
///
/// Built by the generators in [`schedule`](crate::schedule) and executed
/// by [`simulate`](crate::simulate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskGraph {
    pub(crate) name: String,
    pub(crate) devices: usize,
    pub(crate) discipline: Discipline,
    pub(crate) tasks: Vec<Task>,
}

impl TaskGraph {
    /// Creates an empty graph for `devices` devices.
    #[must_use]
    pub fn new(name: impl Into<String>, devices: usize, discipline: Discipline) -> Self {
        assert!(devices > 0, "need at least one device");
        TaskGraph {
            name: name.into(),
            devices,
            discipline,
            tasks: Vec::new(),
        }
    }

    /// Schedule name (e.g. `"1f1b"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of devices.
    #[must_use]
    pub fn devices(&self) -> usize {
        self.devices
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The execution discipline devices follow.
    #[must_use]
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// Device a task runs on.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn task_device(&self, task: usize) -> usize {
        self.tasks[task].device
    }

    /// Duration of a task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn task_duration(&self, task: usize) -> MicroSecs {
        self.tasks[task].dur
    }

    /// `(dependency id, edge delay)` pairs of a task.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn task_deps(&self, task: usize) -> &[(usize, MicroSecs)] {
        &self.tasks[task].deps
    }

    /// What the task represents.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range.
    #[must_use]
    pub fn task_meta(&self, task: usize) -> TaskMeta {
        self.tasks[task].meta
    }

    /// Each device's tasks in ascending `(priority, id)` order: the one
    /// statement of the order in which a device may start them, which
    /// the engine runs and the [`Discipline`] applies.
    #[must_use]
    pub fn device_queues(&self) -> Vec<Vec<usize>> {
        let mut keyed: Vec<Vec<(u64, usize)>> = vec![Vec::new(); self.devices];
        for (id, t) in self.tasks.iter().enumerate() {
            keyed[t.device].push((t.priority, id));
        }
        keyed
            .into_iter()
            .map(|mut q| {
                // The generators push each device's keys in a few
                // ascending runs, which a stable sort merges.
                q.sort();
                q.into_iter().map(|(_, id)| id).collect()
            })
            .collect()
    }

    /// Adds a task and returns its id. Dependencies must refer to
    /// already-added tasks.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range or a dependency id is invalid
    /// (forward references would make the graph cyclic).
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per task field; the schedule builders fill each explicitly"
    )]
    pub fn push(
        &mut self,
        device: usize,
        dur: MicroSecs,
        deps: Vec<(usize, MicroSecs)>,
        mem_acquire: Bytes,
        mem_release: Bytes,
        priority: u64,
        meta: TaskMeta,
    ) -> usize {
        assert!(device < self.devices, "device {device} out of range");
        let id = self.tasks.len();
        for &(dep, _) in &deps {
            assert!(dep < id, "dependency {dep} must precede task {id}");
        }
        self.tasks.push(Task {
            device,
            dur,
            deps,
            mem_acquire,
            mem_release,
            priority,
            meta,
        });
        id
    }

    /// Lengthens a task by `extra` — fault injectors use this for
    /// one-shot stalls without rebuilding the graph.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range or `extra` is not a finite
    /// non-negative time.
    pub fn delay_task(&mut self, task: usize, extra: MicroSecs) {
        assert!(task < self.tasks.len(), "task id out of range");
        assert!(
            !extra.is_invalid_cost(),
            "delay must be a finite non-negative time"
        );
        self.tasks[task].dur += extra;
    }

    /// Swaps the priorities, and so the queue places, of tasks `a` and
    /// `b`: a reordered script.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn swap_priorities(&mut self, a: usize, b: usize) {
        let pa = self.tasks[a].priority;
        self.tasks[a].priority = std::mem::replace(&mut self.tasks[b].priority, pa);
    }

    /// Adds a dependency edge after the fact. Unlike [`TaskGraph::push`],
    /// `dep` may be any task id, so the edge can close a cycle or cross a
    /// fixed-order queue: the engine returns [`crate::SimError::Deadlock`].
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn add_dep(&mut self, task: usize, dep: usize, delay: MicroSecs) {
        assert!(
            task < self.tasks.len() && dep < self.tasks.len(),
            "task id out of range"
        );
        self.tasks[task].deps.push((dep, delay));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TaskMeta {
        TaskMeta {
            kind: OpKind::Forward,
            micro_batch: 0,
            stage: 0,
            replica: 0,
        }
    }

    #[test]
    fn push_assigns_sequential_ids() {
        let mut g = TaskGraph::new("t", 2, Discipline::FixedOrder);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(),
        );
        let b = g.push(
            1,
            MicroSecs::new(1.0),
            vec![(a, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(),
        );
        assert_eq!((a, b), (0, 1));
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
    }

    #[test]
    #[should_panic(expected = "must precede")]
    fn forward_reference_panics() {
        let mut g = TaskGraph::new("t", 1, Discipline::FixedOrder);
        let _ = g.push(
            0,
            MicroSecs::new(1.0),
            vec![(5, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(),
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_device_panics() {
        let mut g = TaskGraph::new("t", 1, Discipline::FixedOrder);
        let _ = g.push(
            3,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(),
        );
    }
}
