//! The event-driven execution engine.

// Index-based loops here mirror the task-id bookkeeping; iterators would
// obscure the id arithmetic.
#![allow(clippy::needless_range_loop)]

use crate::error::SimError;
use crate::report::{DeviceReport, MemorySample, SimReport, TimelineEntry};
use crate::task::{Discipline, TaskGraph};
use adapipe_obs::{keys, Recorder};
use adapipe_units::{convert, Bytes, MicroSecs};
use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap};

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// A task finished on its device.
    Complete(usize),
    /// A task's dependencies are all satisfied as of this time.
    Ready(usize),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Executes `graph` and reports makespan, per-device bubbles and peak
/// dynamic memory, and the full timeline.
///
/// The simulation is deterministic: ties are broken by task id.
///
/// Engine effort goes to `rec` (pass [`Recorder::disabled()`] to opt
/// out): tasks and events processed (`sim.tasks`, `sim.events`), the
/// dispatchable-set high-water mark (`sim.ready_queue.peak` gauge) and
/// per-device busy/bubble seconds, all inside a `sim.run` span.
///
/// # Errors
///
/// [`SimError::Deadlock`] when some tasks can never run (a fixed-order
/// queue waits on a task that can never run — e.g. a cross-device cycle
/// through queue order). For the shipped schedule generators that is a
/// bug; for fault-injected graphs it is an expected outcome to detect.
pub fn simulate(graph: &TaskGraph, rec: &Recorder) -> Result<SimReport, SimError> {
    let _span = rec
        .span_cat(keys::SPAN_SIM_RUN, "sim")
        .with_arg("schedule", &graph.name);
    let mut events: u64 = 0;
    let mut ready_peak: usize = 0;

    let n = graph.tasks.len();
    let d = graph.devices;

    // Dependency bookkeeping.
    let mut unmet: Vec<usize> = graph.tasks.iter().map(|t| t.deps.len()).collect();
    let mut ready_at: Vec<f64> = vec![0.0; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (id, t) in graph.tasks.iter().enumerate() {
        for &(dep, _) in &t.deps {
            dependents[dep].push(id);
        }
    }

    // Per-device state. Fixed-order queues run in (priority, id) order —
    // generators encode the schedule script position in the priority.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); d];
    for (id, t) in graph.tasks.iter().enumerate() {
        queues[t.device].push(id);
    }
    for q in &mut queues {
        q.sort_by_key(|&id| (graph.tasks[id].priority, id));
    }
    let mut queue_ptr = vec![0usize; d];
    let mut dispatchable: Vec<BTreeSet<(u64, usize)>> = vec![BTreeSet::new(); d];
    let mut busy = vec![false; d];
    let mut busy_time = vec![0.0f64; d];
    let mut mem_cur = vec![0i64; d];
    let mut mem_peak = vec![0i64; d];

    let mut started = vec![false; n];
    let mut done = vec![false; n];
    let mut is_ready = vec![false; n];

    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let push = |heap: &mut BinaryHeap<Event>, seq: &mut u64, time: f64, kind: EventKind| {
        *seq += 1;
        heap.push(Event {
            time,
            seq: *seq,
            kind,
        });
    };

    let mut timeline: Vec<TimelineEntry> = Vec::with_capacity(n);
    let mut memory_timeline: Vec<MemorySample> = Vec::with_capacity(2 * n);
    let mut completed = 0usize;
    let mut makespan = 0.0f64;

    // Seed: tasks with no dependencies are ready at t = 0.
    for id in 0..n {
        if unmet[id] == 0 {
            push(&mut heap, &mut seq, 0.0, EventKind::Ready(id));
        }
    }

    // Starts `id` on its (idle) device at `now`.
    macro_rules! start_task {
        ($id:expr, $now:expr) => {{
            let id = $id;
            let now = $now;
            let t = &graph.tasks[id];
            debug_assert!(!busy[t.device]);
            busy[t.device] = true;
            started[id] = true;
            dispatchable[t.device].remove(&(t.priority, id));
            mem_cur[t.device] += convert::u64_i64_saturating(t.mem_acquire.get());
            mem_peak[t.device] = mem_peak[t.device].max(mem_cur[t.device]);
            memory_timeline.push(MemorySample {
                time: MicroSecs::new(now),
                device: t.device,
                bytes: Bytes::new(convert::i64_u64_clamped(mem_cur[t.device])),
            });
            busy_time[t.device] += t.dur.as_micros();
            let end = now + t.dur.as_micros();
            timeline.push(TimelineEntry {
                device: t.device,
                meta: t.meta,
                start: MicroSecs::new(now),
                end: MicroSecs::new(end),
            });
            push(&mut heap, &mut seq, end, EventKind::Complete(id));
        }};
    }

    // Tries to start the next task on `dev` at `now`.
    macro_rules! try_dispatch {
        ($dev:expr, $now:expr) => {{
            let dev = $dev;
            let now = $now;
            if !busy[dev] {
                match graph.discipline {
                    Discipline::FixedOrder => {
                        // Skip completed heads (shouldn't happen, but safe).
                        while queue_ptr[dev] < queues[dev].len()
                            && done[queues[dev][queue_ptr[dev]]]
                        {
                            queue_ptr[dev] += 1;
                        }
                        if queue_ptr[dev] < queues[dev].len() {
                            let head = queues[dev][queue_ptr[dev]];
                            if !started[head] && is_ready[head] && ready_at[head] <= now + 1e-15 {
                                queue_ptr[dev] += 1;
                                start_task!(head, now);
                            }
                        }
                    }
                    Discipline::GreedyPriority => {
                        if let Some(&(_prio, id)) = dispatchable[dev].iter().next() {
                            start_task!(id, now);
                        }
                    }
                }
            }
        }};
    }

    // Process events in batches sharing a timestamp: all state changes at
    // time t are applied before any dispatch decision at time t, so a
    // greedy device sees every task that became ready at t, not just the
    // first event's.
    let mut touched: Vec<usize> = Vec::new();
    while let Some(first) = heap.pop() {
        let now = first.time;
        touched.clear();
        let mut batch = vec![first];
        // lint: allow(float-eq): batching events that share the *exact*
        // timestamp is intentional — co-timed events come from identical
        // arithmetic, so bit equality is the correct grouping predicate.
        while heap.peek().is_some_and(|next| next.time == now) {
            if let Some(next) = heap.pop() {
                batch.push(next);
            }
        }
        for ev in batch {
            events += 1;
            match ev.kind {
                EventKind::Ready(id) => {
                    if started[id] {
                        continue;
                    }
                    is_ready[id] = true;
                    let t = &graph.tasks[id];
                    dispatchable[t.device].insert((t.priority, id));
                    ready_peak = ready_peak.max(dispatchable[t.device].len());
                    touched.push(t.device);
                }
                EventKind::Complete(id) => {
                    let t = &graph.tasks[id];
                    done[id] = true;
                    completed += 1;
                    busy[t.device] = false;
                    mem_cur[t.device] -= convert::u64_i64_saturating(t.mem_release.get());
                    memory_timeline.push(MemorySample {
                        time: MicroSecs::new(ev.time),
                        device: t.device,
                        bytes: Bytes::new(convert::i64_u64_clamped(mem_cur[t.device])),
                    });
                    makespan = makespan.max(ev.time);
                    touched.push(t.device);
                    // Propagate to dependents.
                    for &dep_id in &dependents[id] {
                        let edge = graph.tasks[dep_id]
                            .deps
                            .iter()
                            .find(|(p, _)| *p == id)
                            .map_or(0.0, |(_, delay)| delay.as_micros());
                        ready_at[dep_id] = ready_at[dep_id].max(ev.time + edge);
                        unmet[dep_id] -= 1;
                        if unmet[dep_id] == 0 {
                            push(
                                &mut heap,
                                &mut seq,
                                ready_at[dep_id],
                                EventKind::Ready(dep_id),
                            );
                        }
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &dev in &touched {
            try_dispatch!(dev, now);
        }
    }

    if completed != n {
        // Deadlock: name a few stuck tasks and what they wait on, which
        // turns an opaque hang into an actionable bug report.
        let mut stuck: Vec<String> = Vec::new();
        for (id, t) in graph.tasks.iter().enumerate() {
            if !done[id] && stuck.len() < 8 {
                let waiting: Vec<usize> = t
                    .deps
                    .iter()
                    .map(|&(d, _)| d)
                    .filter(|&d| !done[d])
                    .collect();
                stuck.push(format!(
                    "task {id} ({:?} mb{} s{} on dev{}) waits on {waiting:?}",
                    t.meta.kind, t.meta.micro_batch, t.meta.stage, t.device
                ));
            }
        }
        return Err(SimError::Deadlock {
            schedule: graph.name.clone(),
            completed,
            total: n,
            stuck,
        });
    }

    timeline.sort_by(|a, b| {
        a.start
            .as_micros()
            .total_cmp(&b.start.as_micros())
            .then(a.device.cmp(&b.device))
    });
    let devices = (0..d)
        .map(|dev| DeviceReport {
            busy: MicroSecs::new(busy_time[dev]),
            bubble: MicroSecs::new(makespan - busy_time[dev]),
            peak_dynamic_bytes: Bytes::new(convert::i64_u64_clamped(mem_peak[dev])),
        })
        .collect();
    memory_timeline.sort_by(|a, b| {
        a.time
            .as_micros()
            .total_cmp(&b.time.as_micros())
            .then(a.device.cmp(&b.device))
    });
    if rec.is_enabled() {
        rec.add(keys::SIM_TASKS, convert::usize_u64(n));
        rec.add(keys::SIM_EVENTS, events);
        rec.gauge_max(keys::SIM_READY_QUEUE_PEAK, convert::count_f64(ready_peak));
        for dev in 0..d {
            rec.gauge(&keys::sim_device_busy_us(dev), busy_time[dev]);
            rec.gauge(&keys::sim_device_bubble_us(dev), makespan - busy_time[dev]);
        }
    }
    Ok(SimReport {
        schedule: graph.name.clone(),
        makespan: MicroSecs::new(makespan),
        devices,
        timeline,
        memory_timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Discipline, OpKind, TaskGraph, TaskMeta};

    fn meta(mb: usize) -> TaskMeta {
        TaskMeta {
            kind: OpKind::Forward,
            micro_batch: mb,
            stage: 0,
            replica: 0,
        }
    }

    #[test]
    fn chain_runs_sequentially_with_delays() {
        let mut g = TaskGraph::new("chain", 2, Discipline::FixedOrder);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let b = g.push(
            1,
            MicroSecs::new(2.0),
            vec![(a, MicroSecs::new(0.5))],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let _ = b;
        let r = simulate(&g, &Recorder::disabled()).unwrap();
        assert!((r.makespan - MicroSecs::new(3.5)).abs() < MicroSecs::new(1e-12));
        assert!((r.devices[1].bubble - MicroSecs::new(1.5)).abs() < MicroSecs::new(1e-12));
    }

    #[test]
    fn fixed_order_blocks_on_queue_head() {
        // Device 0 queue: [x (depends on y), z]. y runs on device 1 after
        // 2s. FixedOrder must idle device 0 until x is ready even though
        // z is runnable.
        let mut g = TaskGraph::new("block", 2, Discipline::FixedOrder);
        let y = g.push(
            1,
            MicroSecs::new(2.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let _x = g.push(
            0,
            MicroSecs::new(1.0),
            vec![(y, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(1),
        );
        let _z = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(2),
        );
        let r = simulate(&g, &Recorder::disabled()).unwrap();
        assert!((r.makespan - MicroSecs::new(4.0)).abs() < MicroSecs::new(1e-12));
    }

    #[test]
    fn greedy_reorders_past_blocked_head() {
        let mut g = TaskGraph::new("greedy", 2, Discipline::GreedyPriority);
        let y = g.push(
            1,
            MicroSecs::new(2.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let _x = g.push(
            0,
            MicroSecs::new(1.0),
            vec![(y, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(1),
        );
        let _z = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(2),
        );
        let r = simulate(&g, &Recorder::disabled()).unwrap();
        // z runs at t=0 on device 0; x at t=2.
        assert!((r.makespan - MicroSecs::new(3.0)).abs() < MicroSecs::new(1e-12));
    }

    #[test]
    fn memory_ledger_tracks_peak_not_end() {
        let mut g = TaskGraph::new("mem", 1, Discipline::FixedOrder);
        // Acquire 100, release 0; then acquire 50 release 150.
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::new(100),
            Bytes::ZERO,
            0,
            meta(0),
        );
        let _b = g.push(
            0,
            MicroSecs::new(1.0),
            vec![(a, MicroSecs::ZERO)],
            Bytes::new(50),
            Bytes::new(150),
            1,
            meta(1),
        );
        let r = simulate(&g, &Recorder::disabled()).unwrap();
        assert_eq!(r.devices[0].peak_dynamic_bytes, Bytes::new(150));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let mut g = TaskGraph::new("tie", 1, Discipline::GreedyPriority);
        for i in 0..5 {
            let _ = g.push(
                0,
                MicroSecs::new(1.0),
                vec![],
                Bytes::ZERO,
                Bytes::ZERO,
                10 - i,
                meta(i as usize),
            );
        }
        let r1 = simulate(&g, &Recorder::disabled()).unwrap();
        let r2 = simulate(&g, &Recorder::disabled()).unwrap();
        assert_eq!(r1.timeline.len(), r2.timeline.len());
        for (a, b) in r1.timeline.iter().zip(&r2.timeline) {
            assert_eq!(a.meta, b.meta);
            assert!((a.start - b.start).abs() < MicroSecs::new(1e-15));
        }
        // Priorities inverted: micro-batch 4 (priority 6) runs first.
        assert_eq!(r1.timeline[0].meta.micro_batch, 4);
    }

    #[test]
    fn traced_simulation_reports_engine_effort() {
        let mut g = TaskGraph::new("traced", 2, Discipline::GreedyPriority);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let _b = g.push(
            1,
            MicroSecs::new(2.0),
            vec![(a, MicroSecs::new(0.5))],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(1),
        );
        let rec = Recorder::new();
        let traced = simulate(&g, &rec).unwrap();
        let plain = simulate(&g, &Recorder::disabled()).unwrap();
        assert_eq!(traced, plain, "tracing must not change the result");
        let snap = rec.snapshot();
        assert_eq!(snap.counters["sim.tasks"], 2);
        assert!(snap.counters["sim.events"] >= 4); // 2 ready + 2 complete
        assert!(snap.gauges["sim.ready_queue.peak"] >= 1.0);
        assert!(snap.gauges.contains_key("sim.device0.busy_us"));
        assert!(snap.gauges.contains_key("sim.device1.bubble_us"));
        assert_eq!(snap.spans.iter().filter(|s| s.name == "sim.run").count(), 1);
    }

    #[test]
    fn deadlock_returns_typed_error() {
        let mut g = TaskGraph::new("cycle", 2, Discipline::GreedyPriority);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let b = g.push(
            1,
            MicroSecs::new(1.0),
            vec![(a, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(1),
        );
        // Close the cycle: a also waits on b.
        g.add_dep(a, b, MicroSecs::ZERO);
        match simulate(&g, &Recorder::disabled()) {
            Err(SimError::Deadlock {
                completed,
                total,
                schedule,
                stuck,
            }) => {
                assert_eq!((completed, total), (0, 2));
                assert_eq!(schedule, "cycle");
                assert!(!stuck.is_empty());
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn self_dependency_is_a_deadlock() {
        let mut g = TaskGraph::new("cycle", 1, Discipline::GreedyPriority);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        g.add_dep(a, a, MicroSecs::ZERO);
        let err = simulate(&g, &Recorder::disabled()).unwrap_err();
        assert!(err.to_string().contains("schedule deadlocked"), "{err}");
    }

    #[test]
    fn healthy_graph_returns_its_report() {
        let mut g = TaskGraph::new("ok", 1, Discipline::FixedOrder);
        let a = g.push(
            0,
            MicroSecs::new(2.0),
            vec![],
            Bytes::new(7),
            Bytes::new(7),
            0,
            meta(0),
        );
        let _ = a;
        let r = simulate(&g, &Recorder::disabled()).unwrap();
        assert_eq!(r.makespan, MicroSecs::new(2.0));
        assert_eq!(r.devices[0].peak_dynamic_bytes, Bytes::new(7));
        assert_eq!(r.timeline.len(), 1);
    }

    #[test]
    fn busy_plus_bubble_equals_makespan() {
        let mut g = TaskGraph::new("sum", 3, Discipline::FixedOrder);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let b = g.push(
            1,
            MicroSecs::new(2.0),
            vec![(a, MicroSecs::new(0.1))],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let _c = g.push(
            2,
            MicroSecs::new(3.0),
            vec![(b, MicroSecs::new(0.1))],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(0),
        );
        let r = simulate(&g, &Recorder::disabled()).unwrap();
        for dev in &r.devices {
            assert!((dev.busy + dev.bubble - r.makespan).abs() < MicroSecs::new(1e-12));
        }
    }
}
