//! The event-driven execution engine.

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
/// Each device starts its tasks in [`TaskGraph::device_queues`] order,
/// as its [`Discipline`] allows. The simulation is deterministic.
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

    // Per-device state. Each device starts tasks in its queue order;
    // `dispatchable` holds the queue positions of its ready tasks.
    let queues = graph.device_queues();
    let mut queue_pos = vec![0usize; n];
    for q in &queues {
        for (pos, &id) in q.iter().enumerate() {
            queue_pos[id] = pos;
        }
    }
    let mut dispatchable: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); d];
    let mut started = vec![0usize; d];
    let mut busy = vec![false; d];
    let mut busy_time = vec![0.0f64; d];
    let mut mem_cur = vec![0i64; d];
    let mut mem_peak = vec![0i64; d];

    let mut done = vec![false; n];

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
    let mut makespan = 0.0f64;

    // Seed: tasks with no dependencies are ready at t = 0.
    for (id, &deps) in unmet.iter().enumerate() {
        if deps == 0 {
            push(&mut heap, &mut seq, 0.0, EventKind::Ready(id));
        }
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
                    let t = &graph.tasks[id];
                    dispatchable[t.device].insert(queue_pos[id]);
                    ready_peak = ready_peak.max(dispatchable[t.device].len());
                    touched.push(t.device);
                }
                EventKind::Complete(id) => {
                    let t = &graph.tasks[id];
                    done[id] = true;
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
        // An idle device starts the first ready task in its queue; a
        // fixed-order device only if that task is its next one.
        for &dev in &touched {
            let Some(&pos) = dispatchable[dev].first() else {
                continue;
            };
            if busy[dev] || (graph.discipline == Discipline::FixedOrder && pos != started[dev]) {
                continue;
            }
            dispatchable[dev].remove(&pos);
            let id = queues[dev][pos];
            let t = &graph.tasks[id];
            busy[dev] = true;
            started[dev] += 1;
            mem_cur[dev] += convert::u64_i64_saturating(t.mem_acquire.get());
            mem_peak[dev] = mem_peak[dev].max(mem_cur[dev]);
            memory_timeline.push(MemorySample {
                time: MicroSecs::new(now),
                device: dev,
                bytes: Bytes::new(convert::i64_u64_clamped(mem_cur[dev])),
            });
            busy_time[dev] += t.dur.as_micros();
            let end = now + t.dur.as_micros();
            timeline.push(TimelineEntry {
                device: dev,
                meta: t.meta,
                start: MicroSecs::new(now),
                end: MicroSecs::new(end),
            });
            push(&mut heap, &mut seq, end, EventKind::Complete(id));
        }
    }

    let completed = timeline.len();
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
        for (dev, &busy) in busy_time.iter().enumerate() {
            rec.gauge(&keys::sim_device_busy_us(dev), busy);
            rec.gauge(&keys::sim_device_bubble_us(dev), makespan - busy);
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
    fn fixed_order_runs_queues_in_priority_order() {
        // Device 0 queues b (priority 0) before a (priority 1); b waits on
        // x (device 1), which waits on a. Inserted a, x, b, the graph
        // respects every dependency, but its queue order deadlocks.
        let mut g = TaskGraph::new("probe", 2, Discipline::FixedOrder);
        let a = g.push(
            0,
            MicroSecs::new(1.0),
            vec![],
            Bytes::ZERO,
            Bytes::ZERO,
            1,
            meta(0),
        );
        let x = g.push(
            1,
            MicroSecs::new(1.0),
            vec![(a, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(1),
        );
        let b = g.push(
            0,
            MicroSecs::new(1.0),
            vec![(x, MicroSecs::ZERO)],
            Bytes::ZERO,
            Bytes::ZERO,
            0,
            meta(2),
        );
        assert_eq!(g.device_queues(), vec![vec![2, 0], vec![1]]);
        match simulate(&g, &Recorder::disabled()) {
            Err(SimError::Deadlock { completed, .. }) => assert_eq!(completed, 0),
            other => panic!("expected deadlock, got {other:?}"),
        }
        // Swapping the script back lets every task run.
        g.swap_priorities(a, b);
        assert_eq!(g.device_queues(), vec![vec![0, 2], vec![1]]);
        let r = simulate(&g, &Recorder::disabled()).unwrap();
        assert_eq!(r.makespan, MicroSecs::new(3.0));
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
