//! Schedule generators: GPipe, 1F1B (DAPPLE), Chimera and ChimeraD.
//!
//! Each generator turns per-stage execution profiles ([`StageExec`]) into
//! a [`TaskGraph`] for the event engine. 1F1B and GPipe use exact
//! fixed-order queues (their engines are deterministic scripts) with the
//! script position encoded in each task's priority; the bidirectional
//! Chimera schedules use greedy priorities, letting the interleaving
//! emerge from dependencies — backward passes and earlier scheduling
//! units first, which is the rule Chimera's hand schedules encode.

#![allow(
    clippy::needless_range_loop,
    reason = "index loops below mirror the (micro-batch, stage) grids of the paper's \
              schedule diagrams"
)]

use crate::task::{Discipline, OpKind, StageExec, TaskGraph, TaskMeta};
use adapipe_units::{convert, Bytes, MicroSecs};
use std::error::Error;
use std::fmt;

/// The schedule families of the generators below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`one_f_one_b`].
    OneFOneB,
    /// [`gpipe`].
    Gpipe,
    /// [`chimera`], with or without forward doubling.
    Chimera,
    /// [`interleaved`].
    Interleaved,
}

/// The [`check_shape`] rule a `(p, n)` breaks, stated by `Display`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// 1F1B and interleaved 1F1B need `n >= p` to fill the pipe.
    Underfilled { n: usize, p: usize },
    /// GPipe needs a micro-batch.
    NoMicroBatches,
    /// Chimera pairs a down and an up pipeline, so needs an even `p`.
    OddPipeline { p: usize },
    /// Chimera runs units of `p` micro-batches, so needs `n = k·p, k > 0`.
    RaggedUnits { n: usize, p: usize },
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ShapeError::Underfilled { n, p } => write!(f, "1F1B needs n >= p (n={n}, p={p})"),
            ShapeError::NoMicroBatches => f.write_str("GPipe needs at least one micro-batch"),
            ShapeError::OddPipeline { p } => {
                write!(f, "chimera needs an even pipeline size, got {p}")
            }
            ShapeError::RaggedUnits { n, p } => write!(
                f,
                "chimera needs n to be a positive multiple of p (n={n}, p={p})"
            ),
        }
    }
}

impl Error for ShapeError {}

/// Whether `family` can run `n` micro-batches on `p` devices; the one
/// statement of each generator's shape rule, which it panics on.
///
/// # Errors
///
/// The first rule `(p, n)` breaks.
pub fn check_shape(family: Family, p: usize, n: usize) -> Result<(), ShapeError> {
    match family {
        Family::OneFOneB | Family::Interleaved if n < p => Err(ShapeError::Underfilled { n, p }),
        Family::Gpipe if n == 0 => Err(ShapeError::NoMicroBatches),
        Family::Chimera if !p.is_multiple_of(2) => Err(ShapeError::OddPipeline { p }),
        Family::Chimera if n == 0 || !n.is_multiple_of(p) => Err(ShapeError::RaggedUnits { n, p }),
        _ => Ok(()),
    }
}

#[expect(
    clippy::panic,
    reason = "each generator documents this panic; callers with untrusted (p, n) call \
              `check_shape` first"
)]
fn require_shape(family: Family, p: usize, n: usize) {
    if let Err(e) = check_shape(family, p, n) {
        panic!("{e}");
    }
}

/// Position of op (`kind`, micro-batch `m`) in stage `s`'s 1F1B script
/// (§2.1), the one statement of the order both [`one_f_one_b`] and the
/// threaded trainer run: `w = min(p − s − 1, n)` warmup forwards, then
/// forward and backward alternate, then the last `w` backwards drain.
#[must_use]
pub fn f1b_position(kind: OpKind, m: usize, s: usize, p: usize, n: usize) -> u64 {
    let w = (p - s - 1).min(n); // warmup forwards
    let pos = match kind {
        OpKind::Forward => {
            if m < w {
                m
            } else {
                w + 2 * (m - w)
            }
        }
        OpKind::Backward => {
            if m < n - w {
                w + 2 * m + 1
            } else {
                w + 2 * (n - w) + (m - (n - w))
            }
        }
    };
    convert::usize_u64(pos)
}

/// Builds the 1F1B (DAPPLE) schedule: stage `s` runs `p − s − 1` warmup
/// forwards, alternates forward/backward in the steady phase, and drains
/// backwards in the ending phase. `p2p` is the stage-boundary transfer
/// delay in seconds.
///
/// # Panics
///
/// Panics if `stages` is empty or [`check_shape`] rejects `(p, n)`.
#[must_use]
pub fn one_f_one_b(stages: &[StageExec], n: usize, p2p: MicroSecs) -> TaskGraph {
    let p = stages.len();
    require_shape(Family::OneFOneB, p, n);

    let mut g = TaskGraph::new("1f1b", p, Discipline::FixedOrder);
    let mut fwd_id = vec![vec![usize::MAX; n]; p];
    let mut bwd_id = vec![vec![usize::MAX; n]; p];

    // Forwards stage-major ascending (dep F(m, s-1) already pushed).
    for s in 0..p {
        for m in 0..n {
            let deps = if s == 0 {
                vec![]
            } else {
                vec![(fwd_id[s - 1][m], p2p)]
            };
            fwd_id[s][m] = g.push(
                s,
                stages[s].time_f,
                deps,
                stages[s].saved_bytes,
                Bytes::ZERO,
                f1b_position(OpKind::Forward, m, s, p, n),
                TaskMeta {
                    kind: OpKind::Forward,
                    micro_batch: m,
                    stage: s,
                    replica: 0,
                },
            );
        }
    }
    // Backwards stage-major descending (dep B(m, s+1) already pushed).
    for s in (0..p).rev() {
        for m in 0..n {
            let deps = if s == p - 1 {
                vec![(fwd_id[s][m], MicroSecs::ZERO)]
            } else {
                vec![(bwd_id[s + 1][m], p2p)]
            };
            bwd_id[s][m] = g.push(
                s,
                stages[s].time_b,
                deps,
                stages[s].buffer_bytes,
                stages[s].buffer_bytes.saturating_add(stages[s].saved_bytes),
                f1b_position(OpKind::Backward, m, s, p, n),
                TaskMeta {
                    kind: OpKind::Backward,
                    micro_batch: m,
                    stage: s,
                    replica: 0,
                },
            );
        }
    }
    g
}

/// Builds the GPipe schedule: all forwards, then all backwards (reverse
/// micro-batch order, as in Figure 2 (a)). Memory-hungry: every stage
/// holds all `n` micro-batches' activations at the forward/backward
/// boundary.
///
/// # Panics
///
/// Panics if `stages` is empty or [`check_shape`] rejects `(p, n)`.
#[must_use]
pub fn gpipe(stages: &[StageExec], n: usize, p2p: MicroSecs) -> TaskGraph {
    let p = stages.len();
    require_shape(Family::Gpipe, p, n);

    let mut g = TaskGraph::new("gpipe", p, Discipline::FixedOrder);
    let mut fwd_id = vec![vec![usize::MAX; n]; p];
    for s in 0..p {
        for m in 0..n {
            let deps = if s == 0 {
                vec![]
            } else {
                vec![(fwd_id[s - 1][m], p2p)]
            };
            fwd_id[s][m] = g.push(
                s,
                stages[s].time_f,
                deps,
                stages[s].saved_bytes,
                Bytes::ZERO,
                convert::usize_u64(m),
                TaskMeta {
                    kind: OpKind::Forward,
                    micro_batch: m,
                    stage: s,
                    replica: 0,
                },
            );
        }
    }
    let mut bwd_id = vec![vec![usize::MAX; n]; p];
    for s in (0..p).rev() {
        for m in (0..n).rev() {
            let deps = if s == p - 1 {
                vec![(fwd_id[s][m], MicroSecs::ZERO)]
            } else {
                vec![(bwd_id[s + 1][m], p2p)]
            };
            bwd_id[s][m] = g.push(
                s,
                stages[s].time_b,
                deps,
                stages[s].buffer_bytes,
                stages[s].buffer_bytes.saturating_add(stages[s].saved_bytes),
                convert::usize_u64(n + (n - 1 - m)),
                TaskMeta {
                    kind: OpKind::Backward,
                    micro_batch: m,
                    stage: s,
                    replica: 0,
                },
            );
        }
    }
    g
}

/// Builds a Chimera bidirectional schedule: two model replicas per
/// device — the *down* pipeline maps stage `s` to device `s`, the *up*
/// pipeline to device `p − 1 − s` — with micro-batches split between
/// directions in scheduling units of `p` (§2.1 and §7.2 of the paper).
///
/// With `forward_doubling`, forwards process two micro-batches at once
/// (duration and activations doubled) to equalize forward and backward
/// op lengths — the ChimeraD baseline.
///
/// Note: parameter duplication across replicas is *static* memory and is
/// accounted by the caller; this graph tracks dynamic activations only.
///
/// # Panics
///
/// Panics if `stages` is empty or [`check_shape`] rejects `(p, n)`.
#[must_use]
pub fn chimera(
    stages: &[StageExec],
    n: usize,
    p2p: MicroSecs,
    forward_doubling: bool,
) -> TaskGraph {
    let p = stages.len();
    require_shape(Family::Chimera, p, n);

    let name = if forward_doubling {
        "chimera-d"
    } else {
        "chimera"
    };
    let mut g = TaskGraph::new(name, p, Discipline::GreedyPriority);

    // Micro-batch -> direction. Direction 0 = down, 1 = up; each
    // scheduling unit of p micro-batches is split half/half.
    let half = p / 2;
    let direction = |m: usize| usize::from(m % p >= half);
    let device_of = |dir: usize, s: usize| if dir == 0 { s } else { p - 1 - s };

    // Forward groups: singles, or same-direction pairs when doubling.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    {
        let mut per_dir: [Vec<usize>; 2] = [Vec::new(), Vec::new()];
        for m in 0..n {
            per_dir[direction(m)].push(m);
        }
        for list in per_dir {
            if forward_doubling {
                for pair in list.chunks(2) {
                    groups.push(pair.to_vec());
                }
            } else {
                for m in list {
                    groups.push(vec![m]);
                }
            }
        }
    }
    let mut group_of = vec![usize::MAX; n];
    for (gi, ms) in groups.iter().enumerate() {
        for &m in ms {
            group_of[m] = gi;
        }
    }

    let unit = |m: usize| m / p;
    // Priority: earlier unit first; backward before forward within a unit
    // (Chimera's memory-driven rule); then micro-batch, then stage.
    let fwd_prio = |m: usize, s: usize| convert::usize_u64((unit(m) * 2 + 1) * n * p + m * p + s);
    let bwd_prio = |m: usize, s: usize| convert::usize_u64((unit(m) * 2) * n * p + m * p + s);

    let mut fwd_id = vec![vec![usize::MAX; p]; groups.len()];
    for (gi, ms) in groups.iter().enumerate() {
        let Some(&m0) = ms.first() else { continue };
        let dir = direction(m0);
        let scale = convert::count_f64(ms.len());
        for s in 0..p {
            let dev = device_of(dir, s);
            let deps = if s == 0 {
                vec![]
            } else {
                vec![(fwd_id[gi][s - 1], p2p)]
            };
            fwd_id[gi][s] = g.push(
                dev,
                stages[s].time_f * scale,
                deps,
                stages[s].saved_bytes * convert::usize_u64(ms.len()),
                Bytes::ZERO,
                fwd_prio(m0, s),
                TaskMeta {
                    kind: OpKind::Forward,
                    micro_batch: m0,
                    stage: s,
                    replica: dir,
                },
            );
        }
    }
    let mut bwd_id = vec![vec![usize::MAX; p]; n];
    for m in 0..n {
        let dir = direction(m);
        let gi = group_of[m];
        for s in (0..p).rev() {
            let dev = device_of(dir, s);
            let deps = if s == p - 1 {
                vec![(fwd_id[gi][s], MicroSecs::ZERO)]
            } else {
                vec![(bwd_id[m][s + 1], p2p)]
            };
            bwd_id[m][s] = g.push(
                dev,
                stages[s].time_b,
                deps,
                stages[s].buffer_bytes,
                stages[s].buffer_bytes.saturating_add(stages[s].saved_bytes),
                bwd_prio(m, s),
                TaskMeta {
                    kind: OpKind::Backward,
                    micro_batch: m,
                    stage: s,
                    replica: dir,
                },
            );
        }
    }

    // Chimera concatenates scheduling units rigidly: on each device, the
    // backwards of unit u+1 wait for every backward of unit u, and
    // likewise for forwards (forwards of the next unit may still fill the
    // previous unit's ending bubbles, but units never reorder). This is
    // what creates the inter-unit bubbles of §7.2 when B > F.
    let units = n / p;
    if units > 1 {
        // Per (device, unit): forward / backward task ids.
        let mut f_by = vec![vec![Vec::new(); units]; p];
        let mut b_by = vec![vec![Vec::new(); units]; p];
        for (gi, ms) in groups.iter().enumerate() {
            let Some(&m0) = ms.first() else { continue };
            let dir = direction(m0);
            for s in 0..p {
                f_by[device_of(dir, s)][unit(m0)].push(fwd_id[gi][s]);
            }
        }
        for m in 0..n {
            let dir = direction(m);
            for s in 0..p {
                b_by[device_of(dir, s)][unit(m)].push(bwd_id[m][s]);
            }
        }
        for dev in 0..p {
            for u in 1..units {
                for &task in &f_by[dev][u] {
                    for &dep in &f_by[dev][u - 1] {
                        g.add_dep(task, dep, MicroSecs::ZERO);
                    }
                }
                for &task in &b_by[dev][u] {
                    for &dep in &b_by[dev][u - 1] {
                        g.add_dep(task, dep, MicroSecs::ZERO);
                    }
                }
            }
        }
    }
    g
}

/// Builds Megatron-LM's *interleaved* 1F1B schedule (§2.1 of the paper):
/// the layer sequence is split into `devices · v` chunks (virtual
/// stages), and device `d` hosts virtual stages `d, p + d, 2p + d, …`.
/// Finer slicing shrinks the bubble to roughly `1/v` of plain 1F1B at
/// the cost of `v×` the stage-boundary communication — the trade-off the
/// paper cites when comparing against it.
///
/// `chunks[vs]` is the execution profile of virtual stage `vs`; its
/// length must be a positive multiple of `devices`. Backward passes get
/// priority over forwards on each device (the memory-driven rule), so
/// the interleaving emerges from the dependence structure.
///
/// # Panics
///
/// Panics if `devices` is zero, `chunks` is not a positive multiple of
/// `devices`, or [`check_shape`] rejects `(devices, n)`.
#[must_use]
pub fn interleaved(chunks: &[StageExec], devices: usize, n: usize, p2p: MicroSecs) -> TaskGraph {
    let p = devices;
    let vp = chunks.len();
    assert!(
        vp >= p && vp.is_multiple_of(p),
        "chunk count {vp} must be a positive multiple of devices {p}"
    );
    require_shape(Family::Interleaved, p, n);

    let mut g = TaskGraph::new("interleaved-1f1b", p, Discipline::GreedyPriority);
    let device_of = |vs: usize| vs % p;

    // Backwards outrank forwards; within a kind, earlier micro-batches
    // and earlier virtual stages first (for B: later virtual stages
    // first, since gradients flow backwards).
    let fwd_prio = |m: usize, vs: usize| convert::usize_u64(1_000_000_000 + m * vp + vs);
    let bwd_prio = |m: usize, vs: usize| convert::usize_u64(m * vp + (vp - 1 - vs));

    let mut fwd_id = vec![vec![usize::MAX; vp]; n];
    for vs in 0..vp {
        for m in 0..n {
            let deps = if vs == 0 {
                vec![]
            } else {
                vec![(fwd_id[m][vs - 1], p2p)]
            };
            fwd_id[m][vs] = g.push(
                device_of(vs),
                chunks[vs].time_f,
                deps,
                chunks[vs].saved_bytes,
                Bytes::ZERO,
                fwd_prio(m, vs),
                TaskMeta {
                    kind: OpKind::Forward,
                    micro_batch: m,
                    stage: vs,
                    replica: 0,
                },
            );
        }
    }
    let mut bwd_id = vec![vec![usize::MAX; vp]; n];
    for vs in (0..vp).rev() {
        for m in 0..n {
            let deps = if vs == vp - 1 {
                vec![(fwd_id[m][vs], MicroSecs::ZERO)]
            } else {
                vec![(bwd_id[m][vs + 1], p2p)]
            };
            bwd_id[m][vs] = g.push(
                device_of(vs),
                chunks[vs].time_b,
                deps,
                chunks[vs].buffer_bytes,
                chunks[vs]
                    .buffer_bytes
                    .saturating_add(chunks[vs].saved_bytes),
                bwd_prio(m, vs),
                TaskMeta {
                    kind: OpKind::Backward,
                    micro_batch: m,
                    stage: vs,
                    replica: 0,
                },
            );
        }
    }
    // Residency throttle: treat the virtual pipeline as a vp-deep 1F1B —
    // virtual stage vs holds at most vp − vs in-flight micro-batches, so
    // F(m, vs) waits for B(m − (vp − vs), vs). Without this, greedy
    // devices would run all forwards eagerly, GPipe-style.
    for vs in 0..vp {
        let cap = vp - vs;
        for m in cap..n {
            g.add_dep(fwd_id[m][vs], bwd_id[m - cap][vs], MicroSecs::ZERO);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::report::SimReport;
    use adapipe_obs::Recorder;

    fn run(g: &TaskGraph) -> SimReport {
        simulate(g, &Recorder::disabled()).unwrap()
    }

    fn balanced(p: usize, f: f64, b: f64, saved: u64, buffer: u64) -> Vec<StageExec> {
        vec![
            StageExec {
                time_f: MicroSecs::new(f),
                time_b: MicroSecs::new(b),
                saved_bytes: Bytes::new(saved),
                buffer_bytes: Bytes::new(buffer)
            };
            p
        ]
    }

    /// Zero transfer delay, for the closed-form comparisons.
    const FREE: MicroSecs = MicroSecs::ZERO;

    #[test]
    fn f1b_matches_closed_form_balanced() {
        for (p, n) in [(2usize, 4usize), (4, 8), (8, 64), (4, 4)] {
            let g = one_f_one_b(&balanced(p, 1.0, 2.0, 0, 0), n, FREE);
            let r = run(&g);
            let expect = (n + p - 1) as f64 * 3.0;
            assert!(
                (r.makespan.as_micros() - expect).abs() < 1e-9,
                "p={p} n={n}: {}",
                r.makespan
            );
        }
    }

    #[test]
    fn f1b_memory_peak_is_p_minus_s_activations() {
        let (p, n, saved, buffer) = (4usize, 12usize, 1000u64, 77u64);
        let g = one_f_one_b(&balanced(p, 1.0, 2.0, saved, buffer), n, FREE);
        let r = run(&g);
        for (s, dev) in r.devices.iter().enumerate() {
            let expect = Bytes::new((p - s) as u64 * saved + buffer);
            assert_eq!(dev.peak_dynamic_bytes, expect, "stage {s}");
        }
    }

    #[test]
    fn f1b_script_positions_are_a_permutation() {
        let (p, n) = (5usize, 9usize);
        for s in 0..p {
            let mut seen = vec![false; 2 * n];
            for m in 0..n {
                for kind in [OpKind::Forward, OpKind::Backward] {
                    let pos = f1b_position(kind, m, s, p, n) as usize;
                    assert!(!seen[pos], "stage {s}: position {pos} duplicated");
                    seen[pos] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "stage {s}: gaps in script");
        }
    }

    #[test]
    fn gpipe_memory_peak_is_n_activations() {
        let (p, n, saved) = (3usize, 6usize, 500u64);
        let g = gpipe(&balanced(p, 1.0, 2.0, saved, 33), n, FREE);
        let r = run(&g);
        for dev in &r.devices {
            assert_eq!(dev.peak_dynamic_bytes, Bytes::new(n as u64 * saved + 33));
        }
    }

    #[test]
    fn gpipe_and_f1b_have_equal_bubbles_but_different_memory() {
        // Without interleaving, GPipe and 1F1B share the same bubble
        // count (2(p−1) slots); 1F1B's win is memory.
        let (p, n) = (4usize, 16usize);
        let stages = balanced(p, 1.0, 2.0, 100, 0);
        let rg = run(&gpipe(&stages, n, FREE));
        let rf = run(&one_f_one_b(&stages, n, FREE));
        assert!((rg.makespan - rf.makespan).abs() < MicroSecs::new(1e-9));
        assert!(rf.max_peak_dynamic_bytes() < rg.max_peak_dynamic_bytes());
    }

    #[test]
    fn f1b_p2p_delay_stretches_makespan() {
        let (p, n) = (4usize, 8usize);
        let no = run(&one_f_one_b(&balanced(p, 1.0, 2.0, 0, 0), n, FREE));
        let with = run(&one_f_one_b(
            &balanced(p, 1.0, 2.0, 0, 0),
            n,
            MicroSecs::new(0.25),
        ));
        assert!(with.makespan > no.makespan);
    }

    #[test]
    fn unbalanced_bottleneck_dominates_f1b() {
        let mut stages = balanced(4, 1.0, 2.0, 0, 0);
        stages[1] = StageExec {
            time_f: MicroSecs::new(2.0),
            time_b: MicroSecs::new(4.0),
            saved_bytes: Bytes::ZERO,
            buffer_bytes: Bytes::ZERO,
        };
        let n = 32;
        let r = run(&one_f_one_b(&stages, n, FREE));
        // Steady phase must run at the bottleneck micro-step (6.0).
        assert!(r.makespan > MicroSecs::new((n - 4) as f64 * 6.0));
    }

    #[test]
    fn chimera_runs_all_tasks_and_balances_directions() {
        let (p, n) = (4usize, 8usize);
        let g = chimera(&balanced(p, 1.0, 2.0, 10, 1), n, FREE, false);
        let r = run(&g);
        assert_eq!(r.timeline.len(), 2 * n * p);
        let down = r.timeline.iter().filter(|e| e.meta.replica == 0).count();
        assert_eq!(down, n * p);
    }

    #[test]
    fn chimera_concatenation_hurts_when_n_exceeds_p() {
        // B = 2F: concatenated Chimera units leave bubbles that 1F1B
        // avoids (§7.2 of the paper).
        let (p, n) = (4usize, 32usize);
        let stages = balanced(p, 1.0, 2.0, 0, 0);
        let rc = run(&chimera(&stages, n, FREE, false));
        let rf = run(&one_f_one_b(&stages, n, FREE));
        assert!(
            rc.makespan > rf.makespan,
            "chimera {} vs 1f1b {}",
            rc.makespan,
            rf.makespan
        );
    }

    #[test]
    fn chimera_d_never_shrinks_memory_and_doubles_granularity() {
        let (p, n) = (4usize, 16usize);
        let stages = balanced(p, 1.0, 2.0, 1000, 0);
        let rc = run(&chimera(&stages, n, FREE, false));
        let rd = run(&chimera(&stages, n, FREE, true));
        assert!(rd.max_peak_dynamic_bytes() >= rc.max_peak_dynamic_bytes());
        // Every doubled forward allocates two micro-batches at once.
        let doubled = rd
            .timeline
            .iter()
            .filter(|e| e.meta.kind == OpKind::Forward)
            .count();
        assert_eq!(doubled, n / 2 * p);
    }

    #[test]
    fn chimera_middle_devices_hold_most_activations() {
        // Figure 8: Chimera-Non peaks in the middle stages because both
        // directions' activations overlap there.
        let (p, n) = (8usize, 16usize);
        let stages = balanced(p, 1.0, 2.0, 1000, 0);
        let r = run(&chimera(&stages, n, FREE, false));
        let peaks: Vec<Bytes> = r.devices.iter().map(|d| d.peak_dynamic_bytes).collect();
        let mid = peaks[p / 2 - 1].max(peaks[p / 2]);
        assert!(mid >= peaks[0], "peaks {peaks:?}");
        assert!(mid >= peaks[p - 1], "peaks {peaks:?}");
    }

    #[test]
    fn interleaving_reduces_bubbles_when_n_is_small() {
        // p devices, v = 2: same total work per device as plain 1F1B
        // over p stages, but finer slicing shrinks warmup/ending bubbles.
        let (p, n) = (4usize, 4usize);
        let plain = balanced(p, 1.0, 2.0, 0, 0);
        // Each of the 2p chunks is half a plain stage.
        let chunks = balanced(2 * p, 0.5, 1.0, 0, 0);
        let r_plain = run(&one_f_one_b(&plain, n, FREE));
        let r_inter = run(&interleaved(&chunks, p, n, FREE));
        assert!(
            r_inter.makespan < r_plain.makespan,
            "interleaved {} vs plain {}",
            r_inter.makespan,
            r_plain.makespan
        );
    }

    #[test]
    fn interleaving_pays_more_communication() {
        // With expensive stage boundaries the v=2 advantage shrinks or
        // inverts — the paper's "more communication overhead" caveat.
        let (p, n) = (4usize, 4usize);
        let plain = balanced(p, 1.0, 2.0, 0, 0);
        let chunks = balanced(2 * p, 0.5, 1.0, 0, 0);
        let p2p = MicroSecs::new(0.4);
        let gain_free = run(&one_f_one_b(&plain, n, FREE)).makespan
            - run(&interleaved(&chunks, p, n, FREE)).makespan;
        let gain_costly = run(&one_f_one_b(&plain, n, p2p)).makespan
            - run(&interleaved(&chunks, p, n, p2p)).makespan;
        assert!(gain_costly < gain_free, "{gain_costly} !< {gain_free}");
    }

    #[test]
    fn interleaved_runs_every_task_once() {
        let (p, n, v) = (3usize, 6usize, 3usize);
        let chunks = balanced(v * p, 0.4, 0.8, 7, 1);
        let r = run(&interleaved(&chunks, p, n, MicroSecs::new(0.01)));
        assert_eq!(r.timeline.len(), 2 * n * v * p);
        // Device d runs exactly its own virtual stages.
        for e in &r.timeline {
            assert_eq!(e.device, e.meta.stage % p);
        }
    }

    #[test]
    fn interleaved_with_v1_matches_plain_1f1b_memory() {
        let (p, n) = (4usize, 8usize);
        let stages = balanced(p, 1.0, 2.0, 100, 3);
        let plain = run(&one_f_one_b(&stages, n, FREE));
        let inter = run(&interleaved(&stages, p, n, FREE));
        // v = 1: same chunk-per-device layout; peaks must match 1F1B's
        // (p - s) law.
        for (s, (a, b)) in plain.devices.iter().zip(&inter.devices).enumerate() {
            assert_eq!(a.peak_dynamic_bytes, b.peak_dynamic_bytes, "stage {s}");
        }
    }

    #[test]
    fn shape_rules_per_family() {
        use Family::{Chimera, Gpipe, Interleaved, OneFOneB};
        for family in [OneFOneB, Interleaved] {
            assert_eq!(
                check_shape(family, 4, 3),
                Err(ShapeError::Underfilled { n: 3, p: 4 })
            );
            assert_eq!(check_shape(family, 4, 4), Ok(()));
        }
        assert_eq!(check_shape(Gpipe, 4, 0), Err(ShapeError::NoMicroBatches));
        assert_eq!(check_shape(Gpipe, 4, 1), Ok(()));
        assert_eq!(
            check_shape(Chimera, 3, 6),
            Err(ShapeError::OddPipeline { p: 3 })
        );
        assert_eq!(
            check_shape(Chimera, 4, 6),
            Err(ShapeError::RaggedUnits { n: 6, p: 4 })
        );
        assert_eq!(
            check_shape(Chimera, 4, 0),
            Err(ShapeError::RaggedUnits { n: 0, p: 4 })
        );
        assert_eq!(check_shape(Chimera, 4, 8), Ok(()));
    }

    #[test]
    #[should_panic(expected = "1F1B needs n >= p (n=3, p=4)")]
    fn f1b_rejects_underfilled_pipe() {
        let _ = one_f_one_b(&balanced(4, 1.0, 1.0, 0, 0), 3, FREE);
    }

    #[test]
    #[should_panic(expected = "multiple of devices")]
    fn interleaved_rejects_ragged_chunks() {
        let _ = interleaved(&balanced(5, 1.0, 1.0, 0, 0), 2, 4, FREE);
    }

    #[test]
    #[should_panic(expected = "even pipeline size")]
    fn chimera_rejects_odd_p() {
        let _ = chimera(&balanced(3, 1.0, 1.0, 0, 0), 6, FREE, false);
    }

    #[test]
    #[should_panic(expected = "multiple of p")]
    fn chimera_rejects_ragged_n() {
        let _ = chimera(&balanced(4, 1.0, 1.0, 0, 0), 6, FREE, false);
    }
}
