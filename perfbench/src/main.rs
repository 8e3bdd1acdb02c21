//! Paper-scale benchmark of the AdaPipe planner.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! perfbench steady [--runs K] [--trace 0|1] [--out FILE]
//! perfbench compare BASE NEW
//! perfbench manifest
//! ```
//!
//! One run measures one workload in a fresh process and prints, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1`. The line before it is the run's stamp. See
//! `perfbench/README.md` for the workloads and the metric definitions.

mod calibrate;
mod cold;
mod grid;
mod report;
mod serve;
mod stats;
mod steady;

use report::{Checks, Ledger, Stamp, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The seed runs use unless told otherwise.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept out of tuning, for re-checking a claim on inputs its
/// author never measured while writing it.
pub const HELD_OUT_SEED: u64 = 7_340_033;

/// What one run measures.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

/// What a workload hands back.
#[derive(Debug)]
pub struct Measured {
    pub checks: Checks,
    /// Seconds per set-up repetition.
    pub setup: Vec<f64>,
    /// Per set-up repetition: the calibration-kernel time (ms) around it.
    pub setup_kernel_ms: Vec<f64>,
    /// Per completed, verified request, in milliseconds.
    pub latencies: Vec<f64>,
    /// Per completed request: how much slower than the reference the
    /// host ran around it (`calibrate::slowness_near`).
    pub slowness: Vec<f64>,
    /// Per request: its class (grid config, or hit/miss).
    pub classes: Vec<&'static str>,
    pub ok: u64,
    /// Seconds of the timed window, calibration-kernel time left out.
    pub window_s: f64,
    /// VmHWM of the planning process after set-up and a fixed number of
    /// timed requests, so it does not grow with the host's speed.
    pub peak_rss_mb: f64,
    /// Calibration-kernel times (ms) taken through the window, in order,
    /// each while the program under test was idle.
    pub kernel_ms: Vec<f64>,
    pub ledger: Option<Ledger>,
}

/// A workload: its runner, its fixed tail percentile (and the request
/// class most samples beyond the tail must belong to) and its load
/// shape.
pub struct Workload {
    pub name: &'static str,
    pub tail: (&'static str, f64),
    pub tail_class: &'static str,
    pub daemon_workers: bool,
    pub connections: usize,
    run: fn(&RunOpts) -> Result<Measured, String>,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cold-paper",
        tail: ("p80", 0.80),
        tail_class: grid::GRID[grid::LLAMA].name,
        daemon_workers: false,
        connections: 1,
        run: cold::run,
    },
    Workload {
        name: "serve-paper-miss",
        tail: ("p80", 0.80),
        tail_class: grid::GRID[grid::LLAMA].name,
        daemon_workers: true,
        connections: 1,
        run: serve::run_paper_miss,
    },
    Workload {
        name: "serve-mixed",
        tail: ("p99", 0.99),
        tail_class: "miss",
        daemon_workers: true,
        connections: serve::MIXED_CONNECTIONS,
        run: serve::run_mixed,
    },
];

/// The tail rule an untraced run must meet, or it counts as failed: at
/// least this many samples lie beyond the tail, so the tail is no
/// handful of shots, and more than half of them belong to the workload's
/// tail class, so the tail sits inside that class. All of them would be
/// too strict for the cold workloads: the host slows by up to ~20% in
/// spells shorter than the kernel's sampling can follow, which lifts a
/// few GPT-3 plans past the bottom of the Llama band in many runs. The
/// `tail` line prints the exact share.
const MIN_BEYOND_TAIL: usize = 10;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("{name} {v}: not a valid value"))
        })
        .transpose()
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1\n       \
         perfbench steady [--runs K] [--trace 0|1] [--out FILE]\n       \
         perfbench compare BASE NEW\n       perfbench manifest\n\
         default seed {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED} (keep it out of tuning)",
        names.join("|")
    )
}

fn run_workload(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or_else(usage)?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let opts = RunOpts {
        seed: parsed(args, "--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: parsed::<f64>(args, "--seconds")?.unwrap_or(30.0),
        trace: parsed::<u8>(args, "--trace")?.unwrap_or(0) == 1,
        nproc: nproc(),
    };
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    // The program's threads stay within nproc: the exec pool here and in
    // the daemon child (which inherits this) gets one worker per core.
    std::env::set_var(adapipe_exec::pool::THREADS_ENV, opts.nproc.to_string());

    let mut m = (workload.run)(&opts)?;
    let (kernel, setup_kernel) = (
        stats::median(&m.kernel_ms),
        stats::median(&m.setup_kernel_ms),
    );
    if kernel <= 0.0 || setup_kernel <= 0.0 {
        return Err("no calibration-kernel samples".to_string());
    }
    // Above 1 when the host ran slower than the reference.
    let slowness = kernel / calibrate::REFERENCE_MS;
    let setup_slowness = setup_kernel / calibrate::REFERENCE_MS;
    // Each latency is scaled by the host's speed around it, not the
    // run's median speed, so a slow spell of the host is divided out of
    // the requests it slowed.
    let latencies: Vec<f64> = m
        .latencies
        .iter()
        .zip(&m.slowness)
        .map(|(ms, s)| ms / s)
        .collect();
    let (tail_name, q) = workload.tail;
    let tail = stats::quantile(&latencies, q);
    let beyond: Vec<&str> = latencies
        .iter()
        .zip(&m.classes)
        .filter(|(&l, _)| l > tail)
        .map(|(_, &c)| c)
        .collect();
    let in_class = beyond.iter().filter(|&&c| c == workload.tail_class).count();
    // A traced run reports no tail, and its re-drives halve the cold
    // workloads' sample count, so the rule holds for untraced runs.
    m.checks.record(
        if opts.trace || (beyond.len() >= MIN_BEYOND_TAIL && 2 * in_class > beyond.len()) {
            Ok(())
        } else {
            Err(format!(
                "tail {tail_name}: {in_class} of {} samples beyond it in class {}, \
                 want at least {MIN_BEYOND_TAIL}, most of them in that class",
                beyond.len(),
                workload.tail_class
            ))
        },
    );
    let mut by_class: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (&l, &c) in m.latencies.iter().zip(&m.classes) {
        by_class.entry(c).or_default().push(l);
    }
    for (class, values) in &by_class {
        println!(
            "class {class}: {} samples, raw p50 {:.4} ms",
            values.len(),
            stats::median(values)
        );
    }
    let stamp = Stamp {
        workload: workload.name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds as u64,
        trace: opts.trace,
        nproc: opts.nproc,
        adapipe_threads: opts.nproc,
        daemon_workers: if workload.daemon_workers {
            opts.nproc
        } else {
            0
        },
        connections: workload.connections,
        tail: tail_name,
        samples: m.latencies.len(),
        beyond_tail: beyond.len(),
        commit: report::source_digest(),
    };
    println!(
        "tail {tail_name}: {} of {} samples beyond it, {in_class} of them in class {}",
        beyond.len(),
        m.latencies.len(),
        workload.tail_class
    );
    println!("stamp {}", stamp.json());
    println!(
        "host: kernel {kernel:.4} ms (reference {}), slowness {slowness:.4}, \
         set-up slowness {setup_slowness:.4}; \
         raw p50 {:.4} ms, raw tail {:.4} ms, raw setup {:.4} s",
        calibrate::REFERENCE_MS,
        stats::median(&m.latencies),
        stats::quantile(&m.latencies, q),
        stats::median(&m.setup)
    );

    let metrics: Vec<(&str, f64, &str)> = match &m.ledger {
        Some(ledger) => PER_LAYER
            .iter()
            .map(|&(k, unit)| (k, ledger.median(k), unit))
            .collect(),
        None => {
            let values = [
                stats::median(
                    &m.setup
                        .iter()
                        .zip(&m.setup_kernel_ms)
                        .map(|(s, k)| s * calibrate::REFERENCE_MS / k)
                        .collect::<Vec<_>>(),
                ),
                stats::median(&latencies),
                tail,
                m.ok as f64 / m.window_s * slowness,
                m.peak_rss_mb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(k, unit), v)| (k, v, unit))
                .collect()
        }
    };
    println!("{}", report::result_line(&m.checks, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("daemon") => serve::daemon_main(),
        Some("manifest") => cold::print_manifest(),
        Some("steady") => steady::steady(&args),
        Some("compare") => steady::compare(&args),
        Some("--help" | "-h") => {
            println!("{}", usage());
            Ok(())
        }
        _ => run_workload(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
