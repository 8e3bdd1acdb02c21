//! Result bookkeeping: output checks, the per-layer ledger, the run
//! stamp and the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A
/// layer a workload never runs reads 0 there (e.g. the serving layer on
/// the in-process `cold-paper` workload).
pub const PER_LAYER: [(&str, &str); 25] = [
    ("serve.parse_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.hit_self_us", "us"),
    ("serve.cache_insert_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("profiler.profile_us", "us"),
    ("exec.prefill_ms", "ms"),
    ("exec.pool.tasks", "count"),
    ("exec.pool.steals", "count"),
    ("partition.leaf_ms", "ms"),
    ("partition.leaf_evals", "count"),
    ("partition.leaf_oom", "count"),
    ("partition.iso_cache.hit_ratio", "ratio"),
    ("partition.alg1_self_ms", "ms"),
    ("partition.alg1.candidates", "count"),
    ("partition.subcache.hit_ratio", "ratio"),
    ("recompute.knapsack.cells", "count"),
    ("recompute.knapsack.calls", "count"),
    ("recompute.knapsack.timed_calls", "count"),
    ("planner.materialize_ms", "ms"),
    ("check.verify_ms", "ms"),
    ("planner.serialize_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("ledger.unaccounted_share", "ratio"),
];

/// Operations attempted and failed, with the first few failure reasons
/// echoed to stderr.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {why}");
            }
        }
    }
}

/// Per-request samples of each per-layer metric; a run reports medians.
#[derive(Debug, Default)]
pub struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Ledger {
    pub fn push(&mut self, key: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(k, _)| *k == key), "{key}");
        self.samples.entry(key).or_default().push(value);
    }

    pub fn merge(&mut self, other: Ledger) {
        for (key, values) in other.samples {
            self.samples.entry(key).or_default().extend(values);
        }
    }

    pub fn median(&self, key: &str) -> f64 {
        self.samples
            .get(key)
            .map_or(0.0, |v| crate::stats::median(v))
    }
}

/// Deterministic work counters of one input, printed as a
/// `counters <workload> <key> k=v ...` line so runs of the same seed
/// and source can be diffed exactly.
pub type Counters = BTreeMap<&'static str, u64>;

pub fn counters_line(workload: &str, key: &str, counters: &Counters) -> String {
    let mut line = format!("counters {workload} {key}");
    for (k, v) in counters {
        let _ = write!(line, " {k}={v}");
    }
    line
}

/// What a run was measured under. Two results are comparable only when
/// every field but `seed` and the measured sample counts agree.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
    pub adapipe_threads: usize,
    pub daemon_workers: usize,
    pub connections: usize,
    pub tail: &'static str,
    pub samples: usize,
    pub beyond_tail: usize,
    pub commit: String,
}

impl Stamp {
    pub fn json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
             \"adapipe_threads\": {}, \"daemon_workers\": {}, \"connections\": {}, \
             \"tail\": \"{}\", \"samples\": {}, \"beyond_tail\": {}, \"commit\": \"{}\"}}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.nproc,
            self.adapipe_threads,
            self.daemon_workers,
            self.connections,
            self.tail,
            self.samples,
            self.beyond_tail,
            self.commit
        )
    }
}

/// Fields that must agree for two stamps to be compared.
pub const STAMP_KEYS: [&str; 8] = [
    "workload",
    "seconds",
    "trace",
    "nproc",
    "adapipe_threads",
    "daemon_workers",
    "connections",
    "tail",
];

/// The run's result, printed as the last stdout line.
pub fn result_line(checks: &Checks, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        checks.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set (VmHWM) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// A digest of the sources the benchmark builds, standing in for the
/// commit id: the checkout the benchmark runs in need not be a git
/// repository.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "shims",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
        "perfbench/src",
        "perfbench/manifest",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.push(0);
        if let Ok(content) = std::fs::read(f) {
            bytes.extend_from_slice(&content);
        }
    }
    let hex = adapipe_exec::sha256_hex(&bytes);
    format!("src-{}", hex.get(..16).unwrap_or(&hex))
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
        return;
    }
    let Ok(entries) = std::fs::read_dir(path) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.file_name().is_some_and(|n| n == "target") {
            continue;
        }
        collect_files(&p, out);
    }
}
