//! `bench-diff` — machine comparison of two `results/` directories of
//! `BENCH_*.json` artifacts, failing on significant regressions.
//!
//! Both artifact schemas in the workspace are understood:
//!
//! * the Criterion-shim summary (`{"results": [{"id", "mean_ns", ...}]}`),
//!   where every `mean_ns` is lower-is-better;
//! * the `adapipe-obs/v1` metrics report (`{"counters", "gauges", ...}`),
//!   where direction is inferred from the key name — throughput-shaped
//!   keys (`rps`, `throughput`, `hit_rate`, `hits`) are
//!   higher-is-better, everything else (times, cell counts, DP effort)
//!   is lower-is-better.
//!
//! `bench.wall_s` is skipped: end-to-end wall clock of the regenerator
//! binary is machine load in a trench coat, not a tracked metric.
//! `exec.pool.*` gauges are skipped for the same reason — worker count
//! and batch/task/steal totals echo the machine and
//! `ADAPIPE_THREADS`, not plan quality, so a 1-thread baseline would
//! spuriously "regress" against an N-thread run. Metrics with a
//! non-positive baseline are skipped too — a relative change from zero
//! is undefined.

use adapipe_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Relative change above which a metric counts as regressed (20%).
pub const REGRESSION_THRESHOLD: f64 = 0.20;

/// Which way "better" points for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One metric present in both the baseline and the new run.
#[derive(Debug)]
pub struct MetricDiff {
    /// Artifact file name (`BENCH_x.json`).
    pub file: String,
    /// Metric id within the artifact.
    pub id: String,
    pub baseline: f64,
    pub new: f64,
    pub direction: Direction,
    /// Relative change in the *worse* direction: positive values mean
    /// the new run is worse, so `0.25` is a 25% regression.
    pub regression: f64,
}

impl MetricDiff {
    #[must_use]
    pub fn is_regression(&self, threshold: f64) -> bool {
        self.regression > threshold
    }
}

impl fmt::Display for MetricDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} {:.6} -> {:.6} ({}{:.1}%)",
            self.file,
            self.id,
            self.baseline,
            self.new,
            if self.regression > 0.0 {
                "worse "
            } else {
                "better "
            },
            self.regression.abs() * 100.0
        )
    }
}

/// The full comparison of two artifact directories.
#[derive(Debug, Default)]
pub struct DiffReport {
    pub diffs: Vec<MetricDiff>,
    /// Baseline artifacts with no counterpart in the new directory.
    pub missing_in_new: Vec<String>,
    /// New artifacts with no baseline (informational).
    pub only_in_new: Vec<String>,
}

impl DiffReport {
    /// The diffs regressed beyond `threshold`, worst first.
    #[must_use]
    pub fn regressions(&self, threshold: f64) -> Vec<&MetricDiff> {
        let mut out: Vec<&MetricDiff> = self
            .diffs
            .iter()
            .filter(|d| d.is_regression(threshold))
            .collect();
        out.sort_by(|a, b| b.regression.total_cmp(&a.regression));
        out
    }
}

/// Compares every `BENCH_*.json` common to both directories.
///
/// # Errors
/// Returns a message if a directory is unreadable or an artifact is not
/// valid JSON.
pub fn diff_dirs(baseline: &Path, new: &Path) -> Result<DiffReport, String> {
    let base_files = bench_files(baseline)?;
    let new_files = bench_files(new)?;
    let mut report = DiffReport::default();
    for (name, base_path) in &base_files {
        let Some(new_path) = new_files.get(name) else {
            report.missing_in_new.push(name.clone());
            continue;
        };
        let base_metrics = read_metrics(base_path)?;
        let new_metrics = read_metrics(new_path)?;
        for (id, (base_value, direction)) in &base_metrics {
            let Some((new_value, _)) = new_metrics.get(id) else {
                continue;
            };
            if *base_value <= 0.0 {
                continue;
            }
            let regression = match direction {
                Direction::LowerIsBetter => (new_value - base_value) / base_value,
                Direction::HigherIsBetter => (base_value - new_value) / base_value,
            };
            report.diffs.push(MetricDiff {
                file: name.clone(),
                id: id.clone(),
                baseline: *base_value,
                new: *new_value,
                direction: *direction,
                regression,
            });
        }
    }
    for name in new_files.keys() {
        if !base_files.contains_key(name) {
            report.only_in_new.push(name.clone());
        }
    }
    Ok(report)
}

/// The `BENCH_*.json` files of `dir`, keyed by file name.
fn bench_files(dir: &Path) -> Result<BTreeMap<String, PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            out.insert(name, path);
        }
    }
    Ok(out)
}

fn read_metrics(path: &Path) -> Result<BTreeMap<String, (f64, Direction)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(extract_metrics(&doc))
}

/// Flattens one artifact into `(id, value, direction)` entries.
fn extract_metrics(doc: &Value) -> BTreeMap<String, (f64, Direction)> {
    let mut out = BTreeMap::new();
    // Criterion-shim schema: results[].mean_ns, lower-better.
    if let Some(results) = doc.get("results").and_then(Value::as_array) {
        for r in results {
            let id = r.get("id").and_then(Value::as_str);
            let mean = r.get("mean_ns").and_then(Value::as_f64);
            if let (Some(id), Some(mean)) = (id, mean) {
                out.insert(format!("{id}.mean_ns"), (mean, Direction::LowerIsBetter));
            }
        }
    }
    // adapipe-obs/v1 schema: counters + gauges by key name.
    for family in ["counters", "gauges"] {
        if let Some(Value::Object(map)) = doc.get(family) {
            for (key, value) in map {
                if key == "bench.wall_s" || key.starts_with("exec.pool.") {
                    continue;
                }
                if let Some(n) = value.as_f64() {
                    out.insert(key.clone(), (n, direction_of(key)));
                }
            }
        }
    }
    out
}

/// Direction heuristic: throughput-shaped keys go up, cost-shaped keys
/// go down.
fn direction_of(key: &str) -> Direction {
    const HIGHER_IS_BETTER: &[&str] = &["rps", "throughput", "hit_rate", "hits"];
    if HIGHER_IS_BETTER.iter().any(|h| key.contains(h)) {
        Direction::HigherIsBetter
    } else {
        Direction::LowerIsBetter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        json::parse(text).expect("test JSON parses")
    }

    #[test]
    fn criterion_schema_extracts_mean_ns_lower_better() {
        let m = extract_metrics(&doc(r#"{"bench": "x", "unit": "ns", "results": [
                {"id": "g/a", "samples": 10, "mean_ns": 100, "min_ns": 90, "max_ns": 110}
            ]}"#));
        assert_eq!(
            m.get("g/a.mean_ns"),
            Some(&(100.0, Direction::LowerIsBetter))
        );
    }

    #[test]
    fn obs_schema_extracts_counters_and_gauges_with_direction() {
        let m = extract_metrics(&doc(r#"{"schema": "adapipe-obs/v1", "meta": {},
                "counters": {"recompute.knapsack.cells": 5000},
                "gauges": {"serve.rps": 800.0, "bench.wall_s": 1.5,
                           "exec.pool.workers": 8.0, "exec.pool.steals": 120.0},
                "histograms": {}, "spans": {}}"#));
        assert_eq!(
            m.get("recompute.knapsack.cells"),
            Some(&(5000.0, Direction::LowerIsBetter))
        );
        assert_eq!(
            m.get("serve.rps"),
            Some(&(800.0, Direction::HigherIsBetter))
        );
        assert!(!m.contains_key("bench.wall_s"), "wall clock is not tracked");
        assert!(
            !m.contains_key("exec.pool.workers") && !m.contains_key("exec.pool.steals"),
            "pool-shape gauges echo the machine, not plan quality"
        );
    }

    #[test]
    fn regression_is_signed_toward_worse() {
        let worse_latency = MetricDiff {
            file: "BENCH_a.json".into(),
            id: "x.mean_ns".into(),
            baseline: 100.0,
            new: 130.0,
            direction: Direction::LowerIsBetter,
            regression: 0.30,
        };
        assert!(worse_latency.is_regression(REGRESSION_THRESHOLD));
        let better_latency = MetricDiff {
            regression: -0.30,
            ..worse_latency
        };
        assert!(!better_latency.is_regression(REGRESSION_THRESHOLD));
    }

    #[test]
    fn regressions_sorted_worst_first() {
        let mk = |id: &str, reg: f64| MetricDiff {
            file: "BENCH_a.json".into(),
            id: id.into(),
            baseline: 1.0,
            new: 1.0 + reg,
            direction: Direction::LowerIsBetter,
            regression: reg,
        };
        let report = DiffReport {
            diffs: vec![mk("small", 0.25), mk("big", 0.9), mk("fine", 0.05)],
            ..DiffReport::default()
        };
        let regs = report.regressions(REGRESSION_THRESHOLD);
        let ids: Vec<&str> = regs.iter().map(|d| d.id.as_str()).collect();
        assert_eq!(ids, ["big", "small"]);
    }
}
