//! The steadiness report and the run comparison.
//!
//! `steady` runs each workload K times, alternating the workload order
//! between rounds, each run in a fresh process with its own seed, and
//! prints every metric's median, quartiles, spread and largest deviation
//! against the bound `BENCHMARK.json` fixes. With `--trace 1` every run
//! uses the default seed and the printed work counters must repeat
//! exactly. `compare` reads two `--out` files (e.g. parent and change)
//! and refuses to compare results whose stamps differ.

use crate::report::STAMP_KEYS;
use crate::stats::{median, quartiles};
use crate::{flag, parsed, DEFAULT_SEED};
use adapipe_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

const RUNS_HEADER: &str = "perfbench-runs v1";

/// One run as printed by the benchmark.
struct Run {
    stamp: Value,
    result: Value,
    counters: Vec<String>,
    raw: String,
}

impl Run {
    fn parse(stdout: &str) -> Result<Run, String> {
        let stamp = stdout
            .lines()
            .find_map(|l| l.strip_prefix("stamp "))
            .ok_or("run printed no stamp")?;
        let result = stdout.lines().last().ok_or("run printed nothing")?;
        let counters: Vec<String> = stdout
            .lines()
            .filter(|l| l.starts_with("counters "))
            .map(str::to_string)
            .collect();
        let mut raw = format!("stamp {stamp}\n");
        for line in stdout
            .lines()
            .filter(|l| l.starts_with("host: ") || l.starts_with("tail "))
        {
            let _ = writeln!(raw, "{line}");
        }
        for c in &counters {
            let _ = writeln!(raw, "{c}");
        }
        let _ = writeln!(raw, "result {result}");
        Ok(Run {
            stamp: json::parse(stamp).map_err(|e| format!("stamp: {e}"))?,
            result: json::parse(result).map_err(|e| format!("result: {e}"))?,
            counters,
            raw,
        })
    }

    fn stamp_str(&self, key: &str) -> String {
        match self.stamp.get(key) {
            Some(Value::String(s)) => s.clone(),
            Some(Value::Number(n)) => format!("{n}"),
            _ => String::new(),
        }
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// A metric as `BENCHMARK.json` declares it.
struct MetricSpec {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

struct Spec {
    run_seconds: u64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn load_spec() -> Result<Spec, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = |key: &str| -> Vec<MetricSpec> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| MetricSpec {
                name: m
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                unit: m
                    .get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Value::as_f64),
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")? as u64,
        workloads: doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.get("name")?.as_str().map(str::to_string))
            .collect(),
        end_to_end: metrics("end_to_end"),
        per_layer: metrics("per_layer"),
    })
}

/// Refuses runs whose stamps disagree on anything but seed and sample
/// counts; `commit` too unless `across_commits`.
fn check_stamps(runs: &[&Run], across_commits: bool) -> Result<(), String> {
    let Some(first) = runs.first() else {
        return Ok(());
    };
    let keys = STAMP_KEYS
        .iter()
        .copied()
        .chain((!across_commits).then_some("commit"));
    for key in keys {
        for run in runs {
            if run.stamp_str(key) != first.stamp_str(key) {
                return Err(format!(
                    "refusing to compare: stamps differ on {key} ({} vs {})",
                    first.stamp_str(key),
                    run.stamp_str(key)
                ));
            }
        }
    }
    Ok(())
}

/// Per-metric median, quartiles, IQR/median and largest |v − median|/median.
fn summary(values: &[f64]) -> Option<(f64, [f64; 3], f64, f64)> {
    let q = quartiles(values)?;
    let m = median(values);
    let spread = (q[2] - q[0]) / m.abs().max(f64::MIN_POSITIVE);
    let dev = values
        .iter()
        .map(|v| (v - m).abs() / m.abs().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max);
    Some((m, q, spread, dev))
}

pub fn steady(args: &[String]) -> Result<(), String> {
    let spec = load_spec()?;
    let runs: usize = parsed(args, "--runs")?.unwrap_or(5);
    let trace = parsed::<u8>(args, "--trace")?.unwrap_or(0) == 1;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut by_workload: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for round in 0..runs {
        let mut order = spec.workloads.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        let seed = if trace {
            DEFAULT_SEED
        } else {
            DEFAULT_SEED + round as u64
        };
        for w in &order {
            eprintln!("steady: round {} of {runs}: {w} seed {seed}", round + 1);
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &spec.run_seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .map_err(|e| format!("run {w}: {e}"))?;
            if !out.status.success() {
                return Err(format!("run {w} seed {seed} failed ({})", out.status));
            }
            let run = Run::parse(&String::from_utf8_lossy(&out.stdout))?;
            by_workload.entry(w.clone()).or_default().push(run);
        }
    }
    if let Some(path) = flag(args, "--out") {
        let mut text = format!("{RUNS_HEADER}\n");
        for run in by_workload.values().flatten() {
            text.push_str(&run.raw);
        }
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }

    let metrics = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!(
        "{:<17} {:<31} {:>13} {:>13} {:>13} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "maxdev", "bound"
    );
    let mut failures = Vec::new();
    for (w, runs) in &by_workload {
        let refs: Vec<&Run> = runs.iter().collect();
        check_stamps(&refs, false)?;
        let incorrect = runs
            .iter()
            .filter(|r| r.result.get("correct") != Some(&Value::Bool(true)))
            .count();
        if incorrect > 0 {
            failures.push(format!("{w}: {incorrect} runs not correct"));
        }
        for m in metrics {
            let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(&m.name)).collect();
            let Some((med, q, spread, dev)) = summary(&values) else {
                continue;
            };
            let verdict = match m.bound {
                None => "",
                Some(b) if spread <= b / 3.0 => "steady",
                Some(b) if spread <= b => "within bound",
                Some(_) => {
                    failures.push(format!("{w}/{}: spread {spread:.3}", m.name));
                    "TOO NOISY"
                }
            };
            let bound = m.bound.map_or("-".to_string(), |b| format!("{b}"));
            println!(
                "{w:<17} {:<31} {med:>13.4} {:>13.4} {:>13.4} {spread:>8.4} {dev:>8.4} {bound:>6}  {verdict}",
                format!("{} [{}]", m.name, m.unit),
                q[0],
                q[2]
            );
        }
        if trace {
            let mut seen: BTreeMap<String, &str> = BTreeMap::new();
            for line in runs.iter().flat_map(|r| &r.counters) {
                let key = line
                    .split_whitespace()
                    .take(3)
                    .collect::<Vec<_>>()
                    .join(" ");
                match seen.get(&key) {
                    Some(prev) if *prev != line.as_str() => {
                        failures.push(format!("work counters differ: {prev} vs {line}"))
                    }
                    _ => {
                        seen.insert(key, line);
                    }
                }
            }
            println!(
                "{w}: {} counter lines repeat exactly across runs",
                seen.len()
            );
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn load_runs(path: &str) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if text.lines().next() != Some(RUNS_HEADER) {
        return Err(format!("{path}: not a `steady --out` file"));
    }
    let mut out: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    let mut chunk = String::new();
    for line in text.lines().skip(1) {
        if let Some(result) = line.strip_prefix("result ") {
            chunk.push_str(result);
            let run = Run::parse(&chunk)?;
            out.entry(run.stamp_str("workload")).or_default().push(run);
            chunk.clear();
        } else {
            chunk.push_str(line);
            chunk.push('\n');
        }
    }
    Ok(out)
}

/// Compares two `steady --out` files metric by metric under the bounds
/// of `BENCHMARK.json`.
pub fn compare(args: &[String]) -> Result<(), String> {
    let (Some(base), Some(new)) = (args.get(1), args.get(2)) else {
        return Err("usage: perfbench compare BASE NEW".to_string());
    };
    let spec = load_spec()?;
    let (base, new) = (load_runs(base)?, load_runs(new)?);
    println!(
        "{:<17} {:<31} {:>13} {:>13} {:>8} {:>8}  verdict",
        "workload", "metric", "base median", "new median", "change", "spread"
    );
    let mut regressions = Vec::new();
    for (w, base_runs) in &base {
        let Some(new_runs) = new.get(w) else { continue };
        let (b, n): (Vec<&Run>, Vec<&Run>) =
            (base_runs.iter().collect(), new_runs.iter().collect());
        check_stamps(&b, false)?;
        check_stamps(&n, false)?;
        check_stamps(&[b[0], n[0]], true)?;
        let seeds = |runs: &[&Run]| {
            let mut s: Vec<String> = runs.iter().map(|r| r.stamp_str("seed")).collect();
            s.sort();
            s
        };
        if seeds(&b) != seeds(&n) {
            return Err(format!(
                "refusing to compare {w}: the two sides ran different seeds"
            ));
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            let bv: Vec<f64> = b.iter().filter_map(|r| r.metric(&m.name)).collect();
            let nv: Vec<f64> = n.iter().filter_map(|r| r.metric(&m.name)).collect();
            let (Some((bm, _, spread, _)), Some((nm, _, _, _))) = (summary(&bv), summary(&nv))
            else {
                continue;
            };
            let worse =
                if m.lower_is_better { nm - bm } else { bm - nm } / bm.abs().max(f64::MIN_POSITIVE);
            let all_better = nv.iter().all(|&x| {
                bv.iter()
                    .all(|&y| if m.lower_is_better { x < y } else { x > y })
            });
            let verdict = match m.bound {
                None => "",
                Some(bound) if worse > bound => {
                    regressions.push(format!("{w}/{}", m.name));
                    "REGRESSION"
                }
                Some(bound) if spread > bound && !all_better => "unresolved",
                Some(_) => "no regression",
            };
            println!(
                "{w:<17} {:<31} {bm:>13.4} {nm:>13.4} {:>+8.4} {spread:>8.4}  {verdict}",
                format!("{} [{}]", m.name, m.unit),
                -worse
            );
        }
    }
    if regressions.is_empty() {
        Ok(())
    } else {
        Err(format!("regressions: {}", regressions.join(", ")))
    }
}
