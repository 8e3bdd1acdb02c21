//! Plan persistence: a line-oriented text format (one `key = value` per
//! line, one `stage` block per pipeline stage) that round-trips plans
//! exactly — including f64 times, via shortest-round-trip formatting.
//!
//! The search engine and the execution engine of §6 are separate
//! programs in practice; this format is the contract between them:
//! search once, save the plan, execute it many times.
//!
//! # Versions and units
//!
//! * **v2** (current) — the header is followed by a `units` metadata
//!   block declaring the dimensions of every quantity in the file
//!   (`units.time = us`, `units.bytes = B`). Times are microseconds,
//!   matching [`MicroSecs`]. A v2 file declaring any *other* unit is
//!   rejected with [`PlanParseError::UnitMismatch`] (surfaced by
//!   `adapipe verify` as the `unit-mismatch` diagnostic) rather than
//!   silently reinterpreted — the whole point of carrying units in the
//!   artifact.
//! * **v1** (legacy) — no units block; times were plain seconds. Still
//!   readable: [`from_text`] converts on load and
//!   [`from_text_with_warnings`] reports the conversion so callers can
//!   nudge users to re-save.

#![expect(
    clippy::let_underscore_must_use,
    reason = "fmt::Write into a String cannot fail"
)]

use crate::method::Method;
use crate::plan::{Plan, StagePlan};
use adapipe_memory::StageMemory;
use adapipe_model::{LayerRange, ParallelConfig, TrainConfig};
use adapipe_partition::F1bBreakdown;
use adapipe_recompute::{RecomputeStrategy, StageCost};
use adapipe_units::{Bytes, MicroSecs};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

/// Error from [`from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanParseError {
    /// The header line is missing or names an unknown version.
    BadHeader,
    /// A required key is absent.
    Missing(&'static str),
    /// A line is not `key = value`.
    BadLine(String),
    /// A value failed to parse.
    BadValue {
        /// The key in question.
        key: String,
        /// The raw value.
        value: String,
    },
    /// The reconstructed plan is internally inconsistent.
    Inconsistent(String),
    /// The file's `units` block contradicts the units this build stores
    /// (`unit-mismatch` in the diagnostic catalog).
    UnitMismatch {
        /// The `units.*` key in question.
        key: String,
        /// The unit the file declares.
        declared: String,
        /// The unit this build expects.
        expected: &'static str,
    },
}

impl fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanParseError::BadHeader => write!(f, "missing or unsupported plan header"),
            PlanParseError::Missing(key) => write!(f, "missing key `{key}`"),
            PlanParseError::BadLine(line) => write!(f, "malformed line `{line}`"),
            PlanParseError::BadValue { key, value } => {
                write!(f, "bad value for `{key}`: `{value}`")
            }
            PlanParseError::Inconsistent(msg) => write!(f, "inconsistent plan: {msg}"),
            PlanParseError::UnitMismatch {
                key,
                declared,
                expected,
            } => write!(
                f,
                "unit-mismatch: `{key} = {declared}` contradicts this build's `{expected}` \
                 (refusing to reinterpret quantities)"
            ),
        }
    }
}

impl Error for PlanParseError {}

impl FromStr for Method {
    type Err = PlanParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Method::all()
            .into_iter()
            .find(|m| m.to_string() == s)
            .ok_or_else(|| PlanParseError::BadValue {
                key: "method".into(),
                value: s.into(),
            })
    }
}

/// Serializes `plan` to the current (v2) text format: all times in
/// microseconds, all sizes in bytes, declared up front in the `units`
/// block.
#[must_use]
pub fn to_text(plan: &Plan) -> String {
    let mut out = String::from("adapipe-plan v2\n");
    let _ = writeln!(out, "units.time = {TIME_UNIT}");
    let _ = writeln!(out, "units.bytes = {BYTES_UNIT}");
    let _ = writeln!(out, "method = {}", plan.method);
    let _ = writeln!(out, "tensor = {}", plan.parallel.tensor());
    let _ = writeln!(out, "pipeline = {}", plan.parallel.pipeline());
    let _ = writeln!(out, "data = {}", plan.parallel.data());
    let _ = writeln!(out, "micro_batch = {}", plan.train.micro_batch());
    let _ = writeln!(out, "seq_len = {}", plan.train.seq_len());
    let _ = writeln!(out, "global_batch = {}", plan.train.global_batch());
    let _ = writeln!(out, "n_microbatches = {}", plan.n_microbatches);
    if let Some(bd) = plan.predicted {
        // `{:?}` prints the shortest representation that parses back to
        // the identical f64.
        let _ = writeln!(
            out,
            "predicted = {:?} {:?} {:?} {:?}",
            bd.warmup.as_micros(),
            bd.steady.as_micros(),
            bd.ending.as_micros(),
            bd.bottleneck.as_micros()
        );
    }
    for (s, stage) in plan.stages.iter().enumerate() {
        let _ = writeln!(out, "stage = {s}");
        let _ = writeln!(out, "  layers = {} {}", stage.range.first, stage.range.last);
        let _ = writeln!(out, "  time_f = {:?}", stage.cost.time_f.as_micros());
        let _ = writeln!(out, "  time_b = {:?}", stage.cost.time_b.as_micros());
        let _ = writeln!(
            out,
            "  saved_bytes = {}",
            stage.cost.saved_bytes_per_mb.get()
        );
        let _ = writeln!(out, "  static_bytes = {}", stage.memory.static_bytes.get());
        let _ = writeln!(out, "  buffer_bytes = {}", stage.memory.buffer_bytes.get());
        let _ = writeln!(
            out,
            "  intermediate_bytes = {}",
            stage.memory.intermediate_bytes.get()
        );
        let flags: String = stage
            .strategy
            .iter()
            .map(|s| if s { '1' } else { '0' })
            .collect();
        let _ = writeln!(out, "  saved = {flags}");
    }
    out
}

/// The time unit the current format stores: microseconds.
pub const TIME_UNIT: &str = "us";
/// The byte unit the current format stores: plain bytes.
pub const BYTES_UNIT: &str = "B";

/// File format versions [`from_text`] understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    /// Legacy: times in seconds, no units block.
    V1,
    /// Current: explicit units block, times in microseconds.
    V2,
}

impl Version {
    /// Converts a raw time value from the file into the in-memory unit.
    fn time(self, raw: f64) -> MicroSecs {
        match self {
            Version::V1 => MicroSecs::from_secs(raw),
            Version::V2 => MicroSecs::new(raw),
        }
    }
}

/// Key/value accumulator for one stage block.
#[derive(Default)]
struct StageFields {
    layers: Option<(usize, usize)>,
    time_f: Option<f64>,
    time_b: Option<f64>,
    saved_bytes: Option<u64>,
    static_bytes: Option<u64>,
    buffer_bytes: Option<u64>,
    intermediate_bytes: Option<u64>,
    saved: Option<Vec<bool>>,
}

impl StageFields {
    fn build(self, version: Version) -> Result<StagePlan, PlanParseError> {
        let (first, last) = self.layers.ok_or(PlanParseError::Missing("layers"))?;
        if first > last {
            return Err(PlanParseError::Inconsistent(format!(
                "layer range {first}..{last}"
            )));
        }
        let flags = self.saved.ok_or(PlanParseError::Missing("saved"))?;
        Ok(StagePlan {
            range: LayerRange::new(first, last),
            strategy: RecomputeStrategy::from_raw_flags(flags),
            cost: StageCost {
                time_f: version.time(self.time_f.ok_or(PlanParseError::Missing("time_f"))?),
                time_b: version.time(self.time_b.ok_or(PlanParseError::Missing("time_b"))?),
                saved_bytes_per_mb: Bytes::new(
                    self.saved_bytes
                        .ok_or(PlanParseError::Missing("saved_bytes"))?,
                ),
            },
            memory: StageMemory {
                static_bytes: Bytes::new(
                    self.static_bytes
                        .ok_or(PlanParseError::Missing("static_bytes"))?,
                ),
                buffer_bytes: Bytes::new(
                    self.buffer_bytes
                        .ok_or(PlanParseError::Missing("buffer_bytes"))?,
                ),
                intermediate_bytes: Bytes::new(
                    self.intermediate_bytes
                        .ok_or(PlanParseError::Missing("intermediate_bytes"))?,
                ),
            },
        })
    }
}

fn parse<T: FromStr>(key: &str, value: &str) -> Result<T, PlanParseError> {
    value.parse().map_err(|_| PlanParseError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
    })
}

/// Parses a plan from the text format (v2, or legacy v1 with silent
/// second-to-microsecond conversion).
///
/// # Errors
///
/// Returns [`PlanParseError`] on malformed input.
pub fn from_text(text: &str) -> Result<Plan, PlanParseError> {
    from_text_with_warnings(text).map(|(plan, _)| plan)
}

/// [`from_text`], also reporting non-fatal findings: loading a legacy v1
/// file yields a warning naming the unit conversion that was applied.
///
/// # Errors
///
/// Returns [`PlanParseError`] on malformed input.
pub fn from_text_with_warnings(text: &str) -> Result<(Plan, Vec<String>), PlanParseError> {
    let mut lines = text.lines();
    let version = match lines.next().map(str::trim) {
        Some("adapipe-plan v2") => Version::V2,
        Some("adapipe-plan v1") => Version::V1,
        _ => return Err(PlanParseError::BadHeader),
    };
    let mut warnings = Vec::new();
    if version == Version::V1 {
        warnings.push(
            "legacy v1 plan: times were stored in seconds and have been converted to \
             microseconds; re-save the plan to upgrade it to v2"
                .to_string(),
        );
    }

    let mut method = None;
    let mut tensor = None;
    let mut pipeline = None;
    let mut data = None;
    let mut micro_batch = None;
    let mut seq_len = None;
    let mut global_batch = None;
    let mut n_microbatches = None;
    let mut predicted = None;
    let mut stages: Vec<StageFields> = Vec::new();

    for raw in lines {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(PlanParseError::BadLine(line.to_string()));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "units.time" | "units.bytes" => {
                if version == Version::V1 {
                    return Err(PlanParseError::BadLine(line.to_string()));
                }
                let expected = if key == "units.time" {
                    TIME_UNIT
                } else {
                    BYTES_UNIT
                };
                if value != expected {
                    return Err(PlanParseError::UnitMismatch {
                        key: key.to_string(),
                        declared: value.to_string(),
                        expected,
                    });
                }
            }
            "method" => method = Some(value.parse::<Method>()?),
            "tensor" => tensor = Some(parse::<usize>(key, value)?),
            "pipeline" => pipeline = Some(parse::<usize>(key, value)?),
            "data" => data = Some(parse::<usize>(key, value)?),
            "micro_batch" => micro_batch = Some(parse::<usize>(key, value)?),
            "seq_len" => seq_len = Some(parse::<usize>(key, value)?),
            "global_batch" => global_batch = Some(parse::<usize>(key, value)?),
            "n_microbatches" => n_microbatches = Some(parse::<usize>(key, value)?),
            "predicted" => {
                let parts: Vec<&str> = value.split_whitespace().collect();
                let [warmup, steady, ending, bottleneck] = parts[..] else {
                    return Err(PlanParseError::BadValue {
                        key: key.to_string(),
                        value: value.to_string(),
                    });
                };
                predicted = Some(F1bBreakdown {
                    warmup: version.time(parse(key, warmup)?),
                    steady: version.time(parse(key, steady)?),
                    ending: version.time(parse(key, ending)?),
                    bottleneck: version.time(parse(key, bottleneck)?),
                });
            }
            "stage" => {
                let idx: usize = parse(key, value)?;
                if idx != stages.len() {
                    return Err(PlanParseError::Inconsistent(format!(
                        "stage {idx} out of order (expected {})",
                        stages.len()
                    )));
                }
                stages.push(StageFields::default());
            }
            _ => {
                let stage = stages
                    .last_mut()
                    .ok_or_else(|| PlanParseError::BadLine(line.to_string()))?;
                match key {
                    "layers" => {
                        let parts: Vec<&str> = value.split_whitespace().collect();
                        let [first, last] = parts[..] else {
                            return Err(PlanParseError::BadValue {
                                key: key.to_string(),
                                value: value.to_string(),
                            });
                        };
                        stage.layers = Some((parse(key, first)?, parse(key, last)?));
                    }
                    "time_f" => stage.time_f = Some(parse(key, value)?),
                    "time_b" => stage.time_b = Some(parse(key, value)?),
                    "saved_bytes" => stage.saved_bytes = Some(parse(key, value)?),
                    "static_bytes" => stage.static_bytes = Some(parse(key, value)?),
                    "buffer_bytes" => stage.buffer_bytes = Some(parse(key, value)?),
                    "intermediate_bytes" => stage.intermediate_bytes = Some(parse(key, value)?),
                    "saved" => {
                        let mut flags = Vec::with_capacity(value.len());
                        for c in value.chars() {
                            match c {
                                '0' => flags.push(false),
                                '1' => flags.push(true),
                                _ => {
                                    return Err(PlanParseError::BadValue {
                                        key: key.to_string(),
                                        value: value.to_string(),
                                    })
                                }
                            }
                        }
                        stage.saved = Some(flags);
                    }
                    _ => return Err(PlanParseError::BadLine(line.to_string())),
                }
            }
        }
    }

    let method = method.ok_or(PlanParseError::Missing("method"))?;
    let parallel = ParallelConfig::new(
        tensor.ok_or(PlanParseError::Missing("tensor"))?,
        pipeline.ok_or(PlanParseError::Missing("pipeline"))?,
        data.ok_or(PlanParseError::Missing("data"))?,
    )
    .map_err(|e| PlanParseError::Inconsistent(e.to_string()))?;
    let train = TrainConfig::new(
        micro_batch.ok_or(PlanParseError::Missing("micro_batch"))?,
        seq_len.ok_or(PlanParseError::Missing("seq_len"))?,
        global_batch.ok_or(PlanParseError::Missing("global_batch"))?,
    )
    .map_err(|e| PlanParseError::Inconsistent(e.to_string()))?;

    let expected = parallel.pipeline() * method.virtual_chunks();
    if stages.len() != expected {
        return Err(PlanParseError::Inconsistent(format!(
            "{} stage blocks for pipeline {expected}",
            stages.len()
        )));
    }
    let plan = Plan {
        method,
        parallel,
        train,
        n_microbatches: n_microbatches.ok_or(PlanParseError::Missing("n_microbatches"))?,
        stages: stages
            .into_iter()
            .map(|f| f.build(version))
            .collect::<Result<_, _>>()?,
        predicted,
    };
    Ok((plan, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use adapipe_hw::presets as hw;
    use adapipe_model::presets;

    fn sample(method: Method) -> Plan {
        let planner = Planner::new(presets::gpt2_small(), hw::cluster_a_with_nodes(1));
        let parallel = ParallelConfig::new(2, 4, 1).unwrap();
        let train = TrainConfig::new(1, 1024, 32).unwrap();
        planner.plan(method, parallel, train).unwrap()
    }

    #[test]
    fn round_trip_is_exact_for_every_method() {
        for method in [
            Method::AdaPipe,
            Method::EvenPartitioning,
            Method::DappleFull,
            Method::GpipeNone,
            Method::InterleavedFull,
        ] {
            let plan = sample(method);
            let text = to_text(&plan);
            let back = from_text(&text).unwrap_or_else(|e| panic!("{method}: {e}\n{text}"));
            assert_eq!(plan, back, "{method}");
        }
    }

    #[test]
    fn method_names_round_trip() {
        for m in Method::all() {
            assert_eq!(m.to_string().parse::<Method>().unwrap(), m);
        }
        assert!("NotAMethod".parse::<Method>().is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(from_text("hello"), Err(PlanParseError::BadHeader));
        assert!(matches!(
            from_text("adapipe-plan v2\nmethod = AdaPipe\n"),
            Err(PlanParseError::Missing(_))
        ));
        assert!(matches!(
            from_text("adapipe-plan v2\nwat\n"),
            Err(PlanParseError::BadLine(_))
        ));
    }

    #[test]
    fn emits_v2_header_with_units_block() {
        let text = to_text(&sample(Method::DappleFull));
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("adapipe-plan v2"));
        assert_eq!(lines.next(), Some("units.time = us"));
        assert_eq!(lines.next(), Some("units.bytes = B"));
    }

    #[test]
    fn rejects_contradictory_units() {
        let text =
            to_text(&sample(Method::DappleFull)).replace("units.time = us", "units.time = ms");
        let err = from_text(&text).unwrap_err();
        assert!(matches!(err, PlanParseError::UnitMismatch { .. }), "{err}");
        assert!(err.to_string().contains("unit-mismatch"), "{err}");

        let text =
            to_text(&sample(Method::DappleFull)).replace("units.bytes = B", "units.bytes = KiB");
        assert!(matches!(
            from_text(&text),
            Err(PlanParseError::UnitMismatch { .. })
        ));
    }

    #[test]
    fn loads_legacy_v1_seconds_with_a_warning() {
        let plan = sample(Method::DappleFull);
        // Re-encode the plan as a v1 artifact: seconds, no units block.
        let mut v1 = String::from("adapipe-plan v1\n");
        for line in to_text(&plan).lines().skip(3) {
            if let Some(rest) = line.strip_prefix("  time_f = ") {
                let us: f64 = rest.parse().unwrap();
                v1.push_str(&format!("  time_f = {:?}\n", us * 1e-6));
            } else if let Some(rest) = line.strip_prefix("  time_b = ") {
                let us: f64 = rest.parse().unwrap();
                v1.push_str(&format!("  time_b = {:?}\n", us * 1e-6));
            } else if let Some(rest) = line.strip_prefix("predicted = ") {
                let secs: Vec<String> = rest
                    .split_whitespace()
                    .map(|v| format!("{:?}", v.parse::<f64>().unwrap() * 1e-6))
                    .collect();
                v1.push_str(&format!("predicted = {}\n", secs.join(" ")));
            } else {
                v1.push_str(line);
                v1.push('\n');
            }
        }
        let (back, warnings) = from_text_with_warnings(&v1).unwrap();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("v1"), "{warnings:?}");
        // Times survive the seconds round-trip to float precision.
        for (a, b) in plan.stages.iter().zip(back.stages.iter()) {
            let drift = (a.cost.time_f - b.cost.time_f).abs();
            assert!(drift < MicroSecs::new(1e-9), "{a:?} vs {b:?}");
        }
        // And a v1 file must not carry a units block.
        let bad = v1.replacen("adapipe-plan v1\n", "adapipe-plan v1\nunits.time = us\n", 1);
        assert!(matches!(from_text(&bad), Err(PlanParseError::BadLine(_))));
    }

    #[test]
    fn v2_parses_cleanly_without_warnings() {
        let plan = sample(Method::DappleFull);
        let (_, warnings) = from_text_with_warnings(&to_text(&plan)).unwrap();
        assert!(warnings.is_empty(), "{warnings:?}");
    }

    #[test]
    fn rejects_inconsistent_stage_counts() {
        let plan = sample(Method::DappleFull);
        let text = to_text(&plan);
        // Drop the last stage block.
        let cut = text.find("stage = 3").unwrap();
        let err = from_text(&text[..cut]).unwrap_err();
        assert!(matches!(err, PlanParseError::Inconsistent(_)), "{err}");
    }

    #[test]
    fn rejects_bad_saved_flags() {
        let plan = sample(Method::DappleFull);
        let text = to_text(&plan).replace("saved = 1", "saved = 1x");
        assert!(matches!(
            from_text(&text),
            Err(PlanParseError::BadValue { .. })
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Randomly corrupting a valid plan file must never panic the
        /// parser — it either still parses or returns a structured error.
        #[test]
        fn parser_never_panics_on_corrupted_input(
            pos in 0usize..4096,
            byte in 0u8..=255,
            truncate in proptest::bool::ANY,
        ) {
            let plan = sample(Method::DappleFull);
            let mut text = to_text(&plan).into_bytes();
            let idx = pos % text.len();
            if truncate {
                text.truncate(idx);
            } else {
                text[idx] = byte;
            }
            // Lossy round-trip keeps it a &str parse like real file reads.
            let corrupted = String::from_utf8_lossy(&text);
            let _ = from_text(&corrupted); // must not panic
        }
    }

    #[test]
    fn evaluation_of_reloaded_plan_matches() {
        let planner = Planner::new(presets::gpt2_small(), hw::cluster_a_with_nodes(1));
        let plan = sample(Method::AdaPipe);
        let reloaded = from_text(&to_text(&plan)).unwrap();
        let a = planner.evaluate(&plan);
        let b = planner.evaluate(&reloaded);
        assert_eq!(a.iteration_time, b.iteration_time);
        assert_eq!(a.peak_bytes_per_device, b.peak_bytes_per_device);
    }
}
