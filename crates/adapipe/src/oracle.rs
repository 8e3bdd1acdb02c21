//! Brute-force planner verification: oracle agreement sweeps and
//! counterexample search.
//!
//! Algorithm 1 + the recomputation knapsack promise *near-optimal* plans
//! (the DP's per-stage objective weighs the bottleneck heuristically, so
//! it is not exact — see `adapipe_partition::exhaustive`). This module
//! turns that promise into a checked property three ways:
//!
//! 1. [`check_grid_agreement`] — a pinned grid of deterministic synthetic
//!    instances on which the DP must stay inside the calibrated gap band
//!    of the exhaustive partition oracle, and must never *beat* it
//!    (beating brute force means the cost model itself diverged).
//! 2. [`check_model_grid`] — the same comparison through the full
//!    profiler → memory model → recomputation pipeline on `tiny-gpt`
//!    instances, with the knapsack replaced by subset enumeration
//!    ([`OracleCostProvider`]) so *both* DP levels are checked at once.
//! 3. [`search_counterexamples`] — a seeded random search over small
//!    synthetic instances; any violation is greedily shrunk to a minimal
//!    reproducer ([`Counterexample`]) whose text form lands in
//!    `tests/golden/counterexamples/` and replays forever after as a
//!    regression test.
//!
//! The CLI (`adapipe verify --optimality`) and the CI `optimality` job
//! drive all three; `docs/verification.md` explains the calibrated band.

// lint: allow-file(swallowed-result): fmt::Write into a String cannot fail

use adapipe_check::{CheckCode, Diagnostic};
use adapipe_hw::presets as hw;
use adapipe_memory::{MemoryModel, OptimizerSpec};
use adapipe_model::{presets, LayerRange, LayerSeq, ParallelConfig, TrainConfig};
use adapipe_obs::{keys, Recorder};
use adapipe_partition::{
    algorithm1, exhaustive, KnapsackCostProvider, OracleCostProvider, StageCostProvider, StageTimes,
};
use adapipe_profiler::{ProfileTable, Profiler};
use adapipe_units::{convert, Bytes, MicroSecs};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Relative float slack for oracle comparisons (absorbs summation-order
/// noise between the DP's and the oracle's cost evaluations).
const ORACLE_TOLERANCE: f64 = 1e-9;

/// Calibrated worst-case ratio `DP / oracle` for Algorithm 1. The
/// heuristic per-stage objective misjudges split points most when the
/// pipeline is barely filled; the band was calibrated empirically by the
/// `adapipe-partition` property tests and is re-verified here.
#[must_use]
pub fn gap_band(p: usize, n: usize) -> f64 {
    if n < 2 * p {
        1.10
    } else {
        1.05
    }
}

/// A synthetic Eq. (3) instance: per-layer forward/backward times in
/// microseconds, `p` stages, `n` micro-batches. Stage times are window
/// sums, so the recomputation level collapses away and the instance
/// exercises exactly the partitioning DP.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticInstance {
    /// Pipeline stages `p`.
    pub stages: usize,
    /// Micro-batches `n` per iteration.
    pub micro_batches: usize,
    /// Per-layer `(forward, backward)` times in microseconds.
    pub layer_times: Vec<(f64, f64)>,
}

struct SyntheticProvider<'a> {
    layer_times: &'a [(f64, f64)],
}

impl StageCostProvider for SyntheticProvider<'_> {
    fn stage_times(&self, _stage: usize, range: LayerRange) -> Option<StageTimes> {
        let window = &self.layer_times[range.first..=range.last];
        Some(StageTimes {
            f: MicroSecs::new(window.iter().map(|(f, _)| f).sum()),
            b: MicroSecs::new(window.iter().map(|(_, b)| b).sum()),
        })
    }
}

impl SyntheticInstance {
    /// Iteration time Algorithm 1 finds for this instance.
    #[must_use]
    pub fn dp_time(&self) -> Option<MicroSecs> {
        let provider = SyntheticProvider {
            layer_times: &self.layer_times,
        };
        algorithm1::solve_traced(
            &provider,
            self.layer_times.len(),
            self.stages,
            self.micro_batches,
            &Recorder::disabled(),
        )
        .map(|plan| plan.iteration_time())
    }

    /// Iteration time of the provably best contiguous partition.
    #[must_use]
    pub fn oracle_time(&self) -> Option<MicroSecs> {
        let provider = SyntheticProvider {
            layer_times: &self.layer_times,
        };
        exhaustive::solve(
            &provider,
            self.layer_times.len(),
            self.stages,
            self.micro_batches,
        )
        .map(|plan| plan.iteration_time())
    }

    /// Whether the DP currently violates the agreement contract on this
    /// instance: worse than the calibrated band, or better than brute
    /// force (a cost-model bug).
    #[must_use]
    pub fn violates(&self) -> bool {
        let (Some(dp), Some(oracle)) = (self.dp_time(), self.oracle_time()) else {
            return false;
        };
        let band = gap_band(self.stages, self.micro_batches);
        let slack = MicroSecs::new(ORACLE_TOLERANCE * oracle.as_micros().max(1.0));
        dp > oracle * band + slack || dp < oracle - slack
    }
}

/// The pinned agreement grid: deterministic instances spanning barely
/// filled (`n = p`) through steady-dominated pipelines, skewed and
/// near-uniform layer times. Frozen so CI verdicts are reproducible;
/// extend it when a counterexample teaches us a new shape.
#[must_use]
pub fn pinned_grid() -> Vec<SyntheticInstance> {
    let shapes: &[(usize, usize, usize, u64)] = &[
        (6, 2, 8, 1),
        (7, 3, 6, 2),
        (8, 4, 8, 3),
        (9, 3, 20, 4),
        (10, 4, 12, 5),
        (8, 2, 16, 6),
        (12, 5, 5, 7),
        (10, 5, 40, 8),
    ];
    shapes
        .iter()
        .map(|&(l, p, n, seed)| {
            let mut rng = SplitMix64::new(seed);
            SyntheticInstance {
                stages: p,
                micro_batches: n,
                layer_times: (0..l)
                    .map(|_| (rng.f64_in(0.2, 3.0), rng.f64_in(0.2, 3.0)))
                    .collect(),
            }
        })
        .collect()
}

/// Sweeps [`pinned_grid`], reporting an [`CheckCode::OptimalityGap`]
/// diagnostic for every instance where the DP leaves the calibrated band
/// or beats the oracle. Counters land on `rec` under `oracle.*`.
#[must_use]
pub fn check_grid_agreement(rec: &Recorder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (idx, inst) in pinned_grid().iter().enumerate() {
        rec.incr(keys::ORACLE_INSTANCES);
        let (Some(dp), Some(oracle)) = (inst.dp_time(), inst.oracle_time()) else {
            out.push(Diagnostic::error(
                CheckCode::OptimalityGap,
                None,
                format!("pinned grid instance {idx} is unexpectedly infeasible"),
            ));
            continue;
        };
        rec.observe(
            keys::ORACLE_GAP_PCT,
            (dp.as_micros() / oracle.as_micros() - 1.0) * 100.0,
        );
        if inst.violates() {
            rec.incr(keys::ORACLE_DISAGREEMENTS);
            out.push(Diagnostic::error(
                CheckCode::OptimalityGap,
                None,
                format!(
                    "pinned grid instance {idx} (L={} p={} n={}): dp {dp} vs oracle {oracle} \
                     leaves the {:.2} band",
                    inst.layer_times.len(),
                    inst.stages,
                    inst.micro_batches,
                    gap_band(inst.stages, inst.micro_batches)
                ),
            ));
        }
    }
    out
}

/// A [`StageCostProvider`] that marks windows with more free units than
/// the oracle can enumerate infeasible. Wrapping *both* the DP's and the
/// oracle's providers in the same cap keeps the two searches optimizing
/// the identical restricted instance — the comparison stays apples to
/// apples even though the oracle cannot price arbitrarily wide windows.
struct CappedProvider<'a, P> {
    inner: &'a P,
    table: &'a ProfileTable,
    cap: usize,
}

impl<P: StageCostProvider> StageCostProvider for CappedProvider<'_, P> {
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        let free = self
            .table
            .units_in(range)
            .iter()
            .filter(|u| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
            .count();
        if free > self.cap {
            return None;
        }
        self.inner.stage_times(stage, range)
    }
}

/// Free-unit cap for [`check_model_grid`] windows. Tighter than
/// [`adapipe_recompute::exhaustive::MAX_ORACLE_FREE_UNITS`] so the
/// 2^free subset enumeration stays fast even in debug builds; on
/// `tiny-gpt` every `p ∈ {2, 3, 4}` partition still has full coverage
/// (a 5-layer half of the model holds exactly 16 sized free units).
const MODEL_GRID_FREE_CAP: usize = 16;

/// The pinned real-model grid: `(pipeline, micro_batches)` shapes on
/// `tiny-gpt` small enough for the joint (partition × recompute) oracle.
#[must_use]
pub fn model_grid() -> Vec<(usize, usize)> {
    vec![(2, 8), (3, 6), (4, 12)]
}

/// Runs the joint oracle — exhaustive partition search over
/// exhaustively optimized stages — against the production DP stack
/// (Algorithm 1 over knapsack-optimized stages) on every [`model_grid`]
/// instance. Both sides see the same window cap (`CappedProvider`) and
/// the same profiler, memory model and capacity, so a disagreement
/// indicts the DPs and nothing else.
#[must_use]
pub fn check_model_grid(rec: &Recorder) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let model = presets::tiny_gpt();
    let cluster = hw::cluster_a();
    let capacity = Bytes::from_gib(2);
    for (p, n) in model_grid() {
        rec.incr(keys::ORACLE_INSTANCES);
        let parallel = match ParallelConfig::new(1, p, 1) {
            Ok(c) => c,
            Err(e) => {
                out.push(Diagnostic::error(
                    CheckCode::OptimalityGap,
                    None,
                    format!("model grid (p={p}, n={n}): invalid parallelism: {e}"),
                ));
                continue;
            }
        };
        let Ok(train) = TrainConfig::new(1, 128, n) else {
            out.push(Diagnostic::error(
                CheckCode::OptimalityGap,
                None,
                format!("model grid (p={p}, n={n}): invalid workload"),
            ));
            continue;
        };
        let table = Profiler::new(cluster.clone()).profile(&model, &parallel, &train);
        let seq = LayerSeq::for_model(&model);
        let mem = MemoryModel::new(model.clone(), parallel, OptimizerSpec::adam_fp32());

        let dp_inner = KnapsackCostProvider::new(&seq, &table, &mem, capacity);
        let dp_provider = CappedProvider {
            inner: &dp_inner,
            table: &table,
            cap: MODEL_GRID_FREE_CAP,
        };
        let oracle_inner = OracleCostProvider::new(&seq, &table, &mem, capacity);
        let oracle_provider = CappedProvider {
            inner: &oracle_inner,
            table: &table,
            cap: MODEL_GRID_FREE_CAP,
        };

        let dp = algorithm1::solve_traced(&dp_provider, seq.len(), p, n, &Recorder::disabled())
            .map(|pl| pl.iteration_time());
        let oracle =
            exhaustive::solve(&oracle_provider, seq.len(), p, n).map(|pl| pl.iteration_time());
        match (dp, oracle) {
            (Some(dp), Some(oracle)) => {
                let band = gap_band(p, n);
                let slack = MicroSecs::new(ORACLE_TOLERANCE * oracle.as_micros().max(1.0));
                rec.observe(
                    keys::ORACLE_GAP_PCT,
                    (dp.as_micros() / oracle.as_micros() - 1.0) * 100.0,
                );
                if dp > oracle * band + slack || dp < oracle - slack {
                    rec.incr(keys::ORACLE_DISAGREEMENTS);
                    out.push(Diagnostic::error(
                        CheckCode::OptimalityGap,
                        None,
                        format!(
                            "model grid tiny-gpt (p={p}, n={n}): dp {dp} vs joint oracle \
                             {oracle} leaves the {band:.2} band"
                        ),
                    ));
                }
            }
            (dp, oracle) => {
                rec.incr(keys::ORACLE_DISAGREEMENTS);
                out.push(Diagnostic::error(
                    CheckCode::OptimalityGap,
                    None,
                    format!(
                        "model grid tiny-gpt (p={p}, n={n}): feasibility disagreement \
                         (dp {dp:?} vs joint oracle {oracle:?})"
                    ),
                ));
            }
        }
    }
    out
}

/// Header line of the counterexample reproducer format.
pub const COUNTEREXAMPLE_HEADER: &str = "adapipe-counterexample v1";

/// A shrunk oracle/DP disagreement: the minimal instance the search
/// found, plus the times observed when it was recorded. The text form is
/// what lands under `tests/golden/counterexamples/`.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The minimal violating instance.
    pub instance: SyntheticInstance,
    /// DP iteration time when the counterexample was recorded.
    pub dp_time: MicroSecs,
    /// Oracle iteration time when the counterexample was recorded.
    pub oracle_time: MicroSecs,
    /// The seed of the search run that found it.
    pub seed: u64,
}

impl Counterexample {
    /// Serializes to the reproducer text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::from(COUNTEREXAMPLE_HEADER);
        out.push('\n');
        let _ = writeln!(out, "seed = {}", self.seed);
        let _ = writeln!(out, "stages = {}", self.instance.stages);
        let _ = writeln!(out, "micro_batches = {}", self.instance.micro_batches);
        for (f, b) in &self.instance.layer_times {
            let _ = writeln!(out, "layer = {f} {b}");
        }
        let _ = writeln!(out, "dp_time = {}", self.dp_time.as_micros());
        let _ = writeln!(out, "oracle_time = {}", self.oracle_time.as_micros());
        out
    }

    /// Parses the reproducer text format.
    ///
    /// # Errors
    ///
    /// [`CounterexampleParseError`] on malformed or incomplete input.
    pub fn from_text(text: &str) -> Result<Counterexample, CounterexampleParseError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        if lines.next().map(str::trim) != Some(COUNTEREXAMPLE_HEADER) {
            return Err(CounterexampleParseError::BadHeader);
        }
        let mut seed = None;
        let mut stages = None;
        let mut micro_batches = None;
        let mut dp_time = None;
        let mut oracle_time = None;
        let mut layer_times = Vec::new();
        for line in lines {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| CounterexampleParseError::BadLine(line.to_string()))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = || CounterexampleParseError::BadValue {
                key: key.to_string(),
                value: value.to_string(),
            };
            match key {
                "seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "stages" => stages = Some(value.parse().map_err(|_| bad())?),
                "micro_batches" => micro_batches = Some(value.parse().map_err(|_| bad())?),
                "dp_time" => dp_time = Some(MicroSecs::new(value.parse().map_err(|_| bad())?)),
                "oracle_time" => {
                    oracle_time = Some(MicroSecs::new(value.parse().map_err(|_| bad())?));
                }
                "layer" => {
                    let (f, b) = value.split_once(' ').ok_or_else(bad)?;
                    layer_times.push((
                        f.trim().parse().map_err(|_| bad())?,
                        b.trim().parse().map_err(|_| bad())?,
                    ));
                }
                _ => return Err(CounterexampleParseError::BadLine(line.to_string())),
            }
        }
        if layer_times.is_empty() {
            return Err(CounterexampleParseError::Missing("layer"));
        }
        Ok(Counterexample {
            instance: SyntheticInstance {
                stages: stages.ok_or(CounterexampleParseError::Missing("stages"))?,
                micro_batches: micro_batches
                    .ok_or(CounterexampleParseError::Missing("micro_batches"))?,
                layer_times,
            },
            dp_time: dp_time.ok_or(CounterexampleParseError::Missing("dp_time"))?,
            oracle_time: oracle_time.ok_or(CounterexampleParseError::Missing("oracle_time"))?,
            seed: seed.ok_or(CounterexampleParseError::Missing("seed"))?,
        })
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L={} p={} n={}: dp {} vs oracle {} (seed {})",
            self.instance.layer_times.len(),
            self.instance.stages,
            self.instance.micro_batches,
            self.dp_time,
            self.oracle_time,
            self.seed
        )
    }
}

/// Error from [`Counterexample::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CounterexampleParseError {
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
}

impl fmt::Display for CounterexampleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterexampleParseError::BadHeader => {
                write!(f, "missing or unsupported counterexample header")
            }
            CounterexampleParseError::Missing(key) => write!(f, "missing key `{key}`"),
            CounterexampleParseError::BadLine(line) => write!(f, "malformed line `{line}`"),
            CounterexampleParseError::BadValue { key, value } => {
                write!(f, "bad value for `{key}`: `{value}`")
            }
        }
    }
}

impl Error for CounterexampleParseError {}

/// Bounds for the random instance generator: small enough that the
/// exhaustive partition oracle stays fast, wide enough to cover the
/// shapes Algorithm 1 is known to find hard (barely filled pipelines).
#[derive(Debug, Clone, Copy)]
pub struct OracleBounds {
    /// Largest layer count to generate.
    pub max_layers: usize,
    /// Largest stage count to generate.
    pub max_stages: usize,
    /// Largest `n − p` to generate.
    pub max_extra_microbatches: usize,
}

impl Default for OracleBounds {
    fn default() -> Self {
        OracleBounds {
            max_layers: 11,
            max_stages: 5,
            max_extra_microbatches: 16,
        }
    }
}

/// Searches `iterations` seeded random instances for DP/oracle
/// disagreements, shrinking each hit to a minimal reproducer. An empty
/// result is the expected (passing) outcome; hits should be committed
/// under `tests/golden/counterexamples/` and the band re-calibrated or
/// the DP fixed. Counters land on `rec` under `oracle.*`.
#[must_use]
pub fn search_counterexamples(
    seed: u64,
    iterations: usize,
    bounds: &OracleBounds,
    rec: &Recorder,
) -> Vec<Counterexample> {
    let mut rng = SplitMix64::new(seed);
    let mut hits = Vec::new();
    for _ in 0..iterations {
        rec.incr(keys::ORACLE_INSTANCES);
        let p = 2 + rng.below(bounds.max_stages.saturating_sub(1).max(1));
        let l = p.max(4) + rng.below(bounds.max_layers.saturating_sub(p.max(4)) + 1);
        let n = p + rng.below(bounds.max_extra_microbatches + 1);
        let inst = SyntheticInstance {
            stages: p,
            micro_batches: n,
            layer_times: (0..l)
                .map(|_| (rng.f64_in(0.2, 3.0), rng.f64_in(0.2, 3.0)))
                .collect(),
        };
        if let (Some(dp), Some(oracle)) = (inst.dp_time(), inst.oracle_time()) {
            rec.observe(
                keys::ORACLE_GAP_PCT,
                (dp.as_micros() / oracle.as_micros() - 1.0) * 100.0,
            );
        }
        if inst.violates() {
            rec.incr(keys::ORACLE_DISAGREEMENTS);
            let minimal = shrink(inst);
            let (dp, oracle) = (
                minimal.dp_time().unwrap_or(MicroSecs::ZERO),
                minimal.oracle_time().unwrap_or(MicroSecs::ZERO),
            );
            hits.push(Counterexample {
                instance: minimal,
                dp_time: dp,
                oracle_time: oracle,
                seed,
            });
        }
    }
    hits
}

/// Greedy shrink: repeatedly drop layers, walk `n` down toward `p` and
/// round layer times to coarse grids — keeping each step only while the
/// instance still violates — until no step applies.
#[must_use]
pub fn shrink(mut inst: SyntheticInstance) -> SyntheticInstance {
    debug_assert!(inst.violates(), "shrinking a non-violating instance");
    loop {
        let mut progressed = false;
        // Drop one layer at a time (left to right restarts each pass).
        let mut i = 0;
        while inst.layer_times.len() > inst.stages.max(2) && i < inst.layer_times.len() {
            let mut candidate = inst.clone();
            candidate.layer_times.remove(i);
            if candidate.violates() {
                inst = candidate;
                progressed = true;
            } else {
                i += 1;
            }
        }
        // Walk n toward the 1F1B minimum.
        while inst.micro_batches > inst.stages {
            let mut candidate = inst.clone();
            candidate.micro_batches -= 1;
            if candidate.violates() {
                inst = candidate;
                progressed = true;
            } else {
                break;
            }
        }
        // Snap times to coarse grids (whole units, then halves).
        for scale in [1.0, 2.0] {
            let mut candidate = inst.clone();
            for (f, b) in &mut candidate.layer_times {
                *f = ((*f * scale).round() / scale).max(1.0 / scale);
                *b = ((*b * scale).round() / scale).max(1.0 / scale);
            }
            if candidate != inst && candidate.violates() {
                inst = candidate;
                progressed = true;
            }
        }
        if !progressed {
            return inst;
        }
    }
}

/// SplitMix64 (Steele et al.): tiny, seedable, reproducible across
/// platforms — all the counterexample search needs from an RNG.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (`0` when `n == 0`).
    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        convert::u64_usize_saturating(self.next() % convert::usize_u64(n))
    }

    /// Uniform in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = convert::u64_f64(self.next() >> 11) / convert::u64_f64(1 << 53);
        lo + unit * (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_grid_is_deterministic_and_in_band() {
        assert_eq!(pinned_grid(), pinned_grid());
        let diags = check_grid_agreement(&Recorder::disabled());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn model_grid_agrees() {
        let rec = Recorder::new();
        let diags = check_model_grid(&rec);
        assert!(diags.is_empty(), "{diags:?}");
        let snap = rec.snapshot();
        assert_eq!(
            snap.counters.get(keys::ORACLE_INSTANCES).copied(),
            Some(model_grid().len() as u64)
        );
        assert_eq!(snap.counters.get(keys::ORACLE_DISAGREEMENTS), None);
    }

    #[test]
    fn search_finds_nothing_on_the_default_bounds() {
        let rec = Recorder::new();
        let hits = search_counterexamples(0xada_715e, 64, &OracleBounds::default(), &rec);
        assert!(hits.is_empty(), "unexpected counterexamples: {hits:?}");
        let snap = rec.snapshot();
        assert_eq!(snap.counters.get(keys::ORACLE_INSTANCES).copied(), Some(64));
    }

    #[test]
    fn search_is_deterministic() {
        let rec = Recorder::disabled();
        let a = search_counterexamples(7, 16, &OracleBounds::default(), &rec);
        let b = search_counterexamples(7, 16, &OracleBounds::default(), &rec);
        assert_eq!(a, b);
    }

    #[test]
    fn counterexample_text_round_trips() {
        let cx = Counterexample {
            instance: SyntheticInstance {
                stages: 3,
                micro_batches: 6,
                layer_times: vec![(1.25, 2.5), (0.75, 1.0), (2.0, 3.5), (1.0, 1.0)],
            },
            dp_time: MicroSecs::new(42.5),
            oracle_time: MicroSecs::new(40.0),
            seed: 99,
        };
        let parsed = Counterexample::from_text(&cx.to_text()).expect("round-trip");
        assert_eq!(cx, parsed);
    }

    #[test]
    fn counterexample_parse_rejects_garbage() {
        assert_eq!(
            Counterexample::from_text("nope\n"),
            Err(CounterexampleParseError::BadHeader)
        );
        let no_layers = format!("{COUNTEREXAMPLE_HEADER}\nseed = 1\nstages = 2\nmicro_batches = 4\ndp_time = 1\noracle_time = 1\n");
        assert_eq!(
            Counterexample::from_text(&no_layers),
            Err(CounterexampleParseError::Missing("layer"))
        );
        let bad_layer = format!("{COUNTEREXAMPLE_HEADER}\nlayer = 1.0\n");
        assert!(matches!(
            Counterexample::from_text(&bad_layer),
            Err(CounterexampleParseError::BadValue { .. })
        ));
        let unknown = format!("{COUNTEREXAMPLE_HEADER}\nwat = 1\n");
        assert!(matches!(
            Counterexample::from_text(&unknown),
            Err(CounterexampleParseError::BadLine(_))
        ));
    }

    #[test]
    fn uniform_instances_never_violate() {
        // Balanced instances are the closed-form case Eq. (3) solves
        // exactly, so the DP must match the oracle outright there.
        for p in 2..=4 {
            for extra in [0, 1, 8] {
                let inst = SyntheticInstance {
                    stages: p,
                    micro_batches: p + extra,
                    layer_times: vec![(1.0, 2.0); 2 * p],
                };
                let dp = inst.dp_time().expect("feasible");
                let oracle = inst.oracle_time().expect("feasible");
                assert!((dp.as_micros() - oracle.as_micros()).abs() < 1e-9);
                assert!(!inst.violates());
            }
        }
    }
}
