//! The §4.3 knapsack: choose saved units to maximize avoided
//! recomputation under a memory budget.
//!
//! Every leaf `f/b[s,i,j]` of the planner ends here, in [`optimize`].
//! Pinned units are charged first; the free units go through a 0/1
//! knapsack DP on the §5.3 GCD-rescaled memory axis, whose rounding
//! never over-commits the real budget (footprints round up, the budget
//! rounds down). The DP kernel updates one flat `f64` row in place, in
//! blocks that never read a cell the same item has written, so the
//! compiler vectorizes its branch-free max. It compares with `f64` `>`,
//! which gives the same answers as [`Cost`]'s total order on every value
//! the row can hold, so the chosen set is the same bits as the scalar
//! `Cost` loop the tests keep as a reference.

use crate::error::StrategyError;
use crate::strategy::{cost_of, RecomputeStrategy, StageCost};
use adapipe_obs::{keys, Recorder};
use adapipe_profiler::UnitProfile;
use adapipe_units::{convert, Bytes, Cost};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Tuning knobs for the knapsack DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KnapsackConfig {
    /// Upper bound on DP cells along the memory axis. When the
    /// GCD-rescaled budget still exceeds this, weights are re-bucketed
    /// conservatively (rounded up), trading a sliver of optimality for
    /// bounded time and space.
    pub max_capacity_cells: usize,
    /// Disables the §5.3 GCD rescaling (ablation benchmarks only; the
    /// capacity-cell cap still bounds the DP, so results stay feasible
    /// but the DP axis is much longer).
    pub disable_gcd: bool,
}

impl Default for KnapsackConfig {
    fn default() -> Self {
        KnapsackConfig {
            max_capacity_cells: 1 << 20,
            disable_gcd: false,
        }
    }
}

/// Result of optimizing one stage: the chosen strategy, its exact cost
/// and the portion of the budget left unused.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizedStage {
    /// The saved/recomputed decision per unit.
    pub strategy: RecomputeStrategy,
    /// Exact cost of the chosen strategy.
    pub cost: StageCost,
    /// Budget not consumed by saved intermediates.
    pub slack_bytes: Bytes,
}

/// Finds the saved-unit set maximizing `Σ Time_f(saved)` subject to
/// `Σ Mem(saved) ≤ budget_per_mb` — Equations (1)–(2) of the paper.
///
/// `budget_per_mb` is the *per-micro-batch* activation budget: the caller
/// (the memory model) has already divided the stage's free memory by its
/// live micro-batch count `p − s`, which is equivalent to the paper's
/// formulation with the `(p − s)` factor on the weights.
///
/// Pinned units are charged against the budget first; the DP runs only
/// over the free units, on a memory axis rescaled by the GCD of their
/// sizes (§5.3). Pass [`KnapsackConfig::default()`] unless ablating that
/// rescaling or capping the memory axis.
///
/// DP effort goes to `rec` (pass [`Recorder::disabled()`] to opt out):
/// per-call wall time (`recompute.knapsack.us`), cells evaluated
/// (`recompute.knapsack.cells`), re-bucketing rounds beyond the GCD
/// scale (`recompute.knapsack.rebuckets`) and the final scale factor
/// (`recompute.knapsack.gcd_scale` gauge).
///
/// # Errors
///
/// Returns [`StrategyError::OutOfMemory`] when the pinned units alone
/// exceed the budget.
pub fn optimize(
    units: &[UnitProfile],
    budget_per_mb: Bytes,
    config: KnapsackConfig,
    rec: &Recorder,
) -> Result<OptimizedStage, StrategyError> {
    let started = rec.is_enabled().then(Instant::now);
    rec.incr(keys::KNAPSACK_CALLS);
    let result = optimize_untimed(units, budget_per_mb, config, rec);
    // Timed on every exit, the out-of-memory early return included, so
    // `recompute.knapsack.us` counts exactly `recompute.knapsack.calls`.
    if let Some(t0) = started {
        rec.observe(keys::KNAPSACK_US, t0.elapsed().as_secs_f64() * 1e6);
    }
    result
}

fn optimize_untimed(
    units: &[UnitProfile],
    budget_per_mb: Bytes,
    config: KnapsackConfig,
    rec: &Recorder,
) -> Result<OptimizedStage, StrategyError> {
    let pinned_bytes: Bytes = units
        .iter()
        .filter(|u| u.is_pinned())
        .map(|u| u.mem_saved)
        .sum();
    let free_budget =
        budget_per_mb
            .checked_sub(pinned_bytes)
            .ok_or(StrategyError::OutOfMemory {
                required: pinned_bytes,
                budget: budget_per_mb,
            })?;

    let free: Vec<(usize, &UnitProfile)> = units
        .iter()
        .enumerate()
        .filter(|(_, u)| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
        .collect();

    let mut saved: Vec<bool> = units.iter().map(UnitProfile::is_pinned).collect();
    // Zero-size free units are free to save; never recompute them.
    for (i, u) in units.iter().enumerate() {
        if !u.is_pinned() && u.mem_saved == Bytes::ZERO {
            saved[i] = true;
        }
    }

    if !free.is_empty() {
        let chosen = solve(&free, free_budget, config, rec);
        for idx in chosen {
            saved[idx] = true;
        }
    }

    let strategy = RecomputeStrategy::from_flags(units, saved);
    let cost = cost_of(units, &strategy);
    // Rescaling audit: the DP must never over-commit the real budget
    // (weights round *up*, capacity rounds *down* — see `solve`).
    debug_assert!(
        cost.saved_bytes_per_mb.fits(budget_per_mb),
        "knapsack over-committed the unscaled budget"
    );
    Ok(OptimizedStage {
        slack_bytes: budget_per_mb.saturating_sub(cost.saved_bytes_per_mb),
        strategy,
        cost,
    })
}

/// 0/1 knapsack over the free units; returns the original indices of the
/// units to save.
///
/// Three steps, each its own function: [`scaled_axis`] rescales the
/// memory axis (§5.3, with the rounding audit), [`take_rows`] runs the
/// branch-free DP kernel (with the argument that it matches the `Cost`
/// order bit for bit), and [`trace_back`] reads the chosen set off the
/// `take` rows from the full capacity down.
fn solve(
    free: &[(usize, &UnitProfile)],
    budget: Bytes,
    config: KnapsackConfig,
    rec: &Recorder,
) -> Vec<usize> {
    // Everything fits: skip the DP entirely.
    let total: Bytes = free.iter().map(|(_, u)| u.mem_saved).sum();
    if total.fits(budget) {
        return free.iter().map(|(i, _)| *i).collect();
    }
    let (weights, capacity) = scaled_axis(free, budget, config, rec);
    let values: Vec<Cost> = free.iter().map(|(_, u)| Cost::of(u.time_f)).collect();
    let take = take_rows(&weights, &values, capacity);
    trace_back(free, &weights, &take, capacity)
}

/// The §5.3 rescaled memory axis: each free unit's weight in cells and
/// the capacity in cells.
///
/// # Rescaling audit (§5.3)
///
/// The DP runs on an integer memory axis rescaled by `scale` (the GCD of
/// the unit footprints, doubled until the axis fits the cell cap). For
/// the rescaled solution to be feasible in *unscaled* [`Bytes`], the
/// rounding directions must never under-report memory:
///
/// * unit footprints round **up** (`div_ceil`) — a saved set that fits
///   the scaled axis can only *over*-estimate its real bytes;
/// * the stage budget rounds **down** (integer division) — the scaled
///   capacity can only *under*-estimate the real budget.
///
/// Both biases point the same (conservative) way, so
/// `Σ scaled-feasible footprints ≤ scale · capacity ≤ budget` holds
/// exactly; `optimize` debug-asserts it and the
/// `rescaled_solution_feasible_in_unscaled_bytes` proptest exercises it
/// with adversarial sizes and forced re-bucketing.
fn scaled_axis(
    free: &[(usize, &UnitProfile)],
    budget: Bytes,
    config: KnapsackConfig,
    rec: &Recorder,
) -> (Vec<usize>, usize) {
    let g = if config.disable_gcd {
        1
    } else {
        free.iter()
            .fold(0u64, |acc, (_, u)| gcd(acc, u.mem_saved.get()))
    };
    debug_assert!(g > 0);
    let mut scale = g;
    // Re-bucket further if the capacity axis would still be too long.
    // Budget rounds DOWN: never pretend to more memory than exists.
    let mut capacity = convert::u64_usize_saturating(budget.get() / scale);
    while capacity > config.max_capacity_cells {
        scale *= 2;
        capacity = convert::u64_usize_saturating(budget.get() / scale);
        rec.incr(keys::KNAPSACK_REBUCKETS);
    }
    rec.gauge_max(keys::KNAPSACK_GCD_SCALE, convert::u64_f64(scale));
    rec.add(
        keys::KNAPSACK_CELLS,
        convert::usize_u64((capacity + 1) * free.len()),
    );

    // Weights round UP: never pretend a unit is smaller than it is.
    // (With `scale == g` both roundings are exact and the DP is optimal.)
    let weights = free
        .iter()
        .map(|(_, u)| convert::u64_usize_saturating(u.mem_saved.get().div_ceil(scale)))
        .collect();
    (weights, capacity)
}

/// The DP of Eqs. (1)–(2) over `capacity + 1` memory cells: row `i` is
/// a bitset over capacities `m` at which item `i` is taken, i.e. where
/// `value[m − w_i] + v_i` beats the best value of items `0..i` at `m`.
///
/// # Kernel
///
/// `value` is one flat `f64` row updated in place. An item of weight `w`
/// updates cells `[w, capacity]` top-down in blocks `[lo, hi)` with
/// `hi − lo ≤ w` and `lo ≥ w`. A block reads only `value[lo − w .. hi − w]`,
/// which lies below it and which this item has not written yet, so
/// `split_at_mut(lo)` hands the compiler two disjoint slices and the
/// branch-free select vectorizes. Each block records `cand > old` per
/// cell in one byte-per-cell flag buffer, which [`pack_flags`] folds
/// into the item's `take` words afterwards. No second full-length `f64`
/// row is allocated.
///
/// # Exactness
///
/// The reference order on the value axis is [`Cost`]'s `total_cmp`; the
/// kernel compares with `f64` `>`. The two agree on every value the row
/// can hold, so every `take` bit is the same:
///
/// * every row value is a sum that starts from `+0.0`, and in
///   round-to-nearest such a sum is never `−0.0` (`x + (−0.0) = x` for
///   `x ≠ −0.0`, and an exact cancellation yields `+0.0`);
/// * [`Cost::of`] maps NaN to `+∞`, so a row value can only become NaN
///   as `+∞ + (−∞)`, which needs a unit time of `−∞`.
///
/// Precondition: no row value is ever `−∞`. That holds when no unit
/// time is `−∞` and negative times, which no profile contains, never sum
/// past `−f64::MAX`: `Profiler` times are non-negative and
/// `ProfileTable::from_measurements` rejects negative and non-finite
/// ones. The `−∞` unit time is debug-asserted here.
fn take_rows(weights: &[usize], values: &[Cost], capacity: usize) -> Vec<Vec<u64>> {
    debug_assert!(
        values
            .iter()
            .all(|v| v.time().as_micros() > f64::NEG_INFINITY),
        "a unit time of -inf breaks the kernel's comparison argument"
    );
    let mut value = vec![0.0f64; capacity + 1];
    let mut taken = vec![0u8; capacity + 1];
    let words = capacity / 64 + 1;
    let mut take: Vec<Vec<u64>> = Vec::with_capacity(weights.len());
    for (&w, v) in weights.iter().zip(values) {
        debug_assert!(w > 0, "free units have a positive footprint");
        let mut bits = vec![0u64; words];
        if w <= capacity {
            let v = v.time().as_micros();
            let mut hi = capacity + 1;
            while hi > w {
                let lo = (hi - w).max(w);
                let (below, block) = value.split_at_mut(lo);
                let src = &below[lo - w..hi - w];
                for ((old, &base), flag) in
                    block[..hi - lo].iter_mut().zip(src).zip(&mut taken[lo..hi])
                {
                    let cand = base + v;
                    let better = cand > *old;
                    *flag = u8::from(better);
                    *old = if better { cand } else { *old };
                }
                hi = lo;
            }
            // Cells below `w` are never taken: clear their stale flags in
            // the first word this item touches, then pack.
            let first = w / 64;
            taken[first * 64..w].fill(0);
            for (word, flags) in bits[first..].iter_mut().zip(taken[first * 64..].chunks(64)) {
                *word = pack_flags(flags);
            }
        }
        take.push(bits);
    }
    take
}

/// Packs up to 64 one-byte `0`/`1` flags into a word, flag `i` to bit `i`.
///
/// Eight flags at a time: multiplying their little-endian word by
/// `Σ_j 2^(56 − 7j)` moves byte `j`'s low bit to bit `56 + j`. Every
/// other partial product lands below bit 56 or above bit 63 at a
/// distinct position, so nothing carries into the top byte, which then
/// holds the eight flags in order.
fn pack_flags(flags: &[u8]) -> u64 {
    const SPREAD: u64 = 0x0102_0408_1020_4080;
    let eights = flags.chunks_exact(8);
    let tail = eights.remainder();
    let head = eights.enumerate().fold(0, |acc, (k, bytes)| {
        let mut le = [0u8; 8];
        le.copy_from_slice(bytes);
        acc | (u64::from_le_bytes(le).wrapping_mul(SPREAD) >> 56) << (8 * k)
    });
    let base = flags.len() - tail.len();
    tail.iter()
        .enumerate()
        .fold(head, |acc, (i, &f)| acc | u64::from(f) << (base + i))
}

/// Traces the chosen set back from the full capacity; returns the
/// original indices of the taken units.
fn trace_back(
    free: &[(usize, &UnitProfile)],
    weights: &[usize],
    take: &[Vec<u64>],
    capacity: usize,
) -> Vec<usize> {
    let mut chosen = Vec::new();
    let mut m = capacity;
    for item in (0..free.len()).rev() {
        if take[item][m / 64] >> (m % 64) & 1 == 1 {
            chosen.push(free[item].0);
            m -= weights[item];
        }
    }
    chosen
}

/// Greatest common divisor (used by the §5.3 rescaling).
#[must_use]
pub fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapipe_hw::presets as hw;
    use adapipe_model::{presets, LayerRange, ParallelConfig, TrainConfig};
    use adapipe_profiler::Profiler;
    use adapipe_units::MicroSecs;
    use proptest::prelude::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    /// [`optimize`] at the default configuration, untraced.
    fn optimize_default(
        us: &[UnitProfile],
        budget: Bytes,
    ) -> Result<OptimizedStage, StrategyError> {
        optimize(us, budget, KnapsackConfig::default(), &Recorder::disabled())
    }

    fn units(layers: LayerRange) -> Result<Vec<UnitProfile>, Box<dyn std::error::Error>> {
        let model = presets::gpt2_small();
        let parallel = ParallelConfig::new(2, 4, 1)?;
        let train = TrainConfig::new(1, 1024, 16)?;
        let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
        Ok(table.units_in(layers))
    }

    /// The scalar DP loop the kernel replaced, kept as the reference:
    /// `Cost` values compared by `total_cmp`, one cell at a time.
    fn reference_rows(weights: &[usize], values: &[Cost], capacity: usize) -> Vec<Vec<u64>> {
        let mut value = vec![Cost::ZERO; capacity + 1];
        let words = capacity / 64 + 1;
        let mut take: Vec<Vec<u64>> = Vec::with_capacity(weights.len());
        for (&w, &v) in weights.iter().zip(values) {
            let mut bits = vec![0u64; words];
            if w <= capacity {
                for m in (w..=capacity).rev() {
                    let cand = value[m - w] + v;
                    if cand > value[m] {
                        value[m] = cand;
                        bits[m / 64] |= 1 << (m % 64);
                    }
                }
            }
            take.push(bits);
        }
        take
    }

    /// Unit times drawn from `(pick, x)`: the special values `0.0`,
    /// `−0.0`, `+∞` and NaN, small integers that tie often, else `x`.
    fn time_of((pick, x): (usize, f64)) -> MicroSecs {
        MicroSecs::new(match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NAN,
            4..=6 => (pick - 3) as f64,
            _ => x,
        })
    }

    /// Free units with the given footprints and times.
    fn free_units(sizes: &[u64], times: &[MicroSecs]) -> Vec<UnitProfile> {
        use adapipe_model::{ComputationUnit, UnitKind};
        sizes
            .iter()
            .zip(times)
            .enumerate()
            .map(|(i, (&s, &t))| UnitProfile {
                unit: ComputationUnit {
                    kind: UnitKind::FfnAct,
                    layer: i,
                },
                time_f: t,
                time_b: MicroSecs::new(1.0),
                mem_saved: Bytes::new(s),
            })
            .collect()
    }

    /// Runs the kernel and the reference on the axis `solve` builds for
    /// this problem (the everything-fits shortcut aside) and compares the
    /// chosen index sets, then every `take` bit.
    fn check_against_reference(
        us: &[UnitProfile],
        budget: Bytes,
        config: KnapsackConfig,
    ) -> Result<(), String> {
        let free: Vec<(usize, &UnitProfile)> = us
            .iter()
            .enumerate()
            .filter(|(_, u)| !u.is_pinned() && u.mem_saved > Bytes::ZERO)
            .collect();
        if free.is_empty() {
            return Ok(());
        }
        let (weights, capacity) = scaled_axis(&free, budget, config, &Recorder::disabled());
        let values: Vec<Cost> = free.iter().map(|(_, u)| Cost::of(u.time_f)).collect();
        let kernel = take_rows(&weights, &values, capacity);
        let reference = reference_rows(&weights, &values, capacity);
        let chosen = trace_back(&free, &weights, &kernel, capacity);
        let want = trace_back(&free, &weights, &reference, capacity);
        if chosen != want {
            return Err(format!("chose {chosen:?}, reference {want:?}"));
        }
        if kernel != reference {
            return Err(format!("take rows differ at capacity {capacity}"));
        }
        Ok(())
    }

    #[test]
    fn kernel_matches_reference_at_word_edges() {
        // (capacity + 1) % 64 is 1 for capacities 0, 64 and 128, 0 for
        // 63, 127 and 191, and 63 for 62 and 126.
        for capacity in [0usize, 1, 62, 63, 64, 65, 126, 127, 128, 191] {
            let weights = [1, capacity.max(1), capacity + 1, 7, 64, 3, 1, 2];
            let values: Vec<Cost> = [3.0, 5.0, 9.0, 2.0, 2.0, 1.0, 1.0, 2.0]
                .into_iter()
                .map(|t| Cost::of(MicroSecs::new(t)))
                .collect();
            assert_eq!(
                take_rows(&weights, &values, capacity),
                reference_rows(&weights, &values, capacity),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn kernel_matches_reference_on_special_times() {
        let sizes = [6u64, 9, 3, 12, 6, 3, 15, 9];
        let configs = [
            KnapsackConfig::default(),
            KnapsackConfig {
                disable_gcd: true,
                ..Default::default()
            },
            // Forces re-bucketing of the 63 B total.
            KnapsackConfig {
                max_capacity_cells: 4,
                ..Default::default()
            },
        ];
        for times in [
            [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
            [
                1.0,
                f64::INFINITY,
                2.0,
                f64::NAN,
                1.0,
                f64::INFINITY,
                3.0,
                2.0,
            ],
            [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],
            [f64::NAN, -0.0, f64::INFINITY, 0.0, 4.0, 4.0, 1.5, 0.5],
        ] {
            let times: Vec<MicroSecs> = times.into_iter().map(MicroSecs::new).collect();
            let us = free_units(&sizes, &times);
            for budget in [0u64, 3, 5, 20, 33, 62] {
                for config in configs {
                    assert_eq!(
                        check_against_reference(&us, Bytes::new(budget), config),
                        Ok(()),
                        "times {times:?}, budget {budget}, {config:?}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// Any weights (1, `w == capacity` and `w > capacity` included),
        /// capacities across word boundaries and special or tied times:
        /// the kernel sets exactly the reference's `take` bits.
        #[test]
        fn kernel_rows_match_reference(
            capacity in 0usize..200,
            weights in proptest::collection::vec(1usize..203, 1..12),
            picks in proptest::collection::vec((0usize..10, 0.0f64..100.0), 12),
        ) {
            let values: Vec<Cost> = picks.iter().map(|&p| Cost::of(time_of(p))).collect();
            prop_assert_eq!(
                take_rows(&weights, &values, capacity),
                reference_rows(&weights, &values, capacity)
            );
        }

        /// Through the §5.3 axis: the GCD path, `disable_gcd` and forced
        /// re-bucketing all choose the reference's index set.
        #[test]
        fn kernel_chooses_reference_set(
            sizes in proptest::collection::vec(1u64..2000, 1..16),
            picks in proptest::collection::vec((0usize..10, 0.0f64..100.0), 16),
            budget_scale in 0u64..100,
            mode in 0usize..3,
            cells in 4usize..64,
        ) {
            let sizes: Vec<u64> = sizes.iter().map(|s| s * 3).collect();
            let times: Vec<MicroSecs> = picks.iter().map(|&p| time_of(p)).collect();
            let us = free_units(&sizes, &times);
            let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
            let config = match mode {
                0 => KnapsackConfig::default(),
                1 => KnapsackConfig { disable_gcd: true, ..Default::default() },
                _ => KnapsackConfig { max_capacity_cells: cells, disable_gcd: false },
            };
            let verdict = check_against_reference(&us, all * budget_scale / 100, config);
            prop_assert_eq!(verdict, Ok(()));
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(1, 1_000_000), 1);
    }

    #[test]
    fn unbounded_budget_saves_everything() -> TestResult {
        let us = units(LayerRange::new(1, 6))?;
        let opt = optimize_default(&us, Bytes::new(u64::MAX))?;
        assert_eq!(opt.strategy.saved_count(), us.len());
        Ok(())
    }

    #[test]
    fn pinned_overflow_is_oom() -> TestResult {
        let us = units(LayerRange::new(1, 6))?;
        assert!(matches!(
            optimize_default(&us, Bytes::ZERO),
            Err(StrategyError::OutOfMemory { .. })
        ));
        Ok(())
    }

    #[test]
    fn tight_budget_degenerates_to_full_recompute() -> TestResult {
        let us = units(LayerRange::new(1, 6))?;
        let pinned: Bytes = us
            .iter()
            .filter(|u| u.is_pinned())
            .map(|u| u.mem_saved)
            .sum();
        let opt = optimize_default(&us, pinned)?;
        assert_eq!(
            opt.strategy.saved_count(),
            us.iter().filter(|u| u.is_pinned()).count()
        );
        assert_eq!(opt.slack_bytes, Bytes::ZERO);
        Ok(())
    }

    #[test]
    fn budget_monotonicity() -> TestResult {
        // More budget never yields worse (larger) backward time.
        let us = units(LayerRange::new(1, 8))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let mut last_b = MicroSecs::new(f64::INFINITY);
        for frac in [25u64, 50, 75, 100] {
            let opt = optimize_default(&us, all * frac / 100)?;
            assert!(
                opt.cost.time_b <= last_b + MicroSecs::new(1e-6),
                "frac {frac}"
            );
            last_b = opt.cost.time_b;
        }
        Ok(())
    }

    #[test]
    fn respects_budget_exactly() -> TestResult {
        let us = units(LayerRange::new(1, 8))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let budget = all * 60 / 100;
        let opt = optimize_default(&us, budget)?;
        assert!(opt.cost.saved_bytes_per_mb <= budget);
        assert_eq!(
            opt.slack_bytes,
            budget.saturating_sub(opt.cost.saved_bytes_per_mb)
        );
        Ok(())
    }

    /// Brute force over all subsets of free units (for small n).
    fn brute_force(us: &[UnitProfile], budget: Bytes) -> f64 {
        let pinned_bytes: Bytes = us
            .iter()
            .filter(|u| u.is_pinned())
            .map(|u| u.mem_saved)
            .sum();
        if !pinned_bytes.fits(budget) {
            return f64::NAN;
        }
        let free: Vec<&UnitProfile> = us.iter().filter(|u| !u.is_pinned()).collect();
        let mut best = 0.0f64;
        for mask in 0u32..(1 << free.len()) {
            let bytes: Bytes = free
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, u)| u.mem_saved)
                .sum();
            let val: f64 = free
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, u)| u.time_f.as_micros())
                .sum();
            if pinned_bytes.saturating_add(bytes).fits(budget) && val > best {
                best = val;
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_one_block() -> TestResult {
        let us = units(LayerRange::new(1, 2))?; // 10 units, 8 free
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        for frac in [10u64, 30, 55, 80, 95] {
            let budget = all * frac / 100;
            let Ok(opt) = optimize_default(&us, budget) else {
                continue;
            };
            let saved_f: f64 = us
                .iter()
                .enumerate()
                .filter(|(i, u)| opt.strategy.is_saved(*i) && !u.is_pinned())
                .map(|(_, u)| u.time_f.as_micros())
                .sum();
            let best = brute_force(&us, budget);
            assert!(
                (saved_f - best).abs() <= 1e-12 + best * 1e-9,
                "frac {frac}: dp {saved_f} vs brute {best}"
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn dp_matches_brute_force_random_units(
            sizes in proptest::collection::vec(1u64..64, 1..10),
            values in proptest::collection::vec(1u32..1000, 10),
            budget_scale in 0u64..100,
        ) {
            use adapipe_model::{ComputationUnit, UnitKind};
            let us: Vec<UnitProfile> = sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| UnitProfile {
                    unit: ComputationUnit { kind: UnitKind::FfnAct, layer: i },
                    time_f: MicroSecs::new(f64::from(values[i % values.len()])),
                    time_b: MicroSecs::new(1.0),
                    mem_saved: Bytes::new(s * 7), // common factor exercises the GCD path
                })
                .collect();
            let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
            let budget = all * budget_scale / 100;
            let opt = match optimize_default(&us, budget) {
                Ok(opt) => opt,
                Err(e) => return Err(TestCaseError::Fail(format!("optimize failed: {e}"))),
            };
            let saved_f: f64 = us
                .iter()
                .enumerate()
                .filter(|(i, _)| opt.strategy.is_saved(*i))
                .map(|(_, u)| u.time_f.as_micros())
                .sum();
            let best = brute_force(&us, budget);
            prop_assert!((saved_f - best).abs() <= 1e-9 * (1.0 + best));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Satellite audit: with adversarial (non-power-of-two) sizes and
        /// a tiny cell cap forcing several re-bucketing rounds, the
        /// rescaled DP's chosen set must still fit the *unscaled* budget
        /// in real Bytes — weights round up, capacity rounds down.
        #[test]
        fn rescaled_solution_feasible_in_unscaled_bytes(
            sizes in proptest::collection::vec(1u64..10_000, 2..24),
            budget_scale in 1u64..100,
            cells in 4usize..64,
        ) {
            use adapipe_model::{ComputationUnit, UnitKind};
            let us: Vec<UnitProfile> = sizes
                .iter()
                .enumerate()
                .map(|(i, &sz)| UnitProfile {
                    unit: ComputationUnit { kind: UnitKind::FfnAct, layer: i },
                    time_f: MicroSecs::new((i + 1) as f64),
                    time_b: MicroSecs::new(1.0),
                    // Odd multiplier keeps the GCD small so the cell cap
                    // genuinely forces re-bucketing.
                    mem_saved: Bytes::new(sz * 3 + 1),
                })
                .collect();
            let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
            let budget = all * budget_scale / 100;
            let opt = match optimize(
                &us,
                budget,
                KnapsackConfig { max_capacity_cells: cells, disable_gcd: false },
                &Recorder::disabled(),
            ) {
                Ok(opt) => opt,
                Err(e) => return Err(TestCaseError::Fail(format!("optimize failed: {e}"))),
            };
            // Feasibility in unscaled Bytes, recomputed independently of
            // the DP's own accounting.
            let chosen: Bytes = us
                .iter()
                .enumerate()
                .filter(|(i, _)| opt.strategy.is_saved(*i))
                .map(|(_, u)| u.mem_saved)
                .sum();
            prop_assert!(chosen.fits(budget), "chosen {chosen} vs budget {budget}");
            prop_assert_eq!(chosen, opt.cost.saved_bytes_per_mb);
        }
    }

    #[test]
    fn gcd_rescaling_is_exact() -> TestResult {
        // Disabling the GCD rescaling (ablation) must not change the
        // chosen value when the cell cap is not binding.
        let us = units(LayerRange::new(1, 4))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let budget = all * 60 / 100;
        let fast = optimize_default(&us, budget)?;
        let slow = optimize(
            &us,
            budget,
            KnapsackConfig {
                max_capacity_cells: 1 << 26,
                disable_gcd: true,
            },
            &Recorder::disabled(),
        )?;
        assert!((fast.cost.time_b - slow.cost.time_b).abs() < MicroSecs::new(1e-3));
        Ok(())
    }

    #[test]
    fn traced_optimize_records_dp_effort() -> TestResult {
        let rec = Recorder::new();
        let us = units(LayerRange::new(1, 8))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let opt = optimize(&us, all * 60 / 100, KnapsackConfig::default(), &rec)?;
        let baseline = optimize_default(&us, all * 60 / 100)?;
        assert_eq!(opt, baseline, "tracing must not change the result");
        let snap = rec.snapshot();
        assert_eq!(snap.counters["recompute.knapsack.calls"], 1);
        assert!(snap.counters["recompute.knapsack.cells"] > 0);
        assert!(snap.gauges["recompute.knapsack.gcd_scale"] >= 1.0);
        assert_eq!(snap.histograms["recompute.knapsack.us"].count, 1);
        Ok(())
    }

    #[test]
    fn out_of_memory_exit_is_timed_too() -> TestResult {
        let rec = Recorder::new();
        let us = units(LayerRange::new(1, 8))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        optimize(&us, all * 60 / 100, KnapsackConfig::default(), &rec)?;
        let oom = optimize(&us, Bytes::ZERO, KnapsackConfig::default(), &rec);
        assert!(
            matches!(oom, Err(StrategyError::OutOfMemory { .. })),
            "{oom:?}"
        );
        let snap = rec.snapshot();
        assert_eq!(snap.counters["recompute.knapsack.calls"], 2);
        assert_eq!(snap.histograms["recompute.knapsack.us"].count, 2);
        Ok(())
    }

    #[test]
    fn rebucketing_stays_feasible() -> TestResult {
        // Force re-bucketing with a tiny cell cap; result must respect the
        // budget even if slightly suboptimal.
        let us = units(LayerRange::new(1, 20))?;
        let all: Bytes = us.iter().map(|u| u.mem_saved).sum();
        let budget = all * 70 / 100;
        let opt = optimize(
            &us,
            budget,
            KnapsackConfig {
                max_capacity_cells: 16,
                ..Default::default()
            },
            &Recorder::disabled(),
        )?;
        assert!(opt.cost.saved_bytes_per_mb <= budget);
        // And still save strictly more than the pinned floor.
        assert!(opt.strategy.saved_count() > us.iter().filter(|u| u.is_pinned()).count());
        Ok(())
    }
}
