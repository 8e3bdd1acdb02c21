//! Running the search on *measured* profiles instead of the analytical
//! model — the path a user with real hardware takes (§4.2: AdaPipe
//! profiles 5–10 iterations and feeds the timestamps to the DP).
//!
//! Here the "measurements" are the analytical numbers perturbed the way
//! a real profiler would observe them (jitter, coarse timer
//! granularity), rebuilt into a `ProfileTable` through the public
//! measurement-import API, and pushed through the same knapsack +
//! Algorithm 1 pipeline.
//!
//! ```bash
//! cargo run --release --example measured_profiles
//! ```

use adapipe_hw::presets as hw;
use adapipe_memory::{MemoryModel, OptimizerSpec};
use adapipe_model::{presets, LayerSeq, ParallelConfig, TrainConfig};
use adapipe_obs::Recorder;
use adapipe_partition::{algorithm1, KnapsackCostProvider};
use adapipe_profiler::{ProfileTable, Profiler, UnitProfile};
use adapipe_units::{Bytes, MicroSecs};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = presets::gpt3_175b();
    let parallel = ParallelConfig::new(8, 8, 1)?;
    let train = TrainConfig::new(1, 16384, 32)?;
    let seq = LayerSeq::for_model(&model);

    // Pretend these came from timestamping a real run: quantize to 10 µs
    // timer ticks and add a deterministic per-unit bias.
    let analytic = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
    let quantize = |t: MicroSecs, salt: usize| {
        let jitter = 1.0 + 0.01 * ((salt % 7) as f64 - 3.0) / 3.0;
        MicroSecs::new(((t * jitter).as_micros() / 10.0).round() * 10.0)
    };
    let per_layer: Vec<Vec<UnitProfile>> = (0..analytic.num_layers())
        .map(|l| {
            analytic
                .layer_units(l)
                .iter()
                .enumerate()
                .map(|(i, u)| UnitProfile {
                    time_f: quantize(u.time_f, l + i),
                    time_b: quantize(u.time_b, l + i + 1),
                    ..*u
                })
                .collect()
        })
        .collect();
    let measured = ProfileTable::from_measurements(per_layer, analytic.boundary_bytes())?;

    // The identical downstream pipeline, fed measurements.
    let mem = MemoryModel::new(model.clone(), parallel, OptimizerSpec::adam_fp32());
    let capacity = Bytes::new((hw::a100_80gb().usable_bytes().as_f64() * 0.875) as u64);
    let provider = KnapsackCostProvider::new(&seq, &measured, &mem, capacity);
    let (p, off) = (parallel.pipeline(), Recorder::disabled());
    let plan =
        algorithm1::solve_traced(&provider, seq.len(), p, 32, &off).ok_or("no feasible plan")?;

    println!("plan from measured profiles (GPT-3, seq 16384, (8,8,1)):");
    for (s, (range, times)) in plan.ranges.iter().zip(&plan.stage_times).enumerate() {
        println!(
            "  stage {s}: layers {range} — F {:.0} ms, B {:.0} ms",
            times.f * 1e3,
            times.b * 1e3
        );
    }
    println!("predicted iteration: {}", plan.breakdown);

    // Sanity: the measured-profile plan should be close to the
    // analytic-profile plan (the jitter is ~1 %).
    let reference = KnapsackCostProvider::new(&seq, &analytic, &mem, capacity);
    let ref_plan =
        algorithm1::solve_traced(&reference, seq.len(), p, 32, &off).ok_or("no reference plan")?;
    let rel = (plan.iteration_time() - ref_plan.iteration_time()).abs() / ref_plan.iteration_time();
    println!(
        "vs analytic-profile plan: {:.3}s ({:+.2}%)",
        ref_plan.iteration_time(),
        100.0 * rel
    );
    assert!(rel < 0.05, "measured-profile plan drifted {rel}");
    Ok(())
}
