//! Parallel-strategy search (the §7.3 protocol): iterate every legal
//! `(tensor, pipeline, data)` split of a device budget and let the
//! planner pick the fastest memory-feasible combination.
//!
//! ```bash
//! cargo run --release --example strategy_search
//! ```

use adapipe::{best_outcome, sweep_parallel_strategies, Method, Planner};
use adapipe_hw::presets as hw;
use adapipe_model::{presets, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let planner = Planner::new(presets::llama2_70b(), hw::cluster_a_with_nodes(4));
    let train = TrainConfig::new(1, 8192, 64)?;
    let devices = 32;

    println!(
        "sweeping (t, p, d) strategies for {} on {devices} GPUs, seq 8192:\n",
        planner.model().name()
    );
    let outcomes = sweep_parallel_strategies(&planner, Method::AdaPipe, devices, train, 8, 2);
    for o in &outcomes {
        println!("  {o}");
    }
    let best = best_outcome(&outcomes).ok_or("no feasible strategy")?;
    println!(
        "\nbest: {} at {:.3} s — smaller TP boosts math efficiency until memory \
         or bubbles push back (§7.3 of the paper).",
        best.parallel,
        best.time().expect("best is feasible").as_secs()
    );
    Ok(())
}
