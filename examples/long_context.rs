//! Long-context motivation (§1 of the paper): as the sequence length
//! grows, no-recomputation plans run out of memory, full recomputation
//! wastes compute, and AdaPipe adapts per stage — finding plans between
//! the two extremes.
//!
//! ```bash
//! cargo run --release --example long_context
//! ```

use adapipe::{Method, PlanError, Planner};
use adapipe_hw::presets as hw;
use adapipe_model::{presets, ParallelConfig, TrainConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let planner = Planner::new(presets::gpt3_175b(), hw::cluster_a());
    let parallel = ParallelConfig::new(8, 8, 1)?;

    println!("GPT-3 on 64 A100s, (t, p, d) = (8, 8, 1); scaling context:\n");
    println!(
        "{:>7} {:>14} {:>14} {:>14}  AdaPipe saved units per stage",
        "seq", "DAPPLE-Full", "DAPPLE-Non", "AdaPipe"
    );
    for (seq, gbs) in [
        (2048usize, 256usize),
        (4096, 128),
        (8192, 64),
        (16384, 32),
        (32768, 16),
    ] {
        let train = TrainConfig::new(1, seq, gbs)?;
        let cell = |method| -> String {
            match planner.plan(method, parallel, train) {
                Ok(plan) => {
                    let eval = planner.evaluate(&plan);
                    if eval.fits {
                        format!("{:.1} s", eval.iteration_time.as_secs())
                    } else {
                        "OOM".into()
                    }
                }
                Err(PlanError::OutOfMemory { .. }) => "OOM".into(),
                Err(e) => format!("{e}"),
            }
        };
        let saved = planner
            .plan(Method::AdaPipe, parallel, train)
            .map(|p| format!("{:?}", p.saved_units_per_stage()))
            .unwrap_or_else(|_| "-".into());
        println!(
            "{seq:>7} {:>14} {:>14} {:>14}  {saved}",
            cell(Method::DappleFull),
            cell(Method::DappleNone),
            cell(Method::AdaPipe),
        );
    }
    println!(
        "\nNote how the per-stage saved-unit counts sink toward the full-recompute \
         floor as the context grows — earlier stages first, exactly the imbalance \
         Figure 1 of the paper motivates."
    );
    Ok(())
}
