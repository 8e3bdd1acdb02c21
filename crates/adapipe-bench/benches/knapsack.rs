//! Scaling of the §4.3 recomputation knapsack, including the §5.3 GCD
//! rescaling ablation: the same stage optimized with and without
//! dividing the memory axis by the GCD of the unit sizes, plus the
//! largest leaf DP of the paper-scale grid.

use adapipe_hw::presets as hw;
use adapipe_memory::{MemoryModel, OptimizerSpec};
use adapipe_model::{presets, LayerRange, LayerSeq, ParallelConfig, TrainConfig};
use adapipe_obs::Recorder;
use adapipe_profiler::Profiler;
use adapipe_recompute::{optimize, KnapsackConfig};
use adapipe_units::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_knapsack(c: &mut Criterion) {
    let model = presets::gpt3_175b();
    let parallel = ParallelConfig::new(8, 8, 1).unwrap();
    let train = TrainConfig::new(1, 4096, 128).unwrap();
    let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);

    let mut group = c.benchmark_group("knapsack");
    for layers in [12usize, 24, 48] {
        let units = table.units_in(LayerRange::new(1, layers));
        let all: Bytes = units.iter().map(|u| u.mem_saved).sum();
        let budget = all * 60 / 100;
        group.bench_with_input(
            BenchmarkId::new("gcd_rescaled", layers),
            &units,
            |b, units| {
                b.iter(|| {
                    optimize(
                        black_box(units),
                        black_box(budget),
                        KnapsackConfig::default(),
                        &Recorder::disabled(),
                    )
                    .unwrap()
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("no_gcd", layers), &units, |b, units| {
            b.iter(|| {
                optimize(
                    black_box(units),
                    black_box(budget),
                    KnapsackConfig {
                        disable_gcd: true,
                        ..Default::default()
                    },
                    &Recorder::disabled(),
                )
                .unwrap()
            });
        });
    }
    bench_paper_leaf(&mut group);
    group.finish();
}

/// The largest leaf DP of the paper-scale grid: Llama 2 70B at
/// (t, p, d) = (4, 8, 1), seq 4096, global batch 32, search headroom
/// 0.875, half-layers 1..=37 at stage 6's budget — ~167 free units on a
/// ~16.6k-cell memory axis after the §5.3 GCD rescaling.
fn bench_paper_leaf(group: &mut criterion::BenchmarkGroup<'_>) {
    let model = presets::llama2_70b();
    let parallel = ParallelConfig::new(4, 8, 1).unwrap();
    let train = TrainConfig::new(1, 4096, 32).unwrap();
    let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
    let seq = LayerSeq::for_model(&model);
    let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
    let capacity = Bytes::new((hw::a100_80gb().usable_bytes().as_f64() * 0.875) as u64);
    let range = LayerRange::new(1, 37);
    let budget = mem
        .activation_budget(&table, &seq, range, 6, capacity)
        .unwrap();
    let units = table.units_in(range);
    group.sample_size(100);
    group.bench_with_input(
        BenchmarkId::new("paper_leaf", "llama2_s4096"),
        &units,
        |b, units| {
            b.iter(|| {
                optimize(
                    black_box(units),
                    black_box(budget),
                    KnapsackConfig::default(),
                    &Recorder::disabled(),
                )
                .unwrap()
            });
        },
    );
}

criterion_group!(benches, bench_knapsack);
criterion_main!(benches);
