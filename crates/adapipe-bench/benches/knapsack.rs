//! Scaling of the §4.3 recomputation knapsack, including the §5.3 GCD
//! rescaling ablation: the same stage optimized with and without
//! dividing the memory axis by the GCD of the unit sizes.

use adapipe_hw::presets as hw;
use adapipe_model::{presets, LayerRange, ParallelConfig, TrainConfig};
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
    group.finish();
}

criterion_group!(benches, bench_knapsack);
criterion_main!(benches);
