//! Scaling of Algorithm 1 (adaptive partitioning), including the §5.3
//! isomorphism-cache ablation: the identical search with and without
//! reusing knapsack results across isomorphic layer windows.

use adapipe_hw::presets as hw;
use adapipe_memory::{MemoryModel, OptimizerSpec};
use adapipe_model::{presets, LayerSeq, ParallelConfig, TrainConfig};
use adapipe_obs::Recorder;
use adapipe_partition::{algorithm1, KnapsackCostProvider};
use adapipe_profiler::Profiler;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_algorithm1(c: &mut Criterion) {
    let model = presets::gpt3_175b();
    let parallel = ParallelConfig::new(8, 8, 1).unwrap();
    let train = TrainConfig::new(1, 4096, 128).unwrap();
    let table = Profiler::new(hw::cluster_a()).profile(&model, &parallel, &train);
    let seq = LayerSeq::for_model(&model);
    let mem = MemoryModel::new(model, parallel, OptimizerSpec::adam_fp32());
    let capacity =
        adapipe_units::Bytes::new((hw::a100_80gb().usable_bytes().as_f64() * 0.875) as u64);
    let n = train.micro_batches(&parallel);

    let mut group = c.benchmark_group("algorithm1");
    group.sample_size(10);
    for iso_cache in [true, false] {
        let label = if iso_cache { "iso_cache" } else { "no_cache" };
        group.bench_function(BenchmarkId::new(label, "gpt3_p8"), |b| {
            b.iter(|| {
                let provider = KnapsackCostProvider::new(&seq, &table, &mem, capacity)
                    .with_isomorphism_cache(iso_cache);
                algorithm1::solve_traced(
                    black_box(&provider),
                    seq.len(),
                    8,
                    n,
                    &Recorder::disabled(),
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithm1);
criterion_main!(benches);
