//! Scaling of Algorithm 1 (adaptive partitioning), including the §5.3
//! isomorphism-cache ablation: the identical search with and without
//! reusing knapsack results across isomorphic layer windows.

use adapipe_hw::presets as hw;
use adapipe_memory::{MemoryModel, OptimizerSpec};
use adapipe_model::{presets, LayerRange, LayerSeq, ParallelConfig, TrainConfig};
use adapipe_obs::Recorder;
use adapipe_partition::algorithm1::{self, PartitionPlan};
use adapipe_partition::{KnapsackCostProvider, StageCostProvider, StageTimes};
use adapipe_profiler::Profiler;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// The `no_cache` arm: every query re-solves its knapsack through
/// `optimize_stage`, which never consults the class table.
struct Uncached<'a>(KnapsackCostProvider<'a>);

impl StageCostProvider for Uncached<'_> {
    fn stage_times(&self, stage: usize, range: LayerRange) -> Option<StageTimes> {
        let opt = self.0.optimize_stage(stage, range).ok()?;
        Some(StageTimes::from(&opt.cost))
    }
}

fn solve(provider: &impl StageCostProvider, layers: usize, n: usize) -> PartitionPlan {
    algorithm1::solve_traced(black_box(provider), layers, 8, n, &Recorder::disabled()).unwrap()
}

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
    let provider = || KnapsackCostProvider::new(&seq, &table, &mem, capacity);

    let mut group = c.benchmark_group("algorithm1");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("iso_cache", "gpt3_p8"), |b| {
        b.iter(|| solve(&provider(), seq.len(), n));
    });
    group.bench_function(BenchmarkId::new("no_cache", "gpt3_p8"), |b| {
        b.iter(|| solve(&Uncached(provider()), seq.len(), n));
    });
    group.finish();
}

criterion_group!(benches, bench_algorithm1);
criterion_main!(benches);
