//! Throughput of the discrete-event schedule simulator across schedule
//! families and pipeline scales.

use adapipe_obs::Recorder;
use adapipe_sim::{schedule, simulate, StageExec};
use adapipe_units::{Bytes, MicroSecs};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn stages(p: usize) -> Vec<StageExec> {
    (0..p)
        .map(|s| StageExec {
            time_f: MicroSecs::new(1.0 + 0.01 * s as f64),
            time_b: MicroSecs::new(2.0 + 0.02 * s as f64),
            saved_bytes: Bytes::new(1 << 30),
            buffer_bytes: Bytes::new(1 << 28),
        })
        .collect()
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    for (p, n) in [(8usize, 64usize), (16, 128), (32, 256)] {
        let st = stages(p);
        group.bench_with_input(
            BenchmarkId::new("1f1b", format!("p{p}_n{n}")),
            &st,
            |b, st| {
                b.iter(|| {
                    simulate(
                        black_box(&schedule::one_f_one_b(st, n, MicroSecs::new(1e-4))),
                        &Recorder::disabled(),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gpipe", format!("p{p}_n{n}")),
            &st,
            |b, st| {
                b.iter(|| {
                    simulate(
                        black_box(&schedule::gpipe(st, n, MicroSecs::new(1e-4))),
                        &Recorder::disabled(),
                    )
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("chimera", format!("p{p}_n{n}")),
            &st,
            |b, st| {
                b.iter(|| {
                    simulate(
                        black_box(&schedule::chimera(st, n, MicroSecs::new(1e-4), false)),
                        &Recorder::disabled(),
                    )
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
