//! Criterion bench behind Fig. 7(a): the cost of each SmartBalance
//! phase on the quad-core platform with 8 threads, measured on real
//! epoch reports produced by the kernel simulator.

#![expect(missing_docs, reason = "criterion_group! emits an undocumented pub fn")]

use archsim::Platform;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kernelsim::{NullBalancer, System, SystemConfig};
use smartbalance::{
    anneal, build_matrices, ipc_rows, AnnealParams, Goal, Objective, PredictorSet, Sensor,
};
use workloads::SyntheticGenerator;

fn epoch_report(platform: &Platform, threads: usize) -> kernelsim::EpochReport {
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    let mut gen = SyntheticGenerator::new(7);
    for i in 0..threads {
        sys.spawn(gen.profile(format!("t{i}"), 3, u64::MAX / 2, i % 3 == 0));
    }
    let mut nb = NullBalancer;
    sys.run_epoch(&mut nb)
}

fn bench_phases(c: &mut Criterion) {
    let platform = Platform::quad_heterogeneous();
    let report = epoch_report(&platform, 8);
    let predictors = PredictorSet::train(&platform, 400, 1);

    let mut group = c.benchmark_group("fig7a_phases");

    group.bench_function("sense", |b| {
        b.iter_batched(
            || Sensor::new(100_000),
            |mut sensor| sensor.sense(&platform, &report),
            BatchSize::SmallInput,
        )
    });

    let mut sensor = Sensor::new(100_000);
    let senses = sensor.sense(&platform, &report);
    group.bench_function("predict_build_matrices", |b| {
        b.iter(|| {
            let rows = ipc_rows(&platform, &senses, &predictors);
            build_matrices(&platform, &senses, &rows, &predictors)
        })
    });

    let rows = ipc_rows(&platform, &senses, &predictors);
    let matrices = build_matrices(&platform, &senses, &rows, &predictors);
    let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
    group.bench_function("optimize_anneal", |b| {
        let objective = Objective::new(&matrices, Goal::EnergyEfficiency);
        let params = AnnealParams::scaled_for(4, senses.len());
        b.iter(|| anneal(&objective, &initial, params, 42))
    });

    group.bench_function("offline_train_predictors", |b| {
        b.iter(|| PredictorSet::train(&platform, 100, 2))
    });

    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
