//! Criterion bench behind Fig. 7(b): optimizer runtime as the platform
//! scales from 2 to 128 cores (threads = 2× cores), using the
//! Fig. 8(a) iteration budgets.

#![expect(missing_docs, reason = "criterion_group! emits an undocumented pub fn")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smartbalance::{anneal, known_optimum_case, AnnealParams, Goal, Objective};

fn bench_scalability(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7b_scalability");
    for &cores in &[2usize, 4, 8, 16, 32, 64, 128] {
        let threads = cores * 2;
        let case = known_optimum_case(cores, 2, cores as u64);
        let params = AnnealParams::scaled_for(cores, threads);
        let initial = vec![0usize; threads];
        group.bench_with_input(
            BenchmarkId::new("anneal", format!("{cores}c_{threads}t")),
            &cores,
            |b, _| {
                let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
                b.iter(|| anneal(&objective, &initial, params, 9))
            },
        );
    }
    group.finish();
}

fn bench_exhaustive_vs_anneal(c: &mut Criterion) {
    // Context for the SA choice: exact enumeration explodes even at
    // toy sizes while the annealer stays bounded.
    let mut group = c.benchmark_group("optimal_vs_anneal");
    let case = known_optimum_case(3, 2, 5); // 3^6 = 729 allocations
    group.bench_function("exhaustive_3c_6t", |b| {
        let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
        b.iter(|| smartbalance::exhaustive_best(&objective).expect("small"))
    });
    group.bench_function("anneal_3c_6t", |b| {
        let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
        let params = AnnealParams::scaled_for(3, 6);
        b.iter(|| anneal(&objective, &[0; 6], params, 9))
    });
    group.finish();
}

criterion_group!(benches, bench_scalability, bench_exhaustive_vs_anneal);
criterion_main!(benches);
