//! Benches of the simulation substrate itself: epoch cost of the
//! kernel simulator under the three policies, and the archsim slice
//! model. These bound how much evaluation the harness can afford and
//! document the substrate's own overhead (not a paper figure).

#![expect(missing_docs, reason = "criterion_group! emits an undocumented pub fn")]

use archsim::{run_slice, CoreConfig, Platform, WorkloadCharacteristics};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kernelsim::{LoadBalancer, System, SystemConfig};
use smartbalance::Policy;
use workloads::SyntheticGenerator;

fn loaded_system(platform: &Platform, threads: usize) -> System {
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    let mut gen = SyntheticGenerator::new(17);
    for i in 0..threads {
        sys.spawn(gen.profile(format!("t{i}"), 3, u64::MAX / 2, i % 2 == 0));
    }
    sys
}

fn bench_epoch(c: &mut Criterion) {
    let platform = Platform::quad_heterogeneous();
    let mut group = c.benchmark_group("kernelsim_epoch");
    for policy in [Policy::None, Policy::Vanilla, Policy::Smart] {
        group.bench_with_input(
            BenchmarkId::new("epoch", format!("{policy:?}")),
            &policy,
            |b, &p| {
                let mut balancer: Box<dyn LoadBalancer> = p.build(&platform, None);
                let mut sys = loaded_system(&platform, 8);
                b.iter(|| sys.run_epoch(balancer.as_mut()))
            },
        );
    }
    group.finish();
}

fn bench_slice_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("archsim_slice");
    let w = WorkloadCharacteristics::balanced();
    for core in [CoreConfig::huge(), CoreConfig::small()] {
        group.bench_with_input(
            BenchmarkId::new("run_slice_1ms", &core.name),
            &core,
            |b, cfg| b.iter(|| run_slice(&w, cfg, 1_000_000)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_epoch, bench_slice_model);
criterion_main!(benches);
