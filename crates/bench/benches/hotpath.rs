//! Criterion bench of the epoch hot loop: full `run_epoch` throughput
//! with the memoized estimate engine on vs off. The delta between the
//! two functions is exactly the cost the [`archsim::EstimateCache`]
//! removes from slice dispatch (five transcendental `powf` curves per
//! slice); the `uncached` function doubles as a regression canary for
//! the rest of the scheduling loop (wake heap, phase cursors).

#![expect(missing_docs, reason = "criterion_group! emits an undocumented pub fn")]

use archsim::Platform;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use kernelsim::{NullBalancer, System, SystemConfig};
use workloads::SyntheticGenerator;

/// Tasks in flight — enough to keep every core's runqueue deep.
const TASKS: usize = 12;
/// Epochs simulated per measured iteration.
const EPOCHS: u64 = 10;

/// Builds the benchmark system: quad heterogeneous platform, a mix of
/// multi-phase batch and interactive tasks, and the requested caching
/// mode. The seed matches the `perfstat` binary so numbers line up.
fn fresh_system(cached: bool) -> System {
    let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
    sys.set_estimate_caching(cached);
    let mut gen = SyntheticGenerator::new(0xB007);
    for i in 0..TASKS {
        sys.spawn(gen.profile(format!("t{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }
    sys
}

fn run_epochs(mut sys: System) -> System {
    let mut nb = NullBalancer;
    for _ in 0..EPOCHS {
        sys.run_epoch(&mut nb);
    }
    sys
}

fn bench_hotpath(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_epochs");

    group.bench_function("cached", |b| {
        b.iter_batched(|| fresh_system(true), run_epochs, BatchSize::SmallInput)
    });

    group.bench_function("uncached", |b| {
        b.iter_batched(|| fresh_system(false), run_epochs, BatchSize::SmallInput)
    });

    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
