//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. fixed-point vs floating-point probability functions in the
//!    annealer's hot path (the paper's Section 4.3 optimization);
//! 2. incremental vs full objective evaluation (the paper's
//!    "computations induced by the latest swap" optimization);
//! 3. prediction vs oracle characterization matrices (does Θ-based
//!    prediction cost allocation quality?) — reported as a bench so the
//!    quality numbers print alongside the timing.

#![expect(missing_docs, reason = "criterion_group! emits an undocumented pub fn")]

use archsim::{estimate, CoreTypeId, Platform};
use criterion::{criterion_group, criterion_main, Criterion};
use kernelsim::TaskId;
use smartbalance::fixed::{fx_exp_neg, Fx, Randi};
use smartbalance::objective::IncrementalObjective;
use smartbalance::{anneal, AnnealParams, CharacterizationMatrices, Goal, Objective};
use workloads::SyntheticGenerator;

/// Fixed- vs floating-point `e^{-x}` and `rand` (ablation 1).
fn bench_fixed_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fixed_point");
    let xs: Vec<f64> = (0..256).map(|i| i as f64 * 0.04).collect();
    group.bench_function("fx_exp_neg", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for &x in &xs {
                acc = acc.wrapping_add(fx_exp_neg(Fx::from_f64(x)).0);
            }
            acc
        })
    });
    group.bench_function("f64_exp", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &x in &xs {
                acc += (-x).exp();
            }
            acc
        })
    });
    group.bench_function("randi_xorshift", |b| {
        let mut r = Randi::new(7);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..256 {
                acc = acc.wrapping_add(r.randi());
            }
            acc
        })
    });
    group.finish();
}

fn random_matrices(n: usize, m: usize, seed: u64) -> CharacterizationMatrices {
    let mut gen = SyntheticGenerator::new(seed);
    let mut mat = CharacterizationMatrices::new(
        (0..m).map(TaskId).collect(),
        (0..n).map(CoreTypeId).collect(),
        vec![0.01; n],
    );
    for i in 0..m {
        for j in 0..n {
            mat.set(i, j, gen.range(0.1e9, 4.0e9), gen.range(0.05, 8.0), false);
        }
        mat.set_utilization(i, gen.range(0.1, 1.0));
    }
    mat
}

/// Incremental vs full objective evaluation (ablation 2).
fn bench_incremental(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_incremental_objective");
    let mat = random_matrices(16, 32, 3);
    let objective = Objective::new(&mat, Goal::EnergyEfficiency);
    let alloc: Vec<usize> = (0..32).map(|i| i % 16).collect();

    group.bench_function("delta_incremental", |b| {
        let state = IncrementalObjective::new(&objective, &alloc);
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..32 {
                acc += state.delta_for_move(i, (i + 7) % 16);
            }
            acc
        })
    });
    group.bench_function("delta_by_full_reeval", |b| {
        b.iter(|| {
            let base = objective.evaluate(&alloc);
            let mut acc = 0.0;
            let mut work = alloc.clone();
            for i in 0..32 {
                let old = work[i];
                work[i] = (i + 7) % 16;
                acc += objective.evaluate(&work) - base;
                work[i] = old;
            }
            acc
        })
    });
    group.finish();
}

/// Oracle vs predicted matrices: quality printed, cost benched
/// (ablation 3).
fn bench_oracle_vs_predicted(c: &mut Criterion) {
    let platform = Platform::quad_heterogeneous();
    let predictors = smartbalance::PredictorSet::train(&platform, 400, 11);
    let mut gen = SyntheticGenerator::new(13);
    let workloads: Vec<_> = (0..8).map(|_| gen.characteristics()).collect();

    // Oracle: exact model evaluation for every (thread, core).
    let mut oracle = CharacterizationMatrices::new(
        (0..8).map(TaskId).collect(),
        platform
            .cores()
            .map(|cid| platform.core_type(cid))
            .collect(),
        platform
            .cores()
            .map(|cid| mcpat::CorePowerModel::calibrated(platform.core_config(cid)).sleep_power_w())
            .collect(),
    );
    let mut predicted = oracle.clone();
    for (i, w) in workloads.iter().enumerate() {
        // Signature sampled on the Big core (type 1).
        let src_cfg = platform.type_config(CoreTypeId(1));
        let slice = archsim::run_slice(w, src_cfg, 10_000_000);
        let feats = smartbalance::sense::features_from_counters(&slice.counters, src_cfg.freq_hz);
        for j in 0..4 {
            let cfg = platform.core_config(archsim::CoreId(j));
            let est = estimate(w, cfg);
            let power = mcpat::CorePowerModel::calibrated(cfg).active_power_w(est.activity);
            oracle.set(i, j, est.ipc * cfg.freq_hz, power, true);
            let dst_ty = platform.core_type(archsim::CoreId(j));
            let ipc = predictors.predict_ipc(&feats, CoreTypeId(1), dst_ty);
            predicted.set(
                i,
                j,
                ipc * cfg.freq_hz,
                predictors.predict_power_w(ipc, dst_ty),
                false,
            );
        }
    }

    // Print the quality comparison once (criterion runs quiet after).
    let params = AnnealParams::scaled_for(4, 8);
    let oracle_obj = Objective::new(&oracle, Goal::EnergyEfficiency);
    let oracle_out = anneal(&oracle_obj, &[0; 8], params, 21);
    let pred_obj = Objective::new(&predicted, Goal::EnergyEfficiency);
    let pred_out = anneal(&pred_obj, &[0; 8], params, 21);
    // Score the predicted-matrix allocation under the oracle truth.
    let pred_alloc_true_value = oracle_obj.evaluate(&pred_out.allocation);
    println!(
        "[ablation] oracle allocation J={:.4}; predicted-matrix allocation J={:.4} ({:.2} % gap)",
        oracle_out.objective,
        pred_alloc_true_value,
        100.0 * (1.0 - pred_alloc_true_value / oracle_out.objective)
    );

    let mut group = c.benchmark_group("ablation_oracle_vs_predicted");
    group.bench_function("anneal_on_oracle", |b| {
        b.iter(|| anneal(&oracle_obj, &[0; 8], params, 21))
    });
    group.bench_function("anneal_on_predicted", |b| {
        b.iter(|| anneal(&pred_obj, &[0; 8], params, 21))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fixed_point,
    bench_incremental,
    bench_oracle_vs_predicted
);
criterion_main!(benches);
