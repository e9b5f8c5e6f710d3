//! End-to-end integration tests: the full sense → predict → balance
//! pipeline running on the kernel simulator over real workloads,
//! checking the paper's headline directional claims.

use archsim::Platform;
use smartbalance::{compare_policies, ExperimentSpec, Policy};

/// A heterogeneous Table 3-style mix at a given scale.
fn mixed_spec(platform: Platform, scale: f64, threads: usize) -> ExperimentSpec {
    let mut profiles = Vec::new();
    for name in ["blackscholes", "canneal", "bodytrack", "streamcluster"] {
        let bench = workloads::parsec::by_name(name).expect("benchmark");
        profiles.extend(ExperimentSpec::parallelize(&bench.scaled(scale), threads));
    }
    ExperimentSpec::new("e2e", platform, profiles)
}

#[test]
fn smartbalance_beats_vanilla_on_heterogeneous_mix() {
    // The Fig. 4 headline: SmartBalance improves measured energy
    // efficiency over the vanilla balancer on the 4-type platform.
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.3, 2);
    let results = compare_policies(&spec, &[Policy::Vanilla, Policy::Smart]);
    assert!(results.iter().all(|r| r.completed), "both runs finish");
    let ratio = results[1].efficiency_vs(&results[0]);
    assert!(
        ratio > 1.10,
        "SmartBalance should clearly beat vanilla, got {ratio:.3}"
    );
}

#[test]
fn smartbalance_beats_gts_on_big_little() {
    // The Fig. 5 headline on the octa-core big.LITTLE platform.
    let spec = mixed_spec(Platform::octa_big_little(), 0.3, 2);
    let results = compare_policies(&spec, &[Policy::Gts, Policy::Smart]);
    assert!(results.iter().all(|r| r.completed));
    let ratio = results[1].efficiency_vs(&results[0]);
    assert!(ratio > 1.05, "SmartBalance should beat GTS, got {ratio:.3}");
}

#[test]
fn all_work_is_conserved_across_policies() {
    // Every policy must commit the same total instructions — balancing
    // may change *where* and *when*, never *how much*.
    // Note: GTS is excluded — it (correctly) refuses the 4-type
    // platform; its conservation is covered by the big.LITTLE tests.
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.1, 2);
    let results = compare_policies(&spec, &[Policy::None, Policy::Vanilla, Policy::Smart]);
    let baseline = results[0].stats.total_instructions as f64;
    for r in &results[1..] {
        let diff = (r.stats.total_instructions as f64 - baseline).abs() / baseline;
        assert!(
            diff < 0.01,
            "{} committed {} vs {} instructions",
            r.policy,
            r.stats.total_instructions,
            baseline
        );
    }
}

#[test]
fn full_runs_are_deterministic() {
    let run = || {
        let spec = mixed_spec(Platform::quad_heterogeneous(), 0.1, 2);
        let results = compare_policies(&spec, &[Policy::Smart]);
        (
            results[0].stats.total_instructions,
            results[0].stats.total_energy_j.to_bits(),
            results[0].stats.migrations,
        )
    };
    assert_eq!(run(), run(), "simulation + balancing must be reproducible");
}

#[test]
fn energy_accounting_is_consistent() {
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.1, 4);
    let results = compare_policies(&spec, &[Policy::Smart]);
    let stats = &results[0].stats;
    let per_core_sum: f64 = stats.per_core.iter().map(|c| c.energy_j).sum();
    assert!((per_core_sum - stats.total_energy_j).abs() < 1e-9);
    let per_core_instr: u64 = stats.per_core.iter().map(|c| c.instructions).sum();
    assert_eq!(per_core_instr, stats.total_instructions);
    // Busy + sleep accounts for the whole run on every core.
    for c in &stats.per_core {
        assert_eq!(c.busy_ns + c.sleep_ns, stats.elapsed_ns);
    }
}

#[test]
fn throughput_goal_finishes_faster_than_energy_goal() {
    use smartbalance::{run_experiment_with, Goal, RunOptions, SmartBalance, SmartBalanceConfig};
    let spec = mixed_spec(Platform::quad_heterogeneous(), 0.2, 2);
    let mut results = Vec::new();
    for goal in [Goal::Throughput, Goal::EnergyEfficiency] {
        let cfg = SmartBalanceConfig {
            goal,
            ..SmartBalanceConfig::default()
        };
        let mut policy = SmartBalance::with_config(&spec.platform, cfg);
        results.push(run_experiment_with(&spec, &mut policy, RunOptions::new()).result);
    }
    assert!(
        results[0].stats.elapsed_ns <= results[1].stats.elapsed_ns,
        "throughput goal must not be slower: {} vs {}",
        results[0].stats.elapsed_ns,
        results[1].stats.elapsed_ns
    );
    assert!(
        results[1].energy_efficiency() >= results[0].energy_efficiency(),
        "energy goal must not be less efficient"
    );
}

#[test]
fn predicted_matrices_cost_under_two_percent_allocation_quality() {
    // Ablation: does Θ-based prediction cost allocation quality? Anneal
    // once on S/P matrices predicted from a Big-core signature and once
    // on the ground-truth model matrices, then score both allocations
    // under ground truth.
    use archsim::{estimate, CoreId, CoreTypeId};
    use kernelsim::TaskId;
    use mcpat::CorePowerModel;
    use smartbalance::sense::features_from_counters;
    use smartbalance::{anneal, AnnealParams, CharacterizationMatrices, Goal, Objective};

    let platform = Platform::quad_heterogeneous();
    let predictors = smartbalance::PredictorSet::train(&platform, 400, 11);
    let mut gen = workloads::SyntheticGenerator::new(13);
    let threads: Vec<_> = (0..8).map(|_| gen.characteristics()).collect();
    let mut oracle = CharacterizationMatrices::new(
        (0..threads.len()).map(TaskId).collect(),
        platform.cores().map(|c| platform.core_type(c)).collect(),
        platform
            .cores()
            .map(|c| CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
            .collect(),
    );
    let mut predicted = oracle.clone();
    let src_ty = CoreTypeId(1);
    let src_cfg = platform.type_config(src_ty);
    for (i, w) in threads.iter().enumerate() {
        let slice = archsim::run_slice(w, src_cfg, 10_000_000);
        let feats = features_from_counters(&slice.counters, src_cfg.freq_hz);
        for j in 0..platform.num_cores() {
            let cfg = platform.core_config(CoreId(j));
            let est = estimate(w, cfg);
            let power = CorePowerModel::calibrated(cfg).active_power_w(est.activity);
            oracle.set(i, j, est.ipc * cfg.freq_hz, power, true);
            let dst_ty = platform.core_type(CoreId(j));
            let ipc = predictors.predict_ipc(&feats, src_ty, dst_ty);
            let power = predictors.predict_power_w(ipc, dst_ty);
            predicted.set(i, j, ipc * cfg.freq_hz, power, false);
        }
    }

    let params = AnnealParams::scaled_for(4, 8);
    let truth = Objective::new(&oracle, Goal::EnergyEfficiency);
    let best = anneal(&truth, &[0; 8], params, 21).objective;
    let guided = anneal(
        &Objective::new(&predicted, Goal::EnergyEfficiency),
        &[0; 8],
        params,
        21,
    );
    let gap = 1.0 - truth.evaluate(&guided.allocation) / best;
    assert!(
        gap < 0.02,
        "predicted-matrix allocation is {:.2} % below the oracle's",
        100.0 * gap
    );
}
