//! Integration tests for the parallel experiment-suite engine: the
//! parallel fan-out must be an *observationally invisible* optimization
//! — bit-identical to running the same jobs serially — while still
//! delivering a real wall-clock speedup on multicore hosts.

use archsim::Platform;
use smartbalance::{
    run_experiment_with, ExperimentSpec, ExperimentSuite, Policy, RunOptions, SmartBalanceConfig,
};
use workloads::{ImbConfig, Level};

/// A small but non-trivial spec: two IMB profiles on the big.LITTLE
/// platform (the one every policy, including GTS and IKS, supports).
fn spec(name: &str, scale: f64) -> ExperimentSpec {
    let profiles = vec![
        ImbConfig::new(Level::High, Level::Low)
            .profile()
            .scaled(scale),
        ImbConfig::new(Level::Medium, Level::Low)
            .profile()
            .scaled(scale),
    ];
    ExperimentSpec::new(name, Platform::octa_big_little(), profiles)
}

/// Job scale of the suite the determinism checks run: small, so the
/// checks are quick.
const SCALE: f64 = 0.08;

/// Job scale of the suite the speedup gate times: large enough that
/// each job's epoch loop, not its set-up, takes the wall time.
const TIMED_SCALE: f64 = 4.0;

/// Eight-plus jobs mixing policies, experiments and a pinned config —
/// the workload the acceptance criteria are checked against.
fn build_suite(workers: usize, scale: f64) -> ExperimentSuite {
    let mut suite = ExperimentSuite::new().with_workers(workers);
    for (i, policy) in [Policy::Vanilla, Policy::Gts, Policy::Iks, Policy::Smart]
        .into_iter()
        .enumerate()
    {
        suite.push(spec(&format!("w{i}"), scale), policy);
    }
    for i in 0..3 {
        suite.push(spec(&format!("w{i}"), scale), Policy::Smart);
    }
    // One job whose config pins its own annealer seed.
    let pinned = spec("pinned", scale).with_policy_config(SmartBalanceConfig {
        anneal_seed: Some(42),
        ..SmartBalanceConfig::default()
    });
    suite.push(pinned, Policy::Smart);
    suite
}

/// Serializes every job result; equality of these strings is
/// bit-equality of every f64 in them (Rust's float `Display` is
/// shortest-roundtrip, so distinct bits print distinctly).
fn fingerprint(report: &smartbalance::SuiteReport) -> Vec<String> {
    report
        .jobs
        .iter()
        .map(|j| serde_json::to_string(&j.result).expect("serialize"))
        .collect()
}

#[test]
fn parallel_suite_matches_serial_run_experiment() {
    let suite = build_suite(4, SCALE);
    assert!(suite.jobs().len() >= 8, "acceptance: at least 8 jobs");
    let report = suite.run();

    // Re-run every job serially through the plain runner entry point,
    // building the balancer exactly as the suite did.
    for (parallel, job) in report.jobs.iter().zip(suite.jobs()) {
        let mut balancer = job.build_balancer();
        let serial = run_experiment_with(&job.spec, balancer.as_mut(), RunOptions::new()).result;
        assert_eq!(
            serde_json::to_string(&serial).expect("serialize"),
            serde_json::to_string(&parallel.result).expect("serialize"),
            "job {} ({:?}) diverged from its serial rerun",
            parallel.job_index,
            parallel.policy,
        );
    }
}

#[test]
fn rerunning_the_suite_is_bit_identical_and_faster_in_parallel() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let serial_report = build_suite(1, SCALE).run();
    let parallel_report = build_suite(cores, SCALE).run();

    // Determinism: same jobs, different worker counts and scheduling
    // orders, bit-identical measurements.
    assert_eq!(fingerprint(&serial_report), fingerprint(&parallel_report));

    // And a third run with an odd pool size for good measure.
    assert_eq!(
        fingerprint(&serial_report),
        fingerprint(&build_suite(3, SCALE).run())
    );

    // Speedup: on a multicore host an 8-job fan-out must beat the
    // one-worker run on wall-clock. The jobs above simulate too little
    // to time (their wall time is thread start-up), so the gate times
    // longer runs of the same jobs, whose epoch loop dominates; the
    // runs above already trained the predictors these jobs share.
    if cores >= 2 {
        let serial = build_suite(1, TIMED_SCALE).run();
        let parallel = build_suite(cores, TIMED_SCALE).run();
        assert_eq!(fingerprint(&serial), fingerprint(&parallel));
        assert!(
            parallel.wall_s < serial.wall_s,
            "no speedup: {} workers took {:.3}s vs {:.3}s serial",
            cores,
            parallel.wall_s,
            serial.wall_s,
        );
        assert!(parallel.speedup() > 1.0);
    }
    assert!(serial_report.throughput_jobs_per_s() > 0.0);
}

#[test]
fn identical_runs_produce_byte_identical_canonical_reports() {
    // The smartlint D1 rule exists to protect exactly this guarantee:
    // no HashMap iteration order may leak into results. Two fresh runs
    // of the same suite must serialize — wall-clock fields aside — to
    // the same bytes, whole report included (job order, gains, traces).
    let first = build_suite(2, SCALE).run().canonicalized();
    let second = build_suite(4, SCALE).run().canonicalized();
    assert_eq!(
        serde_json::to_string(&first).expect("serialize"),
        serde_json::to_string(&second).expect("serialize"),
        "canonicalized SuiteReport JSON differs between identical runs"
    );
}

#[test]
#[allow(clippy::float_cmp)] // the roundtrip must preserve the exact bits
fn suite_report_round_trips_through_json() {
    let mut suite = ExperimentSuite::new().with_workers(2);
    suite.push(spec("w0", 0.01), Policy::Vanilla);
    suite.push(spec("w0", 0.01), Policy::Smart);
    let report = suite.run();

    let json = serde_json::to_string(&report).expect("serialize report");
    let back: smartbalance::SuiteReport = serde_json::from_str(&json).expect("deserialize report");
    assert_eq!(fingerprint(&report), fingerprint(&back));
    assert_eq!(back.workers, report.workers);
    assert_eq!(
        back.gains_vs(Policy::Vanilla)[0].gain,
        report.gains_vs(Policy::Vanilla)[0].gain,
    );
}
