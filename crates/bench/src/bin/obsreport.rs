//! `obsreport` — controller-health observability report for the closed
//! loop.
//!
//! Runs the reference SmartBalance scenario with the telemetry hub
//! attached and emits the full observability bundle:
//!
//! * `BENCH_obs.json` — controller-health metrics CI tracks as a
//!   trajectory (mean |prediction error|, anneal convergence rate,
//!   degrade-epoch fraction, migration churn) plus an observed
//!   experiment-suite grid. Every field is simulation-deterministic:
//!   reruns with the same seeds produce byte-identical JSON.
//! * `obs_epochs.jsonl` — one `EpochObs` span per line.
//! * `obs_trace.json` — Chrome `trace_events` JSON (epoch spans +
//!   scheduler events), loadable in Perfetto / `chrome://tracing`.
//! * `obs_metrics.prom` — Prometheus text snapshot of the registry.
//!
//! Telemetry overhead on the perfstat reference scenario is measured
//! and printed to stdout only (wall-clock never lands in the JSON).
//!
//! Flags:
//!
//! * `--smoke` — CI-sized run (60 epochs, 8 tasks, small suite).
//! * `--json <path>` / `--jsonl <path>` / `--trace <path>` /
//!   `--prom <path>` — output path overrides.

use std::time::Instant;

use archsim::Platform;
use kernelsim::{LoadBalancer, NullBalancer, System, SystemConfig, TraceLevel};
use serde::Serialize;
use smartbalance::{ExperimentSpec, ExperimentSuite, ObsSummary, Policy, SmartBalance};
use smartbalance_bench::flag_value;
use telemetry::StageProfile;
use workloads::SyntheticGenerator;

/// Seed for the reference scenario's synthetic workload generator.
const SEED: u64 = 0x0B5E;

/// One observed suite job's controller-health row.
#[derive(Debug, Clone, Serialize)]
struct SuiteObsRow {
    /// Experiment label.
    experiment: String,
    /// Policy name the job ran under.
    policy: String,
    /// Epochs the job executed.
    epochs: u64,
    /// The job's aggregated telemetry summary.
    summary: ObsSummary,
}

/// The full `BENCH_obs.json` document. Deliberately contains no
/// wall-clock fields: the whole report is a pure function of the seeds.
#[derive(Debug, Clone, Serialize)]
struct ObsReport {
    /// Report schema version. v2 adds the rebalance stage profile.
    schema: u32,
    /// `true` when produced by a `--smoke` run.
    smoke: bool,
    /// Epochs in the reference scenario.
    epochs: u64,
    /// Tasks in the reference scenario.
    tasks: usize,
    /// Scheduler-trace verbosity the scenario ran with.
    trace_level: String,
    /// Controller-health summary of the reference scenario.
    summary: ObsSummary,
    /// Scheduler events retained in the trace ring.
    trace_events: usize,
    /// Scheduler events overwritten once the ring filled.
    trace_dropped: u64,
    /// Per-stage rebalance pipeline profile (sense → predict → anneal
    /// → exchange → apply), in canonical stage order. Deterministic
    /// invocation/work counters only — never wall-clock.
    stages: Vec<StageProfile>,
    /// Observed suite grid, in job order.
    suite: Vec<SuiteObsRow>,
}

/// Everything the observed reference scenario produces.
struct ScenarioOutput {
    summary: ObsSummary,
    stages: Vec<StageProfile>,
    jsonl: String,
    prometheus: String,
    chrome_json: String,
    trace_events: usize,
    trace_dropped: u64,
    trace_level: TraceLevel,
    event_tail: Vec<String>,
}

/// Runs the reference closed-loop scenario (SmartBalance on the quad
/// heterogeneous platform) with telemetry and tracing attached.
fn run_observed(epochs: u64, tasks: usize, trace_capacity: usize) -> ScenarioOutput {
    let platform = Platform::quad_heterogeneous();
    let mut policy = SmartBalance::new(&platform);
    let mut sys = System::new(platform, SystemConfig::default());
    let hub = telemetry::shared();
    sys.set_telemetry(hub.clone());
    policy.attach_telemetry(&hub);
    let trace_level = TraceLevel::Full;
    sys.enable_tracing(trace_level, trace_capacity);
    let mut gen = SyntheticGenerator::new(SEED);
    for i in 0..tasks {
        sys.spawn(gen.profile(format!("t{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }
    for _ in 0..epochs {
        sys.run_epoch(&mut policy);
    }

    let hub = hub.borrow();
    // Chrome trace: the loop's epoch spans first, then the scheduler
    // ring — Perfetto orders by timestamp internally.
    let mut chrome = hub.chrome_spans();
    chrome.extend(sys.tracer().chrome_events());
    let events = sys.tracer().events();
    let tail = events
        .iter()
        .rev()
        .take(8)
        .rev()
        .map(|e| e.to_string())
        .collect();
    ScenarioOutput {
        summary: hub.summary(),
        stages: hub.stage_profile(),
        jsonl: hub.jsonl(),
        prometheus: hub.registry().prometheus_text(),
        chrome_json: telemetry::chrome_trace_json(&chrome),
        trace_events: events.len(),
        trace_dropped: sys.tracer().dropped(),
        trace_level,
        event_tail: tail,
    }
}

/// Measures slices/s of the perfstat reference scenario (NullBalancer,
/// estimate cache on), optionally with a telemetry hub attached.
fn run_reference(observed: bool, epochs: u64, tasks: usize) -> f64 {
    let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
    if observed {
        sys.set_telemetry(telemetry::shared());
    }
    let mut gen = SyntheticGenerator::new(0xB007);
    for i in 0..tasks {
        sys.spawn(gen.profile(format!("t{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }
    let mut nb = NullBalancer;
    let t0 = Instant::now();
    for _ in 0..epochs {
        sys.run_epoch(&mut nb);
    }
    sys.total_slices() as f64 / t0.elapsed().as_secs_f64()
}

/// Runs the observed suite grid: two synthetic experiments, each under
/// Vanilla and SmartBalance, all jobs with telemetry attached.
fn run_suite(max_epochs: u64) -> Vec<SuiteObsRow> {
    let mut gen = SyntheticGenerator::new(0x5EED);
    let mut suite = ExperimentSuite::new();
    for name in ["mix-a", "mix-b"] {
        let profiles = (0..4)
            .map(|i| gen.profile(format!("{name}{i}"), 3, 60_000_000, i % 2 == 0))
            .collect();
        let spec = ExperimentSpec::new(name, Platform::quad_heterogeneous(), profiles)
            .with_max_epochs(max_epochs);
        suite.push_observed(spec.clone(), Policy::Vanilla);
        suite.push_observed(spec, Policy::Smart);
    }
    let report = suite.run();
    report
        .jobs
        .iter()
        .map(|j| SuiteObsRow {
            experiment: j.result.experiment.clone(),
            policy: j.result.policy.clone(),
            epochs: j.result.epochs,
            summary: j
                .obs
                .as_ref()
                .map(|o| o.summary.clone())
                .unwrap_or_default(),
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_path =
        |flag, default: &str| flag_value(&args, flag).unwrap_or_else(|| default.to_owned());
    let json_path = arg_path("--json", "BENCH_obs.json");
    let jsonl_path = arg_path("--jsonl", "obs_epochs.jsonl");
    let trace_path = arg_path("--trace", "obs_trace.json");
    let prom_path = arg_path("--prom", "obs_metrics.prom");

    let (epochs, tasks, trace_capacity, suite_epochs) = if smoke {
        (60u64, 8usize, 4_000usize, 120u64)
    } else {
        (400, 16, 20_000, 400)
    };

    let scenario = run_observed(epochs, tasks, trace_capacity);

    // Telemetry overhead on the perfstat reference scenario (stdout
    // only — wall-clock must never reach the deterministic JSON).
    // Best-of-3 per configuration: single-shot timings on a shared
    // host jitter more than the effect being measured.
    run_reference(false, epochs.min(100), tasks); // warm-up
    let best = |observed: bool| {
        (0..3)
            .map(|_| run_reference(observed, epochs, tasks))
            .fold(0.0f64, f64::max)
    };
    let base_sps = best(false);
    let obs_sps = best(true);
    let overhead_pct = (1.0 - obs_sps / base_sps) * 100.0;

    let suite = run_suite(suite_epochs);

    let report = ObsReport {
        schema: 2,
        smoke,
        epochs,
        tasks,
        trace_level: scenario.trace_level.to_string(),
        summary: scenario.summary,
        trace_events: scenario.trace_events,
        trace_dropped: scenario.trace_dropped,
        stages: scenario.stages,
        suite,
    };

    let s = &report.summary;
    println!(
        "closed-loop observability — {} epochs, {} tasks",
        epochs, tasks
    );
    println!(
        "  prediction audit : {} samples, mean |err| ips {:.4} / power {:.4}",
        s.prediction_samples, s.mean_abs_ips_error, s.mean_abs_power_error
    );
    println!(
        "  annealer         : {} epochs, convergence rate {:.3}",
        s.anneal_epochs, s.anneal_convergence_rate
    );
    println!(
        "  degrade ladder   : {} degraded epochs (fraction {:.3}), {} transitions",
        s.degrade_epochs, s.degrade_epoch_fraction, s.mode_transitions
    );
    println!(
        "  migrations       : {} performed, {} rejected | cache hit rate {:.4}",
        s.migrations, s.rejected_migrations, s.cache_hit_rate
    );
    println!(
        "  trace            : level {}, {} events retained, {} dropped",
        report.trace_level, report.trace_events, report.trace_dropped
    );
    for stage in &report.stages {
        println!(
            "  stage {:<10} : {:>6} invocations, {:>12} work units",
            stage.stage, stage.invocations, stage.work
        );
    }
    for line in &scenario.event_tail {
        println!("    {line}");
    }
    println!(
        "  overhead         : reference {base_sps:.0} slices/s, observed {obs_sps:.0} slices/s ({overhead_pct:+.2}%)"
    );
    for row in &report.suite {
        println!(
            "  suite {:<8} {:<12} {:>4} epochs, {} samples, mean |ips err| {:.4}",
            row.experiment,
            row.policy,
            row.epochs,
            row.summary.prediction_samples,
            row.summary.mean_abs_ips_error
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&json_path, json).expect("write json report");
    std::fs::write(&jsonl_path, &scenario.jsonl).expect("write jsonl stream");
    std::fs::write(&trace_path, &scenario.chrome_json).expect("write chrome trace");
    std::fs::write(&prom_path, &scenario.prometheus).expect("write prometheus snapshot");
    println!("(reports written to {json_path}, {jsonl_path}, {trace_path}, {prom_path})");
}
