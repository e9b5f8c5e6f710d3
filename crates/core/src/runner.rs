//! End-to-end experiment runner: platform + workload set + policy →
//! measured energy efficiency. This is the harness behind every
//! evaluation figure; the bench crate's binaries are thin wrappers
//! around it.

use archsim::Platform;
use kernelsim::{
    EngineKind, LoadBalancer, NullBalancer, System, SystemConfig, SystemStats, TraceLevel,
};
use serde::{Deserialize, Serialize};
use workloads::WorkloadProfile;

use crate::balance::{GtsBalancer, IksBalancer, ShardedBalancer, SmartBalance, VanillaBalancer};
use crate::config::SmartBalanceConfig;
use crate::shard::ShardConfig;
use telemetry::ObsCapture;

/// Which balancing policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// No balancing at all (tasks stay where fork placed them).
    None,
    /// The vanilla Linux weight-equalizing balancer.
    Vanilla,
    /// ARM GTS (requires a 2-core-type platform).
    Gts,
    /// Linaro IKS (requires a paired big.LITTLE platform).
    Iks,
    /// SmartBalance.
    Smart,
}

impl Policy {
    /// Instantiates the policy for `platform`. A configuration only
    /// affects [`Policy::Smart`]; `None` (or any config handed to a
    /// baseline policy) selects the defaults. SmartBalance's predictors
    /// are trained once per process for each platform and training
    /// setting ([`crate::PredictorSet::trained`]), so building the same
    /// policy again costs no retraining.
    pub fn build(
        &self,
        platform: &Platform,
        cfg: Option<&SmartBalanceConfig>,
    ) -> Box<dyn LoadBalancer> {
        match self {
            Policy::None => Box::new(NullBalancer),
            Policy::Vanilla => Box::new(VanillaBalancer::new()),
            Policy::Gts => Box::new(GtsBalancer::new()),
            Policy::Iks => Box::new(IksBalancer::new()),
            Policy::Smart => match cfg {
                // The shard knob selects the hierarchical balancer; its
                // absence keeps the flat annealer bit-identical.
                Some(cfg) if cfg.shard.is_some() => {
                    Box::new(ShardedBalancer::with_config(platform, cfg.clone()))
                }
                Some(cfg) => Box::new(SmartBalance::with_config(platform, cfg.clone())),
                None => Box::new(SmartBalance::new(platform)),
            },
        }
    }
}

/// One experiment: a platform, a set of task profiles and run limits.
///
/// Serializable so orchestration layers (the campaign runner) can
/// derive content-addressed job identities from a canonical JSON
/// rendering and persist grids to disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Label for reports.
    pub name: String,
    /// The platform to simulate.
    pub platform: Platform,
    /// One task is spawned per profile.
    pub profiles: Vec<WorkloadProfile>,
    /// Kernel-simulator timing configuration.
    pub sys_config: SystemConfig,
    /// Hard stop after this many epochs even if tasks are still live.
    pub max_epochs: u64,
    /// SmartBalance configuration used when this spec runs under
    /// [`Policy::Smart`]; `None` = defaults. Baseline policies ignore
    /// it.
    pub policy_config: Option<SmartBalanceConfig>,
}

impl ExperimentSpec {
    /// Creates a spec with default timing and a 2 000-epoch (2-minute)
    /// safety limit.
    pub fn new(
        name: impl Into<String>,
        platform: Platform,
        profiles: Vec<WorkloadProfile>,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            platform,
            profiles,
            sys_config: SystemConfig::default(),
            max_epochs: 2_000,
            policy_config: None,
        }
    }

    /// Overrides the epoch safety limit.
    pub fn with_max_epochs(mut self, max_epochs: u64) -> Self {
        self.max_epochs = max_epochs;
        self
    }

    /// Overrides the kernel-simulator timing configuration.
    pub fn with_sys_config(mut self, sys_config: SystemConfig) -> Self {
        self.sys_config = sys_config;
        self
    }

    /// Enables hierarchical sharding for this spec's [`Policy::Smart`]
    /// runs (creates a default policy config when none is set yet).
    pub fn with_shard(mut self, shard: ShardConfig) -> Self {
        self.policy_config
            .get_or_insert_with(SmartBalanceConfig::default)
            .shard = Some(shard);
        self
    }

    /// Sets the SmartBalance configuration used when this spec runs
    /// under [`Policy::Smart`].
    pub fn with_policy_config(mut self, config: SmartBalanceConfig) -> Self {
        self.policy_config = Some(config);
        self
    }

    /// Splits `profile` into `threads` parallel worker tasks — the
    /// paper's "different levels of parallelization (2, 4, 8 threads)".
    /// The first `threads - 1` workers each take `1/threads` of every
    /// phase; the last worker takes whatever remains, so no
    /// instructions are dropped when the split is uneven.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn parallelize(profile: &WorkloadProfile, threads: usize) -> Vec<WorkloadProfile> {
        profile.split_among(threads)
    }
}

/// Result of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Experiment label.
    pub experiment: String,
    /// Policy name (from [`LoadBalancer::name`]).
    pub policy: String,
    /// Epochs executed.
    pub epochs: u64,
    /// Whether every task completed within the epoch limit.
    pub completed: bool,
    /// Final system statistics.
    pub stats: SystemStats,
}

impl RunResult {
    /// Energy efficiency in instructions per joule (≡ IPS/Watt).
    pub fn energy_efficiency(&self) -> f64 {
        self.stats.instructions_per_joule()
    }

    /// Ratio of this run's energy efficiency to `baseline`'s (>1 means
    /// better than baseline; Fig. 4/5's y-axis).
    pub fn efficiency_vs(&self, baseline: &RunResult) -> f64 {
        let b = baseline.energy_efficiency();
        if b <= 0.0 {
            0.0
        } else {
            self.energy_efficiency() / b
        }
    }
}

/// A request to record scheduler events while an experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRequest {
    /// Event verbosity.
    pub level: TraceLevel,
    /// Ring-buffer capacity in events.
    pub capacity: usize,
}

/// The scheduler event trace captured during a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCapture {
    /// The events rendered as CSV (one row per event).
    pub csv: String,
    /// Number of events retained.
    pub events: usize,
    /// Number of events dropped once the ring buffer filled.
    pub dropped: u64,
}

/// Per-run knobs for [`run_experiment_with`]: scheduler-event tracing,
/// closed-loop observability and a slice-engine override. The default
/// is a bare measurement run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Scheduler-event trace to capture, if any. A request at
    /// [`TraceLevel::Off`] is treated as no request at all — no tracer
    /// is armed and no empty capture is allocated.
    pub trace: Option<TraceRequest>,
    /// When set, a [`telemetry::Telemetry`] hub is attached to both the
    /// system and the balancer and its capture (summary + JSONL +
    /// Prometheus snapshot) lands in the outcome.
    pub observe: bool,
    /// Slice-execution backend override; `None` runs whatever the
    /// spec's `sys_config.engine` selects.
    pub engine: Option<EngineKind>,
}

impl RunOptions {
    /// A bare measurement run: no trace, no observability, the spec's
    /// own engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a scheduler-event trace (builder style).
    pub fn with_trace(mut self, level: TraceLevel, capacity: usize) -> Self {
        self.trace = Some(TraceRequest { level, capacity });
        self
    }

    /// Requests closed-loop observability (builder style).
    pub fn with_observability(mut self) -> Self {
        self.observe = true;
        self
    }
}

/// Everything one [`run_experiment_with`] call produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The experiment measurements.
    pub result: RunResult,
    /// Captured scheduler trace, if [`RunOptions::trace`] asked for one.
    pub trace: Option<TraceCapture>,
    /// Captured observability bundle, if [`RunOptions::observe`] was
    /// set.
    pub observability: Option<ObsCapture>,
}

/// Runs `spec` under the given balancer until all tasks complete (or
/// the epoch limit hits) and returns everything the run produced.
///
/// This is the single experiment entry point: tracing, observability
/// and the engine override are all [`RunOptions`] knobs.
pub fn run_experiment_with(
    spec: &ExperimentSpec,
    balancer: &mut dyn LoadBalancer,
    options: RunOptions,
) -> RunOutcome {
    let hub = if options.observe {
        Some(telemetry::shared())
    } else {
        None
    };
    let (result, trace) = run_experiment_core(spec, balancer, options, hub.as_ref());
    let observability = hub.map(|hub| hub.borrow().capture());
    RunOutcome {
        result,
        trace,
        observability,
    }
}

/// Like [`run_experiment_with`], but records into a caller-owned
/// telemetry hub instead of creating one per run. The caller keeps the
/// handle — and with it the spans, registry and flight-recorder ring —
/// so [`RunOutcome::observability`] stays `None` here (capture from the
/// hub when the run is done). Attaching a hub never perturbs the run:
/// the result is bit-identical with or without one.
pub fn run_experiment_into_hub(
    spec: &ExperimentSpec,
    balancer: &mut dyn LoadBalancer,
    options: RunOptions,
    hub: &telemetry::TelemetryHandle,
) -> RunOutcome {
    let (result, trace) = run_experiment_core(spec, balancer, options, Some(hub));
    RunOutcome {
        result,
        trace,
        observability: None,
    }
}

/// The shared run loop behind both entry points: wires the optional
/// hub and tracer into a fresh [`System`], runs to completion and
/// collects the measurements.
fn run_experiment_core(
    spec: &ExperimentSpec,
    balancer: &mut dyn LoadBalancer,
    options: RunOptions,
    hub: Option<&telemetry::TelemetryHandle>,
) -> (RunResult, Option<TraceCapture>) {
    let trace = options.trace.filter(|req| req.level != TraceLevel::Off);
    let mut sys_config = spec.sys_config;
    if let Some(engine) = options.engine {
        sys_config.engine = engine;
    }
    let mut sys = System::new(spec.platform.clone(), sys_config);
    if let Some(hub) = hub {
        sys.set_telemetry(hub.clone());
        balancer.attach_telemetry(hub);
    }
    if let Some(req) = trace {
        sys.enable_tracing(req.level, req.capacity);
    }
    for profile in &spec.profiles {
        sys.spawn(profile.clone());
    }
    let epochs = sys.run_to_completion(balancer, spec.max_epochs);
    let stats = sys.stats();
    let capture = trace.map(|_| TraceCapture {
        csv: sys.tracer().to_csv(),
        events: sys.tracer().events().len(),
        dropped: sys.tracer().dropped(),
    });
    let result = RunResult {
        experiment: spec.name.clone(),
        policy: balancer.name().to_owned(),
        epochs,
        completed: stats.live_tasks == 0,
        stats,
    };
    (result, capture)
}

/// Runs `spec` under each policy and returns the results in the same
/// order. SmartBalance honours the spec's `policy_config`.
pub fn compare_policies(spec: &ExperimentSpec, policies: &[Policy]) -> Vec<RunResult> {
    policies
        .iter()
        .map(|p| {
            let mut balancer = p.build(&spec.platform, spec.policy_config.as_ref());
            run_experiment_with(spec, balancer.as_mut(), RunOptions::new()).result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::WorkloadCharacteristics;

    fn small_spec() -> ExperimentSpec {
        let profiles = vec![
            WorkloadProfile::uniform("a", WorkloadCharacteristics::compute_bound(), 30_000_000),
            WorkloadProfile::uniform("b", WorkloadCharacteristics::memory_bound(), 10_000_000),
        ];
        ExperimentSpec::new("test", Platform::quad_heterogeneous(), profiles)
    }

    #[test]
    fn run_completes_and_reports() {
        let spec = small_spec();
        let mut b = Policy::Vanilla.build(&spec.platform, None);
        let r = run_experiment_with(&spec, b.as_mut(), RunOptions::new()).result;
        assert!(r.completed);
        assert_eq!(r.policy, "vanilla");
        assert!(r.energy_efficiency() > 0.0);
        assert!(r.stats.total_instructions >= 40_000_000);
    }

    #[test]
    fn parallelize_splits_work_exactly() {
        // Evenly divisible and remainder cases both conserve the
        // instruction total exactly — no work is dropped.
        for (instructions, threads) in [(1_000_000u64, 4usize), (1_000_003, 4), (999_999, 8)] {
            let p =
                WorkloadProfile::uniform("x", WorkloadCharacteristics::balanced(), instructions);
            let parts = ExperimentSpec::parallelize(&p, threads);
            assert_eq!(parts.len(), threads);
            let total: u64 = parts.iter().map(|q| q.total_instructions()).sum();
            assert_eq!(total, instructions, "{instructions} over {threads} threads");
        }
    }

    #[test]
    fn policy_builders_report_names() {
        let quad = Platform::quad_heterogeneous();
        let bl = Platform::octa_big_little();
        assert_eq!(Policy::None.build(&quad, None).name(), "none");
        assert_eq!(Policy::Vanilla.build(&quad, None).name(), "vanilla");
        assert_eq!(Policy::Gts.build(&bl, None).name(), "gts");
        assert_eq!(Policy::Iks.build(&bl, None).name(), "iks");
        assert_eq!(Policy::Smart.build(&quad, None).name(), "smartbalance");
    }

    #[test]
    fn edp_goal_runs_end_to_end() {
        use crate::config::SmartBalanceConfig;
        use crate::objective::Goal;
        let spec = small_spec().with_policy_config(SmartBalanceConfig {
            goal: Goal::EnergyDelayProduct,
            ..SmartBalanceConfig::default()
        });
        let mut policy = Policy::Smart.build(&spec.platform, spec.policy_config.as_ref());
        let r = run_experiment_with(&spec, policy.as_mut(), RunOptions::new()).result;
        assert!(r.completed);
        assert!(r.energy_efficiency() > 0.0);
    }

    #[test]
    fn off_level_trace_request_yields_no_capture() {
        // Regression: an Off-level request used to allocate an empty
        // TraceCapture (and arm a zero-yield tracer) just because the
        // Option was Some.
        let spec = small_spec();
        let mut b = Policy::Vanilla.build(&spec.platform, None);
        let req = TraceRequest {
            level: TraceLevel::Off,
            capacity: 64,
        };
        let outcome = run_experiment_with(
            &spec,
            b.as_mut(),
            RunOptions {
                trace: Some(req),
                ..RunOptions::default()
            },
        );
        assert!(outcome.result.completed);
        assert!(
            outcome.trace.is_none(),
            "Off-level request must not capture"
        );

        // A real request still captures.
        let mut b = Policy::Vanilla.build(&spec.platform, None);
        let req = TraceRequest {
            level: TraceLevel::Lifecycle,
            capacity: 64,
        };
        let outcome = run_experiment_with(
            &spec,
            b.as_mut(),
            RunOptions::new().with_trace(req.level, req.capacity),
        );
        assert!(outcome.trace.is_some());
    }

    #[test]
    fn instrumented_run_observes_the_loop() {
        let spec = small_spec();
        let mut policy = Policy::Smart.build(&spec.platform, None);
        let outcome = run_experiment_with(
            &spec,
            policy.as_mut(),
            RunOptions::new().with_observability(),
        );
        let (r, obs) = (outcome.result, outcome.observability);
        let obs = obs.expect("observability requested");
        assert!(r.completed);
        assert_eq!(obs.summary.epochs, r.epochs, "one span per epoch");
        assert!(!obs.jsonl.is_empty());
        assert!(!obs.prometheus.is_empty());
        assert!(obs.prometheus.contains("sb_epochs_total"));

        // Not requested → not allocated, result identical.
        let mut policy = Policy::Smart.build(&spec.platform, None);
        let o2 = run_experiment_with(&spec, policy.as_mut(), RunOptions::new());
        assert!(o2.observability.is_none());
        assert_eq!(r, o2.result, "observability must not perturb the run");
    }

    #[test]
    fn run_result_surfaces_migration_totals() {
        let spec = small_spec();
        let mut policy = Policy::Smart.build(&spec.platform, None);
        let r = run_experiment_with(&spec, policy.as_mut(), RunOptions::new()).result;
        let totals = r.stats.migration_totals;
        assert_eq!(totals.migrated, r.stats.migrations);
        assert_eq!(
            totals.rejected,
            totals.unknown_task
                + totals.unknown_core
                + totals.exited
                + totals.affinity_forbidden
                + totals.offline_core
                + totals.transient_failure
        );
    }

    #[test]
    fn compare_runs_all_policies() {
        let spec = small_spec();
        let results = compare_policies(&spec, &[Policy::None, Policy::Vanilla, Policy::Smart]);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].policy, "none");
        assert_eq!(results[1].policy, "vanilla");
        assert_eq!(results[2].policy, "smartbalance");
        for r in &results {
            assert!(r.completed, "{} did not finish", r.policy);
        }
        // Efficiency ratio helper.
        let ratio = results[2].efficiency_vs(&results[1]);
        assert!(ratio > 0.0);
    }

    #[test]
    fn engine_choice_threads_through_spec_and_options() {
        let mut spec = small_spec();
        spec.sys_config.engine = EngineKind::Batched;
        let mut b = Policy::Vanilla.build(&spec.platform, None);
        let batched = run_experiment_with(&spec, b.as_mut(), RunOptions::new()).result;

        // A per-run override beats the spec's engine — and whichever
        // backend runs, the measurements are observationally identical.
        let mut b = Policy::Vanilla.build(&spec.platform, None);
        let reference = run_experiment_with(
            &spec,
            b.as_mut(),
            RunOptions {
                engine: Some(EngineKind::Reference),
                ..RunOptions::new()
            },
        )
        .result;
        assert_eq!(batched, reference, "engines must be indistinguishable");
    }
}
