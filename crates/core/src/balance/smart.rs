//! SmartBalance itself: the closed-loop sense → predict → balance
//! policy (paper Section 4, Fig. 1(b)), packaged as a
//! [`LoadBalancer`] plug-in for the kernel simulator.
//!
//! Per epoch:
//! 1. **sense** — distil the epoch's per-thread counters into workload
//!    signatures ([`crate::sense::Sensor`]);
//! 2. **estimate/predict** — predict each thread's IPC on every core
//!    type once ([`crate::estimate::ipc_rows`]; the quarantine audit
//!    reads the same rows), then build the full `S(k)`/`P(k)`
//!    characterization matrices, measuring on the current core type and
//!    predicting everywhere else ([`crate::estimate::build_matrices`]);
//! 3. **balance** — run Algorithm 1 ([`crate::anneal::anneal`]) from
//!    the current allocation and emit the migrations it decides on.

use std::sync::Arc;

use archsim::Platform;
use kernelsim::{Allocation, EpochReport, LoadBalancer, TelemetryHandle};
use mcpat::ThermalModel;

use crate::anneal::{anneal, AnnealOutcome, AnnealParams};
use crate::balance::vanilla::VanillaBalancer;
use crate::config::SmartBalanceConfig;
use crate::degrade::QuarantineTracker;
use crate::degrade::{predict_free_greedy, DegradeController, DegradeMode, EpochHealth};
use crate::estimate::{build_matrices, ipc_rows};
use crate::objective::Objective;
use crate::predict::PredictorSet;
use crate::sense::{SenseHealth, Sensor, ThreadSense};

/// Outcome of the shared per-epoch preamble (audit, thermal step,
/// sensing, degradation ladder, affinity constriction): either the
/// epoch is already settled, or the optimizer should run on the sensed
/// threads. Shared between the flat annealer and the sharded balancer
/// so both walk an identical sense/degrade path.
pub(crate) enum PreambleOutcome {
    /// Nothing left for the optimizer: an idle epoch (`None`) or a
    /// degraded-mode fallback that already produced the allocation.
    Skip(Option<Allocation>),
    /// Full-capability epoch: optimize these sensed threads.
    Proceed {
        /// Sensed, constriction-adjusted per-thread rows.
        senses: Vec<ThreadSense>,
        /// Each sense's predicted IPC per core type
        /// ([`crate::estimate::ipc_rows`]).
        ipc_rows: Vec<Vec<f64>>,
        /// Per-core availability (`online[j]`), from the epoch report.
        online: Vec<bool>,
    },
}

/// The SmartBalance policy.
///
/// # Examples
///
/// ```
/// use archsim::{Platform, WorkloadCharacteristics};
/// use kernelsim::{System, SystemConfig};
/// use smartbalance::SmartBalance;
/// use workloads::WorkloadProfile;
///
/// let platform = Platform::quad_heterogeneous();
/// let mut policy = SmartBalance::new(&platform);
/// let mut sys = System::new(platform, SystemConfig::default());
/// sys.spawn(WorkloadProfile::uniform(
///     "w",
///     WorkloadCharacteristics::compute_bound(),
///     40_000_000,
/// ));
/// sys.run_epoch(&mut policy);
/// ```
#[derive(Debug)]
pub struct SmartBalance {
    config: SmartBalanceConfig,
    predictors: Arc<PredictorSet>,
    sensor: Sensor,
    seed: u32,
    epochs_balanced: u64,
    last_outcome: Option<AnnealOutcome>,
    thermal: Option<ThermalModel>,
    degrade: DegradeController,
    quarantine: QuarantineTracker,
    fallback: VanillaBalancer,
    /// Shared observability hub, when the host system attached one.
    /// Purely write-only from the policy's perspective: recording never
    /// changes a balancing decision.
    telemetry: Option<TelemetryHandle>,
}

impl SmartBalance {
    /// Creates the policy for `platform` with default configuration.
    /// The offline predictor training (Section 4.2.2's profiling step)
    /// runs on the first call for these core types and is shared by
    /// every later one ([`PredictorSet::trained`]).
    pub fn new(platform: &Platform) -> Self {
        Self::with_config(platform, SmartBalanceConfig::default())
    }

    /// Creates the policy with an explicit configuration, taking its
    /// predictors from [`PredictorSet::trained`]: the first policy with
    /// this platform's core types and `config`'s training corpus, seed
    /// and sparsity trains them, and later ones share that set.
    pub fn with_config(platform: &Platform, config: SmartBalanceConfig) -> Self {
        let predictors = PredictorSet::trained(
            platform,
            config.train_corpus,
            config.train_seed,
            config.sparse_sensing,
        );
        SmartBalance {
            thermal: config.thermal.map(|_| ThermalModel::new(platform)),
            ..Self::with_predictors(predictors, config)
        }
    }

    /// Creates the policy on a given predictor set, e.g. one trained
    /// with settings `config` does not name. `config`'s training fields
    /// are ignored. Thermal tracking is not available through this
    /// constructor (it needs the platform).
    pub fn with_predictors(predictors: Arc<PredictorSet>, config: SmartBalanceConfig) -> Self {
        SmartBalance {
            sensor: Sensor::new(config.min_sample_runtime_ns)
                .with_power_noise(
                    config.power_noise_sigma,
                    config.sensor_seed.unwrap_or(0xBAD_5EED),
                )
                .with_signature_ttl(config.degrade.signature_ttl_epochs),
            predictors,
            seed: config.anneal_seed.unwrap_or(0x5A17_B0B5),
            epochs_balanced: 0,
            thermal: None,
            degrade: DegradeController::new(config.degrade),
            quarantine: QuarantineTracker::new(),
            fallback: VanillaBalancer::new(),
            config,
            last_outcome: None,
            telemetry: None,
        }
    }

    /// The thermal tracker's current estimate for a core, if thermal
    /// awareness is enabled.
    pub fn temperature_c(&self, core: archsim::CoreId) -> Option<f64> {
        self.thermal.as_ref().map(|t| t.temperature_c(core))
    }

    /// The trained predictor set (the Θ/α coefficients).
    pub fn predictors(&self) -> &PredictorSet {
        &self.predictors
    }

    /// The active configuration.
    pub fn config(&self) -> &SmartBalanceConfig {
        &self.config
    }

    /// Diagnostics from the most recent balancing pass.
    pub fn last_outcome(&self) -> Option<&AnnealOutcome> {
        self.last_outcome.as_ref()
    }

    /// Number of epochs this policy has balanced.
    pub fn epochs_balanced(&self) -> u64 {
        self.epochs_balanced
    }

    /// Current rung of the degradation ladder.
    pub fn mode(&self) -> DegradeMode {
        self.degrade.mode()
    }

    /// Total degradation-ladder transitions (both directions) since
    /// construction.
    pub fn mode_transitions(&self) -> u64 {
        self.degrade.transitions()
    }

    /// Threads whose predictions are currently quarantined.
    pub fn quarantined_threads(&self) -> Vec<kernelsim::TaskId> {
        self.quarantine.quarantined_tasks()
    }

    /// The sensing stage's classification tally for the last epoch.
    pub fn sense_health(&self) -> SenseHealth {
        self.sensor.health()
    }

    /// The attached telemetry hub, if any.
    pub(crate) fn telemetry_handle(&self) -> Option<&TelemetryHandle> {
        self.telemetry.as_ref()
    }

    /// Attaches the telemetry hub (shared with wrapping balancers).
    pub(crate) fn set_telemetry_handle(&mut self, handle: &TelemetryHandle) {
        self.telemetry = Some(handle.clone());
    }

    /// Whether `task`'s predictions are currently quarantined.
    pub(crate) fn is_quarantined(&self, task: kernelsim::TaskId) -> bool {
        self.quarantine.is_quarantined(task)
    }

    /// Publishes the diagnostics of the pass that just ran.
    pub(crate) fn set_last_outcome(&mut self, outcome: Option<AnnealOutcome>) {
        self.last_outcome = outcome;
    }

    /// This epoch's annealer seed; advances the internal LCG so
    /// successive epochs explore differently (deterministically across
    /// runs).
    pub(crate) fn next_epoch_seed(&mut self) -> u32 {
        let seed = self.seed;
        self.seed = self
            .seed
            .wrapping_mul(0x0019_660D)
            .wrapping_add(0x3C6E_F35F);
        seed
    }

    /// The per-core objective weights `ω_j` in effect this epoch:
    /// explicit `core_weights` win, else thermal derating when the
    /// tracker is enabled, else `None` (all ones).
    pub(crate) fn effective_core_weights(&self, platform: &Platform) -> Option<Vec<f64>> {
        if let Some(w) = &self.config.core_weights {
            return Some(w.clone());
        }
        if let (Some(thermal), Some(tc)) = (&self.thermal, self.config.thermal) {
            // Thermal ω derating: steer work away from hot cores.
            return Some(
                platform
                    .cores()
                    .map(|c| tc.weight_for(thermal.temperature_c(c)))
                    .collect(),
            );
        }
        None
    }

    /// The shared front half of every rebalance pass: prediction audit,
    /// thermal step, sensing, quarantine/degradation bookkeeping and
    /// affinity-mask constriction — everything up to (but excluding)
    /// the optimizer itself. See [`PreambleOutcome`].
    pub(crate) fn preamble(
        &mut self,
        platform: &Platform,
        report: &EpochReport,
    ) -> PreambleOutcome {
        self.epochs_balanced += 1;

        // --- Prediction audit: settle last epoch's forecasts against
        // what the threads actually achieved. Samples only count when
        // the thread still runs on the core it was predicted for.
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            for ts in &report.tasks {
                tel.resolve_prediction(ts.task.0 as u64, ts.core.0 as u64, ts.ips(), ts.power_w());
            }
        }

        // --- Thermal tracking (optional): advance the RC model with
        // this epoch's measured per-core power.
        if let Some(thermal) = &mut self.thermal {
            for c in &report.cores {
                thermal.step(c.core, c.power_w(report.duration_ns), report.duration_ns);
            }
        }

        // --- Sense -----------------------------------------------------
        let mut senses = self.sensor.sense(platform, report);
        if !self.config.include_kernel_threads {
            senses.retain(|s| !s.kernel_thread);
        }
        if senses.is_empty() {
            self.last_outcome = None;
            return PreambleOutcome::Skip(None);
        }

        // --- Predict: one IPC row per thread, shared by the audit below
        // and the optimizer's characterization.
        let ipc_rows = ipc_rows(platform, &senses, &self.predictors);

        // --- Degradation ladder: distrust what failed --------------------
        self.quarantine
            .observe(platform, &senses, &ipc_rows, &self.config.degrade);
        let sense_health = self.sensor.health();
        let health = EpochHealth {
            candidates: sense_health.candidates,
            invalid: sense_health.invalid,
            blind: sense_health.blind,
            quarantined: self.quarantine.quarantined_count(),
        };
        let mode = self.degrade.step(&health);
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            tel.record_sense(
                sense_health.candidates as u64,
                sense_health.fresh as u64,
                sense_health.invalid as u64,
                sense_health.replayed as u64,
                sense_health.expired as u64,
                sense_health.priors as u64,
                sense_health.blind as u64,
            );
            tel.record_degrade(
                mode.name(),
                u64::from(mode.rank()),
                self.degrade.transitions(),
            );
        }

        // Per-core availability from the report (missing entries are
        // treated as online, matching older reports).
        let n = platform.num_cores();
        let mut online = vec![true; n];
        for c in &report.cores {
            if c.core.0 < n {
                online[c.core.0] = c.online;
            }
        }

        match mode {
            DegradeMode::LoadOnly => {
                // Sensing itself is distrusted: fall back to the
                // heterogeneity-blind load-equalizing spread, which only
                // needs run-queue weights.
                self.last_outcome = None;
                return PreambleOutcome::Skip(self.fallback.rebalance(platform, report));
            }
            DegradeMode::PredictFree => {
                // Predictions are distrusted but measurements are not:
                // greedy IPS/Watt packing on static core efficiency.
                self.last_outcome = None;
                return PreambleOutcome::Skip(predict_free_greedy(platform, &senses, &online));
            }
            DegradeMode::Full => {}
        }

        // Constrain the annealer's search: quarantined threads stay
        // put (their signatures cannot be trusted to propose moves)
        // and offline cores are excluded from every affinity mask.
        let any_offline = online.iter().any(|&o| !o);
        if any_offline || self.quarantine.quarantined_count() > 0 {
            let online_bits: u64 = online
                .iter()
                .enumerate()
                .filter(|&(j, &o)| o && j < 64)
                .fold(0u64, |acc, (j, _)| acc | (1 << j));
            for s in &mut senses {
                if s.core.0 >= 64 {
                    continue; // masks cannot express cores beyond 64
                }
                if self.quarantine.is_quarantined(s.task) {
                    s.allowed = 1 << s.core.0;
                } else if any_offline && n <= 64 {
                    // Never leave the mask empty: the current core is
                    // always representable.
                    s.allowed = (s.allowed & online_bits) | (1 << s.core.0);
                }
            }
        }

        PreambleOutcome::Proceed {
            senses,
            ipc_rows,
            online,
        }
    }

    /// The flat (single-domain) back half: build the dense matrices,
    /// run Algorithm 1 over all cores at once and emit the diff.
    fn flat_balance(
        &mut self,
        platform: &Platform,
        senses: &[ThreadSense],
        ipc_rows: &[Vec<f64>],
    ) -> Option<Allocation> {
        // --- Estimate & predict: S(k), P(k) ----------------------------
        let matrices = build_matrices(platform, senses, ipc_rows, &self.predictors);

        // --- Balance: Algorithm 1 from the current allocation ----------
        let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let params = self
            .config
            .anneal
            .unwrap_or_else(|| AnnealParams::scaled_for(platform.num_cores(), senses.len()));
        let mut objective = Objective::new(&matrices, self.config.goal);
        if let Some(weights) = self.effective_core_weights(platform) {
            objective = objective.with_weights(weights);
        }
        let seed = self.next_epoch_seed();
        let outcome = anneal(&objective, &initial, params, seed);

        let moves = migrations(senses, &outcome.allocation);
        if let Some(tel) = &self.telemetry {
            let mut tel = tel.borrow_mut();
            // Predict-stage work = the dense S/P matrices just built:
            // one cell per (thread, core) pair.
            tel.record_stage("predict", (senses.len() * platform.num_cores()) as u64);
            tel.record_anneal(
                u64::from(outcome.iterations),
                u64::from(outcome.accepted_moves),
                outcome.initial_objective,
                outcome.objective,
            );
            // Forecast next epoch: thread i should achieve the S/P
            // matrix entries of its chosen column.
            for (i, sense) in senses.iter().enumerate() {
                let dest = outcome.allocation[i];
                tel.record_prediction(
                    sense.task.0 as u64,
                    dest as u64,
                    matrices.ips(i, dest),
                    matrices.power(i, dest),
                );
            }
        }
        self.last_outcome = Some(outcome);
        moves
    }
}

/// The migrations that move each sensed thread from its current core to
/// `dest[i]`, in sense order; `None` when nothing moves.
pub(crate) fn migrations(senses: &[ThreadSense], dest: &[usize]) -> Option<Allocation> {
    let mut alloc = Allocation::new();
    for (sense, &core) in senses.iter().zip(dest) {
        if core != sense.core.0 {
            alloc.assign(sense.task, archsim::CoreId(core));
        }
    }
    (!alloc.is_empty()).then_some(alloc)
}

impl LoadBalancer for SmartBalance {
    fn name(&self) -> &str {
        "smartbalance"
    }

    fn attach_telemetry(&mut self, handle: &TelemetryHandle) {
        self.telemetry = Some(handle.clone());
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        match self.preamble(platform, report) {
            PreambleOutcome::Skip(alloc) => alloc,
            PreambleOutcome::Proceed {
                senses, ipc_rows, ..
            } => self.flat_balance(platform, &senses, &ipc_rows),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::WorkloadCharacteristics;
    use kernelsim::{System, SystemConfig};
    use workloads::WorkloadProfile;

    /// End-to-end smoke: a mixed workload on the quad-heterogeneous
    /// platform; SmartBalance must place compute-bound work on strong
    /// cores and memory-bound work on weak ones within a few epochs.
    #[test]
    fn separates_compute_from_memory_threads() {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        // Large budgets so nothing exits during the test.
        let compute = sys.spawn_on(
            WorkloadProfile::uniform(
                "compute",
                WorkloadCharacteristics::compute_bound(),
                u64::MAX / 4,
            ),
            archsim::CoreId(3), // deliberately start on the Small core
        );
        let memory = sys.spawn_on(
            WorkloadProfile::uniform(
                "memory",
                WorkloadCharacteristics::memory_bound(),
                u64::MAX / 4,
            ),
            archsim::CoreId(0), // deliberately start on the Huge core
        );
        for _ in 0..6 {
            sys.run_epoch(&mut policy);
        }
        let c_core = sys.task(compute).core().0;
        let m_core = sys.task(memory).core().0;
        // Energy-efficiency goal: the memory-bound thread must leave
        // the Huge core (its IPS/W there is terrible).
        assert_ne!(m_core, 0, "memory-bound thread must not stay on Huge");
        assert!(
            policy.epochs_balanced() == 6,
            "balanced every epoch: {}",
            policy.epochs_balanced()
        );
        // The two threads end up on different cores.
        assert_ne!(c_core, m_core);
    }

    #[test]
    fn idle_system_is_noop() {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform, SystemConfig::default());
        let report = sys.run_epoch(&mut policy);
        assert!(report.tasks.is_empty());
        assert!(policy.last_outcome().is_none());
    }

    #[test]
    fn kernel_threads_excluded_by_default() {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform, SystemConfig::default());
        let ktid = sys.next_task_id();
        sys.spawn_task(
            kernelsim::Task::new(
                ktid,
                WorkloadProfile::uniform(
                    "kworker",
                    WorkloadCharacteristics::balanced(),
                    u64::MAX / 4,
                ),
                archsim::CoreId(0),
            )
            .as_kernel_thread(),
        );
        for _ in 0..3 {
            sys.run_epoch(&mut policy);
        }
        assert_eq!(
            sys.task(ktid).migrations(),
            0,
            "kernel threads stay put by default"
        );
    }

    #[test]
    fn sensing_blackout_walks_the_ladder_down_and_back() {
        use archsim::{FaultClass, FaultKind, FaultPlan};

        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform, SystemConfig::default());
        // All counters stuck from epoch 0; sensors heal at epoch 6.
        sys.set_fault_plan(
            FaultPlan::new()
                .inject(0, None, FaultKind::StuckCounters { prob: 1.0 })
                .clear(6, None, FaultClass::Stuck),
            0xC0FFEE,
        );
        for _ in 0..4 {
            sys.spawn(WorkloadProfile::uniform(
                "w",
                WorkloadCharacteristics::balanced(),
                u64::MAX / 4,
            ));
        }
        let mut saw_load_only = false;
        for _ in 0..18 {
            sys.run_epoch(&mut policy);
            saw_load_only |= policy.mode() == crate::degrade::DegradeMode::LoadOnly;
        }
        assert!(
            saw_load_only,
            "stuck counters must demote all the way to load-only"
        );
        assert_eq!(
            policy.mode(),
            crate::degrade::DegradeMode::Full,
            "healed sensors must recover the full loop"
        );
        // Down (1 jump) + up (2 rungs) = at least 3 transitions.
        assert!(
            policy.mode_transitions() >= 3,
            "transitions: {}",
            policy.mode_transitions()
        );
    }

    #[test]
    fn outcome_diagnostics_exposed() {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::new(&platform);
        let mut sys = System::new(platform, SystemConfig::default());
        for _ in 0..3 {
            sys.spawn(WorkloadProfile::uniform(
                "w",
                WorkloadCharacteristics::balanced(),
                u64::MAX / 4,
            ));
        }
        sys.run_epoch(&mut policy);
        let out = policy.last_outcome().expect("ran");
        assert!(out.iterations > 0);
        assert!(out.objective >= out.initial_objective);
    }
}
