//! The machine: platform + tasks + per-core CFS queues + sensors,
//! advanced period-by-period by a deterministic discrete-event loop.
//!
//! Each core independently schedules its run queue within every CFS
//! scheduling period (`T_jk(l)` in the paper); per-slice execution is
//! delegated to `archsim` and energy to `mcpat`. At every epoch
//! boundary (L periods, Fig. 2) the system builds an [`EpochReport`]
//! — the sense phase — hands it to the pluggable balancer, and applies
//! the returned allocation through the migration path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use archsim::{
    synthesize, time_to_complete_ns_with, CoreId, CoreTypeId, CounterSample, EstimateCache,
    EstimateKey, FaultHarness, FaultPlan, FaultStats, Platform, SensorBank,
};
use mcpat::{EnergyMeter, PowerState};
use serde::{Deserialize, Serialize};
use workloads::WorkloadProfile;

use crate::balancer::{
    Allocation, AppliedAllocation, CoreEpochStats, EpochReport, LoadBalancer, MigrationReject,
    MigrationTotals, TaskEpochStats,
};
use crate::cfs::CfsRunQueue;
use crate::engine::{EngineKind, SliceEngine};
use crate::stats::SystemStats;
use crate::task::{Task, TaskId, TaskState};
use crate::topology::Topology;
use crate::trace::{TraceEvent, TraceLevel, Tracer};
use telemetry::TelemetryHandle;

/// Simulation configuration: the timing constants of paper Fig. 1(c)/2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// CFS scheduling-period length `T_jk`, nanoseconds (default 6 ms).
    pub period_ns: u64,
    /// Scheduling periods per SmartBalance epoch `L` (default 10, i.e.
    /// the paper's 60 ms epoch).
    pub epoch_periods: u64,
    /// Cost charged to a migrated thread before it makes progress on
    /// its new core (cold caches), nanoseconds.
    pub migration_cost_ns: u64,
    /// Activity factor billed while a migrated thread refills caches.
    pub migration_activity: f64,
    /// Which slice-execution backend drives the per-core scheduling
    /// loop (defaults to [`EngineKind::Reference`]; both backends are
    /// bit-identical, see `crate::engine`).
    pub engine: EngineKind,
}

impl SystemConfig {
    /// Epoch length in nanoseconds (`period_ns * epoch_periods`).
    pub fn epoch_ns(&self) -> u64 {
        self.period_ns * self.epoch_periods
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            period_ns: 6_000_000,
            epoch_periods: 10,
            migration_cost_ns: 50_000,
            migration_activity: 0.3,
            engine: EngineKind::default(),
        }
    }
}

/// Smallest slice the scheduler will dispatch, ns; bounds the event
/// loop's work per period.
pub(crate) const SLICE_FLOOR_NS: u64 = 10_000;

/// Per-core accounting accumulated within the current epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct CoreEpochAccum {
    pub(crate) counters: CounterSample,
    pub(crate) busy_ns: u64,
    pub(crate) sleep_ns: u64,
    pub(crate) energy_j: f64,
}

/// Probabilistic failure of the migration apply path (the simulator's
/// stand-in for `stop_machine`/IPI timeouts on real hardware). Uses a
/// small stateful xorshift64* stream: [`Allocation`] iterates its
/// entries in deterministic `BTreeMap` order, so runs stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MigrationFaultModel {
    prob: f64,
    state: u64,
}

impl MigrationFaultModel {
    fn new(prob: f64, seed: u64) -> Self {
        MigrationFaultModel {
            prob,
            state: seed | 1,
        }
    }

    /// Rolls one migration attempt; `true` means it fails.
    fn fails(&mut self) -> bool {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        u < self.prob
    }
}

/// The simulated machine.
///
/// # Examples
///
/// ```
/// use archsim::{Platform, WorkloadCharacteristics};
/// use kernelsim::{NullBalancer, System, SystemConfig};
/// use workloads::WorkloadProfile;
///
/// let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
/// sys.spawn(WorkloadProfile::uniform(
///     "w",
///     WorkloadCharacteristics::balanced(),
///     10_000_000,
/// ));
/// let mut balancer = NullBalancer;
/// sys.run_epoch(&mut balancer);
/// assert!(sys.stats().total_instructions > 0);
/// ```
#[derive(Debug)]
pub struct System {
    pub(crate) platform: Platform,
    pub(crate) config: SystemConfig,
    pub(crate) tasks: Vec<Task>,
    pub(crate) queues: Vec<CfsRunQueue>,
    pub(crate) meter: EnergyMeter,
    pub(crate) sensors: SensorBank,
    now_ns: u64,
    epoch_index: u64,
    pub(crate) core_epoch: Vec<CoreEpochAccum>,
    total_migrations: u64,
    /// Cluster decomposition of the platform (contiguous same-type
    /// runs), derived once at boot. Purely descriptive: scheduling and
    /// wake placement never read it, only migration accounting and
    /// cluster-aware balancers do.
    topology: Topology,
    /// Migrations that crossed a cluster boundary (the expensive kind
    /// on real parts: remote caches, interconnect hops).
    cross_cluster_migrations: u64,
    pub(crate) tracer: Tracer,
    /// Memoized pipeline-model evaluations for the dispatch hot path.
    pub(crate) estimates: EstimateCache,
    /// Per-core-type DVFS generation counter; part of every cache key,
    /// bumped by [`System::set_operating_point`] so an operating-point
    /// change can never serve a stale estimate.
    pub(crate) dvfs_level: Vec<u32>,
    /// Per-core min-heap of pending `(wake_at_ns, task)` events, with
    /// lazy deletion: migration and re-sleep leave stale entries that
    /// are dropped when popped. Replaces the O(tasks) scan the idle
    /// path and slice bounding used to perform per slice.
    pub(crate) wake_heaps: Vec<BinaryHeap<Reverse<(u64, TaskId)>>>,
    /// Scheduling slices dispatched since boot (hot-loop throughput
    /// denominator for the perf harness).
    pub(crate) total_slices: u64,
    /// The instantiated slice-execution backend, lazily created from
    /// `config.engine` on the first period (`None` after construction
    /// or an engine switch so stale engine-local state can never
    /// survive a [`System::set_engine`] call).
    engine: Option<Box<dyn SliceEngine>>,
    /// Per-core hotplug state; offline cores schedule nothing and draw
    /// no power.
    core_online: Vec<bool>,
    /// Per-core thermal-throttle duty cycle in `(0, 1]`: the fraction
    /// of each scheduling period the core may execute (the rest is
    /// clock-gated).
    core_duty: Vec<f64>,
    /// Sensor fault interpreter; when set, every [`EpochReport`] passes
    /// through it (ground truth in `sensors`/accumulators stays clean).
    faults: Option<FaultHarness>,
    /// Probabilistic migration failure in the allocation-apply path.
    migration_fail: Option<MigrationFaultModel>,
    /// Outcome of the most recent [`System::apply_allocation`].
    last_applied: Option<AppliedAllocation>,
    /// Cumulative per-reason migration accounting across every apply.
    alloc_totals: MigrationTotals,
    /// Optional shared observability hub; when attached, every epoch is
    /// bracketed by an [`telemetry::EpochObs`] span and allocation
    /// applies feed the migration counters. Never affects scheduling.
    telemetry: Option<TelemetryHandle>,
}

impl System {
    /// Creates an idle system on `platform`.
    ///
    /// # Panics
    ///
    /// Panics if `config.period_ns` or `config.epoch_periods` is zero,
    /// or the migration activity is outside `[0, 1]`.
    pub fn new(platform: Platform, config: SystemConfig) -> Self {
        assert!(config.period_ns > 0, "scheduling period must be positive");
        assert!(
            config.epoch_periods > 0,
            "an epoch needs at least one period"
        );
        assert!(
            (0.0..=1.0).contains(&config.migration_activity),
            "migration activity must be in [0, 1]"
        );
        let n = platform.num_cores();
        let q = platform.num_types();
        let meter = EnergyMeter::new(&platform);
        let sensors = SensorBank::new(&platform);
        let topology = Topology::from_platform(&platform);
        System {
            platform,
            config,
            tasks: Vec::new(),
            queues: vec![CfsRunQueue::new(); n],
            meter,
            sensors,
            now_ns: 0,
            epoch_index: 0,
            core_epoch: vec![CoreEpochAccum::default(); n],
            total_migrations: 0,
            topology,
            cross_cluster_migrations: 0,
            tracer: Tracer::default(),
            estimates: EstimateCache::new(),
            dvfs_level: vec![0; q],
            wake_heaps: vec![BinaryHeap::new(); n],
            total_slices: 0,
            engine: None,
            core_online: vec![true; n],
            core_duty: vec![1.0; n],
            faults: None,
            migration_fail: None,
            last_applied: None,
            alloc_totals: MigrationTotals::default(),
            telemetry: None,
        }
    }

    /// Attaches a shared telemetry hub. From the next epoch on, the
    /// system opens/closes one span per `run_epoch` and records
    /// allocation outcomes; pair with
    /// [`LoadBalancer::attach_telemetry`] on the policy to fill in the
    /// balancer-side phases.
    pub fn set_telemetry(&mut self, handle: TelemetryHandle) {
        self.telemetry = Some(handle);
    }

    /// Enables scheduler event tracing at `level`, keeping at most
    /// `capacity` events in a ring buffer (the simulator's `ftrace`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` while `level` is not `Off`.
    pub fn enable_tracing(&mut self, level: TraceLevel, capacity: usize) {
        self.tracer = Tracer::new(level, capacity);
    }

    /// The event tracer (empty unless tracing was enabled).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current simulation time, nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Number of epochs completed.
    pub fn epochs_completed(&self) -> u64 {
        self.epoch_index
    }

    /// All tasks ever spawned (including exited ones).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Reference to one task.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never spawned.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// The free-running sensor bank (counters + energy per core).
    pub fn sensors(&self) -> &SensorBank {
        &self.sensors
    }

    /// Spawns a task on the least-loaded core (the kernel's fork-time
    /// wake balancing), returning its id.
    pub fn spawn(&mut self, profile: WorkloadProfile) -> TaskId {
        let core = self.least_loaded_core();
        self.spawn_on(profile, core)
    }

    /// Spawns a task pinned initially to `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range for the platform or hotplugged
    /// out.
    pub fn spawn_on(&mut self, profile: WorkloadProfile, core: CoreId) -> TaskId {
        assert!(core.0 < self.platform.num_cores(), "no such core {core}");
        assert!(self.core_online[core.0], "core {core} is offline");
        let id = TaskId(self.tasks.len());
        let task = Task::new(id, profile, core);
        self.enqueue_task_struct(task)
    }

    /// Spawns a pre-built task (use [`Task::new`] plus builders for
    /// nice values, kernel threads or repeating servers).
    ///
    /// # Panics
    ///
    /// Panics if the task's id does not equal the next free id, or its
    /// core is out of range.
    pub fn spawn_task(&mut self, task: Task) -> TaskId {
        assert_eq!(
            task.id().0,
            self.tasks.len(),
            "task id must be the next free id (use System::next_task_id)"
        );
        assert!(
            task.core().0 < self.platform.num_cores(),
            "no such core {}",
            task.core()
        );
        self.enqueue_task_struct(task)
    }

    /// The id the next spawned task will receive.
    pub fn next_task_id(&self) -> TaskId {
        TaskId(self.tasks.len())
    }

    fn enqueue_task_struct(&mut self, mut task: Task) -> TaskId {
        let id = task.id();
        let core = task.core();
        if matches!(task.state(), TaskState::Runnable) {
            let v = self.queues[core.0].enqueue(id, task.vruntime_ns, task.weight());
            task.vruntime_ns = v;
        } else if let TaskState::Sleeping { wake_at_ns } = task.state() {
            self.wake_heaps[core.0].push(Reverse((wake_at_ns, id)));
        }
        self.tasks.push(task);
        self.tracer.record(TraceEvent::Spawn {
            at_ns: self.now_ns,
            task: id,
            core,
        });
        id
    }

    fn least_loaded_core(&self) -> CoreId {
        let mut best = CoreId(0);
        let mut best_weight = u64::MAX;
        for c in self.platform.cores() {
            if !self.core_online[c.0] {
                continue;
            }
            let w: u64 = self
                .tasks
                .iter()
                .filter(|t| t.core() == c && !t.is_exited())
                .map(Task::weight)
                .sum();
            if w < best_weight {
                best_weight = w;
                best = c;
            }
        }
        best
    }

    /// Number of live (non-exited) tasks.
    pub fn live_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| !t.is_exited()).count()
    }

    /// Runs one CFS scheduling period on every core. Offline cores are
    /// skipped entirely (powered off, no energy); thermally throttled
    /// cores execute only their duty-cycle fraction of the period and
    /// are clock-gated for the rest.
    pub fn run_period(&mut self) {
        let period = self.config.period_ns;
        let start = self.now_ns;
        // Take the engine out of `self` for the duration of the period
        // so it can borrow the system mutably alongside its own state.
        let mut engine = self
            .engine
            .take()
            .unwrap_or_else(|| self.config.engine.instantiate());
        for j in 0..self.platform.num_cores() {
            if !self.core_online[j] {
                continue;
            }
            let duty = self.core_duty[j];
            if duty >= 1.0 {
                engine.run_core_period(self, CoreId(j), start, start + period);
            } else {
                let active_ns = ((period as f64 * duty).round() as u64).clamp(1, period);
                engine.run_core_period(self, CoreId(j), start, start + active_ns);
                self.account_sleep(CoreId(j), period - active_ns);
            }
        }
        self.engine = Some(engine);
        self.now_ns = start + period;
    }

    /// Selects the slice-execution backend for all subsequent periods.
    /// Any engine-local acceleration state is discarded, so switching
    /// engines mid-run is always safe (both backends are bit-identical
    /// anyway — see `crate::engine`).
    pub fn set_engine(&mut self, kind: EngineKind) {
        self.config.engine = kind;
        self.engine = None;
    }

    /// The currently configured slice-execution backend.
    pub fn engine_kind(&self) -> EngineKind {
        self.config.engine
    }

    /// Runs a full epoch (L periods), then performs the
    /// sense → balance hand-off with `balancer` and applies any
    /// returned allocation. Returns the epoch's sensing report.
    pub fn run_epoch(&mut self, balancer: &mut dyn LoadBalancer) -> EpochReport {
        if let Some(tel) = &self.telemetry {
            tel.borrow_mut().epoch_start(self.epoch_index, self.now_ns);
        }
        for _ in 0..self.config.epoch_periods {
            self.run_period();
        }
        let report = self.build_epoch_report();
        if let Some(alloc) = balancer.rebalance(&self.platform, &report) {
            self.apply_allocation(&alloc);
        }
        self.finish_epoch();
        report
    }

    /// Runs epochs until every task has exited or `max_epochs` elapse;
    /// returns the number of epochs executed.
    pub fn run_to_completion(&mut self, balancer: &mut dyn LoadBalancer, max_epochs: u64) -> u64 {
        let mut epochs = 0;
        while epochs < max_epochs && self.live_tasks() > 0 {
            self.run_epoch(balancer);
            epochs += 1;
        }
        epochs
    }

    // ------------------------------------------------------------------
    // Core-local scheduling
    // ------------------------------------------------------------------

    pub(crate) fn simulate_core_period(&mut self, core: CoreId, start_ns: u64, end_ns: u64) {
        let mut t = start_ns;
        while t < end_ns {
            self.wake_due(core, t);
            // One heap peek covers both the idle path and the slice
            // bound below (after wake_due every pending wake is > t).
            let next_wake = self.next_wake_ns(core);
            let Some(tid) = self.queues[core.0].pick_next() else {
                // No runnable task: power-gate until the next wake-up
                // (or the end of the period).
                let next = next_wake.map_or(end_ns, |w| w.clamp(t + 1, end_ns));
                self.account_sleep(core, next - t);
                t = next;
                continue;
            };
            let slice_ns = self.slice_bound(core, tid, t, end_ns, next_wake);
            let ran = self.dispatch(core, tid, t, slice_ns);
            t += ran.max(1);
        }
    }

    /// Upper bound for the next slice of `tid` on `core` at time `t`.
    fn slice_bound(
        &self,
        core: CoreId,
        tid: TaskId,
        t: u64,
        end_ns: u64,
        next_wake: Option<u64>,
    ) -> u64 {
        let rq = &self.queues[core.0];
        let weight = self.tasks[tid.0].weight();
        let mut slice = rq.timeslice_ns(weight, self.config.period_ns);
        // Serve imminent wake-ups promptly (poor man's wake preemption).
        if let Some(w) = next_wake {
            if w > t {
                slice = slice.min(w - t);
            }
        }
        // Clamp into [min(SLICE_FLOOR_NS, remaining), remaining]: the
        // floor bounds the event loop's iterations per period, and
        // capping the floor itself at the remaining time keeps the
        // bound from overshooting the period end. The loop invariant
        // `t < end_ns` makes `remaining >= 1`, so the returned slice is
        // always positive — a zero-length-slice spin is impossible (and
        // `clamp` cannot panic: its lower bound is `<=` the upper).
        let remaining = end_ns - t;
        slice.clamp(SLICE_FLOOR_NS.min(remaining), remaining)
    }

    /// Runs `tid` on `core` for at most `max_ns`; returns actual time.
    fn dispatch(&mut self, core: CoreId, tid: TaskId, t: u64, max_ns: u64) -> u64 {
        let freq_hz = self.platform.core_config(core).freq_hz;
        let weight = self.tasks[tid.0].weight();
        let vruntime = self.tasks[tid.0].vruntime_ns;
        self.queues[core.0].dequeue(tid, vruntime, weight);

        let mut consumed = 0u64;

        // 1. Pay any outstanding migration debt (cold caches).
        {
            let debt = self.tasks[tid.0].migration_debt_ns;
            if debt > 0 {
                let pay = debt.min(max_ns);
                let cycles = (pay as f64 * 1e-9 * freq_hz).round() as u64;
                let counters = CounterSample {
                    cy_idle: cycles,
                    ..Default::default()
                };
                let energy = self.meter.accumulate(
                    core,
                    PowerState::Active {
                        activity: self.config.migration_activity,
                    },
                    pay,
                );
                self.charge(core, tid, counters, pay, energy);
                self.tasks[tid.0].migration_debt_ns -= pay;
                consumed += pay;
            }
        }

        // 2. Useful execution for the remaining time. The pipeline
        // model is evaluated at most once per (task phase, core type,
        // DVFS level) — every later slice replays the memoized
        // estimate, bit-identically (the model is pure).
        if consumed < max_ns {
            let budget_ns = max_ns - consumed;
            let (phase, w, rem_phase) = self.tasks[tid.0].phase_view();
            let core_type = self.platform.core_type(core);
            let key = EstimateKey {
                workload_id: tid.0 as u64,
                phase: phase as u32,
                core_type: core_type.0 as u32,
                dvfs_level: self.dvfs_level[core_type.0],
            };
            let est = self
                .estimates
                .get_or_compute(key, &w, self.platform.core_config(core));

            // Bound the slice so it stays within the current phase, the
            // current interactive burst and the profile end.
            let task = &self.tasks[tid.0];
            let mut max_instr = rem_phase
                .unwrap_or(u64::MAX)
                .min(task.remaining_instructions().max(1));
            if let Some(burst) = task.remaining_burst() {
                max_instr = max_instr.min(burst);
            }
            let time_for_max = time_to_complete_ns_with(&est, freq_hz, max_instr);
            let work_ns = budget_ns.min(time_for_max).max(1);

            let slice = synthesize(&w, self.platform.core_config(core), &est, work_ns);
            let instr = slice.instructions.min(max_instr);
            let energy = self.meter.accumulate(
                core,
                PowerState::Active {
                    activity: slice.activity,
                },
                work_ns,
            );
            self.charge(core, tid, slice.counters, work_ns, energy);
            consumed += work_ns;
            self.total_slices += 1;

            // 3. State transitions.
            let now = t + consumed;
            let task = &mut self.tasks[tid.0];
            task.progress += instr;
            task.burst_progress += instr;
            task.total_instructions += instr;
            task.epoch.slices += 1;

            let mut exited = false;
            if task.progress >= task.profile().total_instructions() {
                if task.is_repeating() {
                    task.iterations += 1;
                    task.progress = 0;
                    task.burst_progress = 0;
                } else {
                    task.state = TaskState::Exited;
                    task.exited_at_ns = Some(now);
                    exited = true;
                }
            }
            if exited {
                self.tracer.record(TraceEvent::Exit {
                    at_ns: now,
                    task: tid,
                });
                // The task can never be dispatched again.
                self.estimates.invalidate_workload(tid.0 as u64);
            }
            let task = &mut self.tasks[tid.0];
            if !task.is_exited() {
                if let Some(pattern) = task.profile().sleep_pattern() {
                    if task.burst_progress >= pattern.burst_instructions && pattern.sleep_ns > 0 {
                        task.burst_progress = 0;
                        let wake_at_ns = now + pattern.sleep_ns;
                        task.state = TaskState::Sleeping { wake_at_ns };
                        self.wake_heaps[core.0].push(Reverse((wake_at_ns, tid)));
                        self.tracer.record(TraceEvent::Sleep {
                            at_ns: now,
                            task: tid,
                            wake_at_ns,
                        });
                    }
                }
            }
            self.tracer.record(TraceEvent::Slice {
                at_ns: t,
                task: tid,
                core,
                duration_ns: work_ns,
                instructions: instr,
            });
        }

        // 4. Update vruntime and requeue if still runnable.
        let task = &mut self.tasks[tid.0];
        task.vruntime_ns += CfsRunQueue::vruntime_delta(consumed, weight);
        let new_v = task.vruntime_ns;
        self.queues[core.0].advance_min_vruntime(new_v);
        if matches!(task.state, TaskState::Runnable) {
            let v = self.queues[core.0].enqueue(tid, new_v, weight);
            self.tasks[tid.0].vruntime_ns = v;
        }
        consumed
    }

    /// Attributes a slice's counters/time/energy to both the task and
    /// the core (they must always agree — the estimation invariant).
    pub(crate) fn charge(
        &mut self,
        core: CoreId,
        tid: TaskId,
        counters: CounterSample,
        duration_ns: u64,
        energy_j: f64,
    ) {
        let task = &mut self.tasks[tid.0];
        task.epoch.counters += counters;
        task.epoch.runtime_ns += duration_ns;
        task.epoch.energy_j += energy_j;
        task.total_runtime_ns += duration_ns;

        let accum = &mut self.core_epoch[core.0];
        accum.counters += counters;
        accum.busy_ns += duration_ns;
        accum.energy_j += energy_j;

        self.sensors.record(core, counters, energy_j, duration_ns);
    }

    pub(crate) fn account_sleep(&mut self, core: CoreId, duration_ns: u64) {
        let cfg = self.platform.core_config(core);
        let cycles = (duration_ns as f64 * 1e-9 * cfg.freq_hz).round() as u64;
        let counters = CounterSample {
            cy_sleep: cycles,
            ..Default::default()
        };
        let energy = self
            .meter
            .accumulate(core, PowerState::Sleeping, duration_ns);
        let accum = &mut self.core_epoch[core.0];
        accum.counters += counters;
        accum.sleep_ns += duration_ns;
        accum.energy_j += energy;
        self.sensors.record(core, counters, energy, duration_ns);
    }

    /// Whether a heap entry still describes a live sleep on `core`.
    /// Migration and duplicate pushes leave entries behind whose task
    /// has since moved, woken or re-slept; those match on none of the
    /// three conditions and are dropped where they are popped.
    fn wake_entry_valid(&self, core: CoreId, wake_ns: u64, tid: TaskId) -> bool {
        let task = &self.tasks[tid.0];
        task.core() == core
            && matches!(task.state, TaskState::Sleeping { wake_at_ns } if wake_at_ns == wake_ns)
    }

    pub(crate) fn wake_due(&mut self, core: CoreId, t: u64) {
        while let Some(&Reverse((wake_ns, tid))) = self.wake_heaps[core.0].peek() {
            if wake_ns > t {
                break;
            }
            self.wake_heaps[core.0].pop();
            if !self.wake_entry_valid(core, wake_ns, tid) {
                continue; // lazy deletion of a stale entry
            }
            let task = &self.tasks[tid.0];
            let weight = task.weight();
            let vr = task.vruntime_ns;
            self.tasks[tid.0].state = TaskState::Runnable;
            let v = self.queues[core.0].enqueue(tid, vr, weight);
            self.tasks[tid.0].vruntime_ns = v;
            self.tracer.record(TraceEvent::Wake {
                at_ns: t,
                task: tid,
            });
        }
    }

    pub(crate) fn next_wake_ns(&mut self, core: CoreId) -> Option<u64> {
        while let Some(&Reverse((wake_ns, tid))) = self.wake_heaps[core.0].peek() {
            if self.wake_entry_valid(core, wake_ns, tid) {
                return Some(wake_ns);
            }
            self.wake_heaps[core.0].pop(); // lazy deletion
        }
        None
    }

    // ------------------------------------------------------------------
    // Epoch boundary: sensing report, migration, bookkeeping
    // ------------------------------------------------------------------

    fn build_epoch_report(&mut self) -> EpochReport {
        let duration_ns = self.config.epoch_ns();
        let tasks = self
            .tasks
            .iter()
            .filter(|t| !t.is_exited() || t.epoch.runtime_ns > 0)
            .map(|t| TaskEpochStats {
                task: t.id(),
                core: t.core(),
                counters: t.epoch.counters,
                runtime_ns: t.epoch.runtime_ns,
                energy_j: t.epoch.energy_j,
                utilization: t.epoch.runtime_ns as f64 / duration_ns as f64,
                alive: !t.is_exited(),
                kernel_thread: t.is_kernel_thread(),
                weight: t.weight(),
                allowed: t.affinity(),
            })
            .collect();
        let cores = self
            .platform
            .cores()
            .map(|c| {
                let a = &self.core_epoch[c.0];
                CoreEpochStats {
                    core: c,
                    counters: a.counters,
                    busy_ns: a.busy_ns,
                    sleep_ns: a.sleep_ns,
                    energy_j: a.energy_j,
                    online: self.core_online[c.0],
                }
            })
            .collect();
        let mut report = EpochReport {
            epoch: self.epoch_index,
            duration_ns,
            now_ns: self.now_ns,
            tasks,
            cores,
        };
        // Sensor faults corrupt what the controller *sees*; the ground
        // truth in `sensors` and the epoch accumulators stays clean.
        // (Under active faults the per-task and per-core ledgers of the
        // report may deliberately disagree — sensors lie independently.)
        if let Some(h) = self.faults.as_mut() {
            h.advance_to_epoch(report.epoch);
            if !h.is_quiescent() {
                for t in &mut report.tasks {
                    let (c, e) =
                        h.corrupt_reading(t.core.0, t.task.0 as u64 + 1, t.counters, t.energy_j);
                    t.counters = c;
                    t.energy_j = e;
                }
                for core in &mut report.cores {
                    let (c, e) = h.corrupt_reading(core.core.0, 0, core.counters, core.energy_j);
                    core.counters = c;
                    core.energy_j = e;
                }
            }
        }
        report
    }

    /// Applies a new allocation: migrates every live task whose target
    /// differs from its current core (the `set_cpus_allowed_ptr()`
    /// path), charging the migration cost. Entries that cannot be
    /// applied — unknown ids, exited tasks, affinity violations,
    /// offline targets, transient apply-path failures — are skipped,
    /// and the returned [`AppliedAllocation`] reports exactly what
    /// landed and what was rejected (also kept in
    /// [`System::last_applied`]).
    pub fn apply_allocation(&mut self, alloc: &Allocation) -> AppliedAllocation {
        let mut applied = AppliedAllocation {
            requested: alloc.len(),
            ..Default::default()
        };
        for (tid, target) in alloc.iter() {
            if tid.0 >= self.tasks.len() {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::UnknownTask));
                continue;
            }
            if target.0 >= self.platform.num_cores() {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::UnknownCore));
                continue;
            }
            let (current, state) = {
                let t = &self.tasks[tid.0];
                (t.core(), t.state)
            };
            if matches!(state, TaskState::Exited) {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::Exited));
                continue;
            }
            if current == target {
                continue; // no-op entry, neither migrated nor rejected
            }
            if !self.tasks[tid.0].allows_core(target) {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::AffinityForbidden));
                continue;
            }
            if !self.core_online[target.0] {
                applied
                    .rejected
                    .push((tid, target, MigrationReject::OfflineCore));
                continue;
            }
            if let Some(m) = self.migration_fail.as_mut() {
                if m.fails() {
                    applied
                        .rejected
                        .push((tid, target, MigrationReject::TransientFailure));
                    continue;
                }
            }
            self.migrate_task(tid, target);
            applied.migrated.push((tid, current, target));
        }
        self.alloc_totals.absorb(&applied);
        if let Some(tel) = &self.telemetry {
            let reasons = [
                (
                    "unknown_task",
                    applied.rejected_with(MigrationReject::UnknownTask) as u64,
                ),
                (
                    "unknown_core",
                    applied.rejected_with(MigrationReject::UnknownCore) as u64,
                ),
                (
                    "exited",
                    applied.rejected_with(MigrationReject::Exited) as u64,
                ),
                (
                    "affinity_forbidden",
                    applied.rejected_with(MigrationReject::AffinityForbidden) as u64,
                ),
                (
                    "offline_core",
                    applied.rejected_with(MigrationReject::OfflineCore) as u64,
                ),
                (
                    "transient_failure",
                    applied.rejected_with(MigrationReject::TransientFailure) as u64,
                ),
            ];
            tel.borrow_mut().record_apply(
                applied.requested as u64,
                applied.migrated.len() as u64,
                &reasons,
            );
        }
        self.last_applied = Some(applied.clone());
        applied
    }

    /// Unconditionally moves a live task to `target` (queues, debt,
    /// wake heap, trace). Callers have already validated the move.
    fn migrate_task(&mut self, tid: TaskId, target: CoreId) {
        let (current, state, weight, vr) = {
            let t = &self.tasks[tid.0];
            (t.core(), t.state, t.weight(), t.vruntime_ns)
        };
        if matches!(state, TaskState::Runnable) {
            self.queues[current.0].dequeue(tid, vr, weight);
            let v = self.queues[target.0].enqueue(tid, vr, weight);
            self.tasks[tid.0].vruntime_ns = v;
        }
        let task = &mut self.tasks[tid.0];
        task.core = target;
        task.migration_debt_ns += self.config.migration_cost_ns;
        task.migrations += 1;
        self.total_migrations += 1;
        if !self.topology.same_domain(current, target) {
            self.cross_cluster_migrations += 1;
        }
        // A sleeping migrant must be woken by its *new* core; the
        // entry left on the old core's heap goes stale and is
        // lazily dropped.
        if let TaskState::Sleeping { wake_at_ns } = state {
            self.wake_heaps[target.0].push(Reverse((wake_at_ns, tid)));
        }
        self.tracer.record(TraceEvent::Migrate {
            at_ns: self.now_ns,
            task: tid,
            from: current,
            to: target,
        });
    }

    // ------------------------------------------------------------------
    // Fault injection: hotplug, throttling, sensor and migration faults
    // ------------------------------------------------------------------

    /// Hotplugs a core out (`online = false`) or back in. Taking a core
    /// offline evacuates its live tasks to the least-loaded online core
    /// their affinity allows — or, like the kernel's
    /// `select_fallback_rq()`, to any online core when affinity leaves
    /// no choice. No-op if the core is already in the requested state.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range, or offlining it would leave
    /// zero online cores.
    pub fn set_core_online(&mut self, core: CoreId, online: bool) {
        assert!(core.0 < self.platform.num_cores(), "no such core {core}");
        if self.core_online[core.0] == online {
            return;
        }
        if !online {
            assert!(
                self.core_online.iter().filter(|&&o| o).count() > 1,
                "cannot offline the last online core"
            );
            self.core_online[core.0] = false;
            let victims: Vec<TaskId> = self
                .tasks
                .iter()
                .filter(|t| !t.is_exited() && t.core() == core)
                .map(Task::id)
                .collect();
            for tid in victims {
                let target = self.evacuation_target(tid);
                self.migrate_task(tid, target);
            }
        } else {
            self.core_online[core.0] = true;
        }
    }

    /// Picks the evacuation core for `tid`: the least-loaded online
    /// core its affinity allows, else the least-loaded online core
    /// outright (affinity is broken rather than losing the task).
    #[expect(
        clippy::expect_used,
        reason = "set_core_online refuses to offline the last core, so at least one online core always exists"
    )]
    fn evacuation_target(&self, tid: TaskId) -> CoreId {
        let mut best: Option<(u64, CoreId)> = None;
        let mut best_any: Option<(u64, CoreId)> = None;
        for c in self.platform.cores() {
            if !self.core_online[c.0] {
                continue;
            }
            let w: u64 = self
                .tasks
                .iter()
                .filter(|t| t.core() == c && !t.is_exited())
                .map(Task::weight)
                .sum();
            if best_any.is_none_or(|(bw, _)| w < bw) {
                best_any = Some((w, c));
            }
            if self.tasks[tid.0].allows_core(c) && best.is_none_or(|(bw, _)| w < bw) {
                best = Some((w, c));
            }
        }
        best.or(best_any).expect("at least one online core").1
    }

    /// Whether `core` is online.
    pub fn core_online(&self, core: CoreId) -> bool {
        self.core_online[core.0]
    }

    /// Thermally throttles `core` to `duty` in `(0, 1]`: it executes
    /// only that fraction of every scheduling period. `1.0` restores
    /// full speed.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `duty` is not in `(0, 1]`.
    pub fn set_core_throttle(&mut self, core: CoreId, duty: f64) {
        assert!(core.0 < self.platform.num_cores(), "no such core {core}");
        assert!(
            duty.is_finite() && duty > 0.0 && duty <= 1.0,
            "throttle duty must be in (0, 1], got {duty}"
        );
        self.core_duty[core.0] = duty;
    }

    /// Installs a sensor [`FaultPlan`]: every subsequent epoch report
    /// is filtered through a [`FaultHarness`] seeded with `seed`. An
    /// empty plan keeps the harness quiescent (reports stay
    /// bit-identical to the no-harness path).
    pub fn set_fault_plan(&mut self, plan: FaultPlan, seed: u64) {
        self.faults = Some(FaultHarness::new(plan, seed, self.platform.num_cores()));
    }

    /// Fault-harness telemetry, if a plan is installed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultHarness::stats)
    }

    /// Makes every migration attempt fail independently with
    /// probability `prob` (0 disables the fault model).
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn set_migration_failure(&mut self, prob: f64, seed: u64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "migration failure probability must be in [0, 1], got {prob}"
        );
        self.migration_fail = if prob > 0.0 {
            Some(MigrationFaultModel::new(prob, seed))
        } else {
            None
        };
    }

    /// Outcome of the most recent [`System::apply_allocation`] call.
    pub fn last_applied(&self) -> Option<&AppliedAllocation> {
        self.last_applied.as_ref()
    }

    fn finish_epoch(&mut self) {
        self.tracer.record(TraceEvent::EpochEnd {
            at_ns: self.now_ns,
            epoch: self.epoch_index,
        });
        if let Some(tel) = &self.telemetry {
            tel.borrow_mut().epoch_end(
                self.now_ns,
                self.total_slices,
                self.estimates.hits(),
                self.estimates.misses(),
            );
        }
        for t in &mut self.tasks {
            t.reset_epoch();
        }
        for a in &mut self.core_epoch {
            *a = CoreEpochAccum::default();
        }
        self.epoch_index += 1;
    }

    /// Whole-run summary statistics.
    pub fn stats(&self) -> SystemStats {
        SystemStats::collect(self)
    }

    /// Total migrations performed since boot.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// The platform's cluster topology (derived at boot).
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Migrations since boot that crossed a cluster boundary.
    pub fn cross_cluster_migrations(&self) -> u64 {
        self.cross_cluster_migrations
    }

    /// Cumulative balancer-migration accounting (every
    /// [`System::apply_allocation`] folded into per-reason totals).
    pub fn migration_totals(&self) -> MigrationTotals {
        self.alloc_totals
    }

    /// Total scheduling slices dispatched since boot.
    pub fn total_slices(&self) -> u64 {
        self.total_slices
    }

    /// Moves every core of type `r` to a new (frequency, voltage)
    /// operating point — a DVFS transition. Atomically with the
    /// platform change this bumps the type's DVFS generation (part of
    /// every estimate-cache key), drops the type's cached estimates,
    /// and recalibrates the power model of each affected core, so no
    /// stale characterization can survive the switch.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range, or the operating point is not
    /// strictly positive and finite.
    pub fn set_operating_point(&mut self, r: CoreTypeId, freq_hz: f64, vdd: f64) {
        self.platform.set_type_operating_point(r, freq_hz, vdd);
        self.dvfs_level[r.0] = self.dvfs_level[r.0].wrapping_add(1);
        self.estimates.invalidate_core_type(r.0 as u32);
        for c in self.platform.cores_of_type(r) {
            self.meter.recalibrate(c, self.platform.core_config(c));
        }
    }

    /// Enables or disables estimate memoization (enabled by default).
    /// The disabled path re-evaluates the pipeline model on every
    /// slice; it exists so parity tests can prove both paths produce
    /// bit-identical simulations.
    pub fn set_estimate_caching(&mut self, enabled: bool) {
        self.estimates.set_enabled(enabled);
    }

    /// The dispatch estimate cache (hit/miss telemetry for the perf
    /// harness).
    pub fn estimate_cache(&self) -> &EstimateCache {
        &self.estimates
    }

    pub(crate) fn meter(&self) -> &EnergyMeter {
        &self.meter
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::balancer::NullBalancer;
    use archsim::{SensorInterface, WorkloadCharacteristics};
    use workloads::SleepPattern;

    fn cpu_profile(instr: u64) -> WorkloadProfile {
        WorkloadProfile::uniform("cpu", WorkloadCharacteristics::balanced(), instr)
    }

    #[test]
    fn single_task_runs_and_exits() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(1_000_000), CoreId(1));
        let mut nb = NullBalancer;
        let epochs = sys.run_to_completion(&mut nb, 100);
        assert!(epochs >= 1);
        let t = sys.task(tid);
        assert!(t.is_exited());
        assert!(t.total_instructions() >= 1_000_000);
        assert!(t.exited_at_ns().is_some());
        assert_eq!(sys.live_tasks(), 0);
    }

    #[test]
    fn time_advances_by_period() {
        let cfg = SystemConfig::default();
        let mut sys = System::new(Platform::quad_heterogeneous(), cfg);
        sys.run_period();
        assert_eq!(sys.now_ns(), cfg.period_ns);
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        assert_eq!(sys.now_ns(), cfg.period_ns + cfg.epoch_ns());
        assert_eq!(sys.epochs_completed(), 1);
    }

    #[test]
    fn idle_cores_sleep_and_draw_little_power() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        // All-idle platform: energy is only sleep power.
        let e = sys.sensors().total_energy_j();
        // Sum of sleep powers: 2% of (8.62+1.41+0.53+0.095) over 60 ms.
        let expected = 0.02 * (8.62 + 1.41 + 0.53 + 0.095) * 0.06;
        assert!(
            (e - expected).abs() / expected < 0.01,
            "e={e} expected={expected}"
        );
    }

    #[test]
    fn two_equal_tasks_share_a_core_fairly() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let a = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(2));
        let b = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(2));
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let ra = report
            .tasks
            .iter()
            .find(|t| t.task == a)
            .expect("a in report");
        let rb = report
            .tasks
            .iter()
            .find(|t| t.task == b)
            .expect("b in report");
        let ratio = ra.runtime_ns as f64 / rb.runtime_ns as f64;
        assert!((ratio - 1.0).abs() < 0.05, "CFS fairness violated: {ratio}");
        // Together they filled the epoch.
        let total = ra.runtime_ns + rb.runtime_ns;
        assert!((total as f64 / report.duration_ns as f64 - 1.0).abs() < 0.01);
    }

    #[test]
    fn weighted_tasks_share_proportionally() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let heavy = sys.next_task_id();
        sys.spawn_task(Task::new(heavy, cpu_profile(u64::MAX / 4), CoreId(1)).with_nice(-5));
        let light = sys.next_task_id();
        sys.spawn_task(Task::new(light, cpu_profile(u64::MAX / 4), CoreId(1)).with_nice(5));
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let rh = report
            .tasks
            .iter()
            .find(|t| t.task == heavy)
            .expect("heavy");
        let rl = report
            .tasks
            .iter()
            .find(|t| t.task == light)
            .expect("light");
        // weight(-5)=3121, weight(5)=335: ratio ~9.3, allow slack for
        // min-granularity rounding.
        let ratio = rh.runtime_ns as f64 / rl.runtime_ns as f64;
        assert!(ratio > 4.0, "heavy should dominate: {ratio}");
    }

    #[test]
    fn interactive_task_sleeps() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let p = cpu_profile(1_000_000_000).with_sleep(SleepPattern::new(1_000_000, 5_000_000));
        let tid = sys.spawn_on(p, CoreId(0));
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let rt = report.tasks.iter().find(|t| t.task == tid).expect("t");
        // Duty cycle must be well below 1: the task sleeps most of the time.
        assert!(
            rt.utilization < 0.6,
            "interactive task should sleep: util {}",
            rt.utilization
        );
        assert!(rt.utilization > 0.01);
        // The core slept while the task slept.
        assert!(report.cores[0].sleep_ns > 0);
    }

    #[test]
    fn task_and_core_accounting_agree() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(3));
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        for core in [CoreId(0), CoreId(3)] {
            let task_instr: u64 = report
                .tasks
                .iter()
                .filter(|t| t.core == core)
                .map(|t| t.counters.instructions)
                .sum();
            let core_instr = report.cores[core.0].counters.instructions;
            assert_eq!(task_instr, core_instr, "core {core} ledger mismatch");
        }
    }

    #[test]
    fn migration_moves_task_and_charges_debt() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        let mut alloc = Allocation::new();
        alloc.assign(tid, CoreId(3));
        sys.apply_allocation(&alloc);
        assert_eq!(sys.task(tid).core(), CoreId(3));
        assert_eq!(sys.task(tid).migrations(), 1);
        assert_eq!(sys.total_migrations(), 1);
        // Re-applying the same allocation is a no-op.
        sys.apply_allocation(&alloc);
        assert_eq!(sys.task(tid).migrations(), 1);
        // And the task makes progress on the new core.
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        let rt = report.tasks.iter().find(|t| t.task == tid).expect("t");
        assert_eq!(rt.core, CoreId(3));
        assert!(rt.counters.instructions > 0);
    }

    #[test]
    fn invalid_allocation_entries_ignored() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(1_000), CoreId(0));
        let mut alloc = Allocation::new();
        alloc.assign(TaskId(99), CoreId(1)); // no such task
        alloc.assign(tid, CoreId(42)); // no such core
        sys.apply_allocation(&alloc);
        assert_eq!(sys.task(tid).core(), CoreId(0));
        assert_eq!(sys.total_migrations(), 0);
    }

    #[test]
    fn repeating_task_iterates() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.next_task_id();
        sys.spawn_task(Task::new(tid, cpu_profile(1_000_000), CoreId(1)).repeating());
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        let t = sys.task(tid);
        assert!(!t.is_exited());
        assert!(t.iterations() > 1, "fast profile should loop many times");
    }

    #[test]
    fn spawn_balances_across_cores() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let ids: Vec<TaskId> = (0..4).map(|_| sys.spawn(cpu_profile(1_000_000))).collect();
        let mut cores: Vec<usize> = ids.iter().map(|&t| sys.task(t).core().0).collect();
        cores.sort_unstable();
        assert_eq!(cores, vec![0, 1, 2, 3], "fork balancing spreads tasks");
    }

    #[test]
    #[should_panic(expected = "scheduling period must be positive")]
    fn zero_period_rejected() {
        let cfg = SystemConfig {
            period_ns: 0,
            ..SystemConfig::default()
        };
        System::new(Platform::quad_heterogeneous(), cfg);
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn zero_epoch_rejected() {
        let cfg = SystemConfig {
            epoch_periods: 0,
            ..SystemConfig::default()
        };
        System::new(Platform::quad_heterogeneous(), cfg);
    }

    #[test]
    fn tracing_captures_lifecycle() {
        use crate::trace::{TraceEvent, TraceLevel};
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.enable_tracing(TraceLevel::Lifecycle, 1_000);
        let tid = sys.spawn_on(
            cpu_profile(1_000_000).with_sleep(SleepPattern::new(400_000, 2_000_000)),
            CoreId(1),
        );
        let mut nb = NullBalancer;
        sys.run_to_completion(&mut nb, 20);
        let events = sys.tracer().events();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Spawn { task, .. } if *task == tid)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Sleep { task, .. } if *task == tid)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Wake { task, .. } if *task == tid)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Exit { task, .. } if *task == tid)));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::EpochEnd { .. })));
        // Lifecycle level omits slices.
        assert!(!events.iter().any(|e| matches!(e, TraceEvent::Slice { .. })));
        // Timestamps are non-decreasing.
        let mut prev = 0;
        for e in &events {
            assert!(e.at_ns() >= prev);
            prev = e.at_ns();
        }
    }

    #[test]
    fn tracing_full_level_records_slices_and_migrations() {
        use crate::trace::{TraceEvent, TraceLevel};
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.enable_tracing(TraceLevel::Full, 10_000);
        let tid = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.run_period();
        let mut alloc = Allocation::new();
        alloc.assign(tid, CoreId(2));
        sys.apply_allocation(&alloc);
        sys.run_period();
        let events = sys.tracer().events();
        assert!(events.iter().any(|e| matches!(e, TraceEvent::Slice { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Migrate { task, from, to, .. }
                if *task == tid && *from == CoreId(0) && *to == CoreId(2))));
        // CSV export includes headers and the migration line.
        let csv = sys.tracer().to_csv();
        assert!(csv.contains("migrate"));
    }

    #[test]
    fn sleeping_migrant_wakes_on_new_core() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        // A short burst then a long sleep, so the task is asleep when
        // the allocation is applied at the epoch boundary.
        let p = cpu_profile(1_000_000_000).with_sleep(SleepPattern::new(1_000_000, 80_000_000));
        let tid = sys.spawn_on(p, CoreId(0));
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        assert!(
            matches!(sys.task(tid).state(), TaskState::Sleeping { .. }),
            "test premise: task asleep at the boundary"
        );
        let mut alloc = Allocation::new();
        alloc.assign(tid, CoreId(2));
        sys.apply_allocation(&alloc);
        let report = sys.run_epoch(&mut nb);
        let rt = report.tasks.iter().find(|t| t.task == tid).expect("t");
        assert_eq!(rt.core, CoreId(2));
        assert!(
            rt.counters.instructions > 0,
            "task must wake and run on its new core"
        );
    }

    #[test]
    fn total_slices_counts_dispatches() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        assert_eq!(sys.total_slices(), 0);
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        sys.run_epoch(&mut nb);
        assert!(sys.total_slices() > 4, "both tasks sliced repeatedly");
        let cache = sys.estimate_cache();
        assert_eq!(cache.hits() + cache.misses(), sys.total_slices());
        // Two single-phase tasks on one core type: exactly two misses.
        assert_eq!(cache.misses(), 2);
        assert!(cache.hit_rate() > 0.9, "steady phases should mostly hit");
    }

    #[test]
    fn dvfs_change_invalidates_estimates_and_slows_core() {
        let run = |dvfs: bool, cached: bool| {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            sys.set_estimate_caching(cached);
            sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(1));
            let mut nb = NullBalancer;
            sys.run_epoch(&mut nb);
            if dvfs {
                sys.set_operating_point(archsim::CoreTypeId(1), 0.75e9, 0.65);
            }
            sys.run_epoch(&mut nb);
            (
                sys.sensors().total_instructions(),
                sys.sensors().total_energy_j().to_bits(),
            )
        };
        let (instr_base, _) = run(false, true);
        let (instr_dvfs, energy_dvfs) = run(true, true);
        assert!(
            instr_dvfs < instr_base,
            "halving the Big core's clock must reduce committed work \
             ({instr_dvfs} !< {instr_base}): stale cached estimate?"
        );
        // The cached run of the DVFS scenario must equal the uncached
        // one bit-for-bit — invalidation leaves no stale entries.
        assert_eq!((instr_dvfs, energy_dvfs), run(true, false));
    }

    #[test]
    fn hotplug_evacuates_and_rejects_migrations() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let a = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(2));
        let b = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.set_core_online(CoreId(2), false);
        assert!(!sys.core_online(CoreId(2)));
        assert_ne!(sys.task(a).core(), CoreId(2), "victim evacuated");
        // Migrating onto the offline core is rejected with a reason.
        let mut alloc = Allocation::new();
        alloc.assign(b, CoreId(2));
        let applied = sys.apply_allocation(&alloc);
        assert_eq!(applied.migrated.len(), 0);
        assert_eq!(
            applied.rejected,
            vec![(b, CoreId(2), MigrationReject::OfflineCore)]
        );
        assert_eq!(sys.last_applied().unwrap(), &applied);
        // The offline core schedules nothing and draws no energy.
        let e_before = sys.sensors().energy_j(CoreId(2));
        let mut nb = NullBalancer;
        sys.run_epoch(&mut nb);
        assert_eq!(sys.sensors().energy_j(CoreId(2)), e_before);
        // Plugging it back in makes it usable again.
        sys.set_core_online(CoreId(2), true);
        let applied = sys.apply_allocation(&alloc);
        assert_eq!(applied.migrated.len(), 1);
    }

    #[test]
    fn evacuation_honors_affinity_when_possible() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.next_task_id();
        // Allowed only on cores 1 and 3; starts on 1.
        sys.spawn_task(Task::new(tid, cpu_profile(u64::MAX / 4), CoreId(1)).with_affinity(0b1010));
        sys.set_core_online(CoreId(1), false);
        assert_eq!(sys.task(tid).core(), CoreId(3), "affinity respected");
    }

    #[test]
    #[should_panic(expected = "cannot offline the last online core")]
    fn last_core_cannot_go_offline() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        for j in 0..4 {
            sys.set_core_online(CoreId(j), false);
        }
    }

    #[test]
    fn migration_failure_rolls_per_attempt() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.set_migration_failure(1.0, 7);
        let mut alloc = Allocation::new();
        alloc.assign(tid, CoreId(3));
        let applied = sys.apply_allocation(&alloc);
        assert_eq!(
            applied.rejected,
            vec![(tid, CoreId(3), MigrationReject::TransientFailure)]
        );
        assert_eq!(sys.task(tid).core(), CoreId(0), "task stayed put");
        sys.set_migration_failure(0.0, 7);
        let applied = sys.apply_allocation(&alloc);
        assert_eq!(applied.migrated.len(), 1);
    }

    #[test]
    fn throttled_core_does_less_work() {
        let run = |duty: f64| {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(1));
            sys.set_core_throttle(CoreId(1), duty);
            let mut nb = NullBalancer;
            sys.run_epoch(&mut nb);
            sys.sensors().total_instructions()
        };
        let full = run(1.0);
        let half = run(0.5);
        assert!(
            (half as f64) < 0.6 * full as f64 && (half as f64) > 0.4 * full as f64,
            "50% duty should halve committed work: {half} vs {full}"
        );
    }

    #[test]
    fn fault_plan_corrupts_report_not_ground_truth() {
        use archsim::FaultKind;
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        sys.spawn_on(cpu_profile(u64::MAX / 4), CoreId(0));
        sys.set_fault_plan(
            FaultPlan::new().inject(0, None, FaultKind::StuckCounters { prob: 1.0 }),
            99,
        );
        let mut nb = NullBalancer;
        let report = sys.run_epoch(&mut nb);
        assert_eq!(
            report.cores[0].counters.instructions, 0,
            "stuck counters read as zero deltas"
        );
        assert!(
            sys.sensors().total_instructions() > 0,
            "ground truth keeps advancing"
        );
        assert!(sys.fault_stats().unwrap().stuck_core_epochs >= 4);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical() {
        let run = |harness: bool| {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            if harness {
                sys.set_fault_plan(FaultPlan::new(), 1234);
            }
            sys.spawn_on(
                cpu_profile(50_000_000).with_sleep(SleepPattern::new(500_000, 700_000)),
                CoreId(0),
            );
            sys.spawn_on(cpu_profile(80_000_000), CoreId(1));
            let mut nb = NullBalancer;
            let mut fingerprints = Vec::new();
            for _ in 0..3 {
                let report = sys.run_epoch(&mut nb);
                fingerprints.push(serde_json::to_string(&report).expect("serialize"));
            }
            fingerprints
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deterministic_simulation() {
        let run = || {
            let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
            sys.spawn_on(
                cpu_profile(50_000_000).with_sleep(SleepPattern::new(500_000, 700_000)),
                CoreId(0),
            );
            sys.spawn_on(cpu_profile(80_000_000), CoreId(1));
            let mut nb = NullBalancer;
            for _ in 0..3 {
                sys.run_epoch(&mut nb);
            }
            (
                sys.sensors().total_instructions(),
                sys.sensors().total_energy_j().to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn slice_bound_stays_positive_and_within_the_period() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(1_000_000_000), CoreId(0));
        let t = 0;
        for remaining in [
            1,
            2,
            SLICE_FLOOR_NS - 1,
            SLICE_FLOOR_NS,
            SLICE_FLOOR_NS + 1,
            6_000_000,
        ] {
            let bound = sys.slice_bound(CoreId(0), tid, t, t + remaining, None);
            assert!(bound >= 1, "zero-length slice at remaining={remaining}");
            assert!(bound <= remaining, "overshoot at remaining={remaining}");
            if remaining <= SLICE_FLOOR_NS {
                // Below the floor the only legal slice is the remainder
                // itself: the floor is capped at `remaining`.
                assert_eq!(bound, remaining);
            } else {
                assert!(bound >= SLICE_FLOOR_NS, "floor violated at {remaining}");
            }
        }
    }

    #[test]
    fn imminent_wake_cannot_drag_the_slice_below_the_floor() {
        let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
        let tid = sys.spawn_on(cpu_profile(1_000_000_000), CoreId(0));
        let (t, end_ns) = (0, 6_000_000);
        // A wake-up 1 ns away shrinks the requested slice to 1 ns, but
        // the floor wins: serving wake-ups promptly never buys a
        // degenerate slice.
        let bound = sys.slice_bound(CoreId(0), tid, t, end_ns, Some(t + 1));
        assert_eq!(bound, SLICE_FLOOR_NS);
        // A wake-up past the floor trims the slice to exactly the wake.
        let wake = t + SLICE_FLOOR_NS + 5;
        let bound = sys.slice_bound(CoreId(0), tid, t, end_ns, Some(wake));
        assert_eq!(bound, wake - t);
        // ... unless the period ends first.
        let bound = sys.slice_bound(CoreId(0), tid, t, SLICE_FLOOR_NS + 2, Some(wake));
        assert_eq!(bound, SLICE_FLOOR_NS + 2);
    }

    #[test]
    fn sub_floor_periods_make_forward_progress() {
        // Regression: with `period_ns < SLICE_FLOOR_NS` every slice of
        // every period has `remaining < SLICE_FLOOR_NS`, so a floor that
        // is not capped at the remaining time would either overshoot the
        // period end or (if clamped to zero) spin forever.
        let cfg = SystemConfig {
            period_ns: 5_000,
            epoch_periods: 4,
            ..SystemConfig::default()
        };
        let mut sys = System::new(Platform::quad_heterogeneous(), cfg);
        sys.spawn_on(
            cpu_profile(40_000_000).with_sleep(SleepPattern::new(500_000, 700_000)),
            CoreId(0),
        );
        sys.spawn_on(cpu_profile(40_000_000), CoreId(1));
        let mut nb = NullBalancer;
        for _ in 0..5 {
            sys.run_epoch(&mut nb);
        }
        assert_eq!(sys.now_ns(), 5 * cfg.epoch_ns());
        assert!(sys.total_slices() > 0);
        assert!(sys.sensors().total_instructions() > 0);
    }
}
