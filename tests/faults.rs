//! Fault-injection integration tests: the closed loop against sensor
//! corruption, hotplug and migration failure.
//!
//! The contract under test has two halves. First, the fault harness is
//! *transparent when empty*: wrapping the sensor bank with a no-op
//! `FaultPlan` must leave every reading and every `EpochReport`
//! bit-identical (same serde_json fingerprint discipline as
//! `hotpath_parity.rs`). Second, under real faults the balancer
//! *degrades instead of derailing*: it never panics, never places work
//! on an offline core, and retains most of the fault-free energy
//! efficiency (the issue's ≥ 70 % acceptance bar).

use archsim::{
    CoreId, CounterSample, FaultClass, FaultKind, FaultPlan, FaultySensorBank, Platform,
    SensorBank, SensorInterface,
};
use kernelsim::{LoadBalancer, MigrationReject, System, SystemConfig, TaskId};
use smartbalance::{
    DegradeConfig, DegradeMode, Policy, ShardConfig, ShardedBalancer, SmartBalance,
    SmartBalanceConfig, VanillaBalancer,
};
use workloads::SyntheticGenerator;

/// A deterministic pseudo-random counter stream for bank-level tests.
fn sample(i: u64) -> CounterSample {
    CounterSample {
        cy_busy: 1_000_000 + i * 7,
        cy_idle: 40_000 + i * 3,
        cy_mem_stall: 90_000 + i,
        instructions: 800_000 + i * 11,
        mem_instructions: 200_000 + i * 5,
        branch_instructions: 90_000 + i * 2,
        branch_mispredicts: 4_000 + i,
        l1d_accesses: 210_000 + i * 5,
        l1d_misses: 9_000 + i,
        l1i_accesses: 780_000 + i * 9,
        l1i_misses: 1_500 + i,
        dtlb_accesses: 210_000 + i * 5,
        dtlb_misses: 700 + i,
        itlb_accesses: 780_000 + i * 9,
        itlb_misses: 90 + i,
        ..CounterSample::default()
    }
}

/// Satellite (c): with an empty `FaultPlan`, `FaultySensorBank` must be
/// observationally identical to the bare `SensorBank` it wraps —
/// checked through `&dyn SensorInterface` so the trait-object path the
/// balancer actually uses is what's covered.
#[test]
fn empty_plan_bank_reads_are_bit_identical() {
    let platform = Platform::quad_heterogeneous();
    let mut plain = SensorBank::new(&platform);
    let mut faulty = FaultySensorBank::new(&platform, FaultPlan::new(), 0xFA17);

    // Identical record streams into both banks.
    for epoch in 0..8u64 {
        for core in 0..4usize {
            let i = epoch * 4 + core as u64;
            let energy = 1e-3 + i as f64 * 1e-5;
            plain.record(CoreId(core), sample(i), energy, 6_000_000);
            faulty.record(CoreId(core), sample(i), energy, 6_000_000);
        }
        faulty.advance_epoch(epoch);
    }

    let a: &dyn SensorInterface = &plain;
    let b: &dyn SensorInterface = &faulty;
    for core in (0..4).map(CoreId) {
        let (ca, cb) = (a.counters(core), b.counters(core));
        assert_eq!(
            serde_json::to_string(&ca).unwrap(),
            serde_json::to_string(&cb).unwrap(),
            "counters diverged on {core:?}"
        );
        assert_eq!(
            a.energy_j(core).to_bits(),
            b.energy_j(core).to_bits(),
            "energy diverged on {core:?}"
        );
        assert_eq!(a.elapsed_ns(core), b.elapsed_ns(core));
    }
}

/// Fingerprints of a closed-loop SmartBalance run, optionally with a
/// fault harness installed.
fn run_closed_loop(plan: Option<FaultPlan>, epochs: u64) -> (Vec<String>, u64, u64) {
    let platform = Platform::quad_heterogeneous();
    let config = SmartBalanceConfig {
        train_corpus: 80,
        ..SmartBalanceConfig::default()
    };
    let mut policy = SmartBalance::with_config(&platform, config);
    let mut sys = System::new(platform, SystemConfig::default());
    if let Some(p) = plan {
        sys.set_fault_plan(p, 0xFA17_2026);
    }
    let mut gen = SyntheticGenerator::new(0xFA57);
    for i in 0..8 {
        sys.spawn(gen.profile(format!("f{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }
    let mut fingerprints = Vec::new();
    for _ in 0..epochs {
        let report = sys.run_epoch(&mut policy);
        fingerprints.push(serde_json::to_string(&report).unwrap());
    }
    (
        fingerprints,
        sys.sensors().total_instructions(),
        sys.sensors().total_energy_j().to_bits(),
    )
}

/// The no-harness path and an installed-but-empty harness must produce
/// bit-identical `EpochReport` streams end to end (acceptance criterion
/// and satellite (c) at the closed-loop level).
#[test]
fn empty_plan_closed_loop_is_bit_identical() {
    let (without, instr_a, energy_a) = run_closed_loop(None, 10);
    let (with_empty, instr_b, energy_b) = run_closed_loop(Some(FaultPlan::new()), 10);
    for (epoch, (a, b)) in without.iter().zip(with_empty.iter()).enumerate() {
        assert_eq!(a, b, "EpochReport for epoch {epoch} diverged");
    }
    assert_eq!(instr_a, instr_b);
    assert_eq!(energy_a, energy_b, "energy must match to the last bit");
}

/// A non-empty plan must actually change the reports (the parity test
/// above must not be passing vacuously).
#[test]
fn injected_faults_change_the_reports() {
    let (clean, ..) = run_closed_loop(None, 10);
    let (faulty, ..) = run_closed_loop(
        Some(FaultPlan::new().inject(2, None, FaultKind::StuckCounters { prob: 1.0 })),
        10,
    );
    assert_eq!(clean[..2], faulty[..2], "identical before injection");
    assert_ne!(clean[2..], faulty[2..], "stuck counters must be visible");
}

/// Hotplug mid-run: the balancer keeps running, migrations toward the
/// dead core are rejected (never silently applied), and no live task is
/// ever reported on the offline core while it is down.
#[test]
fn hotplug_mid_run_never_places_tasks_on_offline_core() {
    let platform = Platform::quad_heterogeneous();
    let mut policy = SmartBalance::with_config(
        &platform,
        SmartBalanceConfig {
            train_corpus: 80,
            ..SmartBalanceConfig::default()
        },
    );
    let mut sys = System::new(platform, SystemConfig::default());
    let mut gen = SyntheticGenerator::new(0x4071);
    for i in 0..10 {
        sys.spawn(gen.profile(format!("h{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }
    let victim = CoreId(1);
    for epoch in 0..24u64 {
        if epoch == 6 {
            sys.set_core_online(victim, false);
        }
        if epoch == 18 {
            sys.set_core_online(victim, true);
        }
        let report = sys.run_epoch(&mut policy);
        if (6..18).contains(&epoch) {
            assert!(!sys.core_online(victim));
            for t in report.tasks.iter().filter(|t| t.alive) {
                assert_ne!(
                    t.core, victim,
                    "epoch {epoch}: live task {:?} on offline core",
                    t.task
                );
            }
            if let Some(applied) = sys.last_applied() {
                for &(task, to, reason) in &applied.rejected {
                    if reason == MigrationReject::OfflineCore {
                        assert_eq!(to, victim, "only the dead core rejects ({task:?})");
                    }
                }
            }
        }
    }
    // The core came back: it must be usable again.
    assert!(sys.core_online(victim));
}

/// Certain migration failure: every accepted move rolls a transient
/// failure, nothing migrates, and the system keeps making progress.
#[test]
fn certain_migration_failure_degrades_to_no_migrations() {
    let platform = Platform::quad_heterogeneous();
    let mut sys = System::new(platform, SystemConfig::default());
    sys.set_migration_failure(1.0, 0xBAD);
    let mut gen = SyntheticGenerator::new(0x517);
    for i in 0..6 {
        let p = gen.profile(format!("m{i}"), 3, u64::MAX / 64, false);
        sys.spawn_on(p, CoreId(0)); // stack everything on one core
    }
    let mut vb = VanillaBalancer::new();
    let mut transient = 0usize;
    for _ in 0..6 {
        sys.run_epoch(&mut vb);
        if let Some(applied) = sys.last_applied() {
            transient += applied.rejected_with(MigrationReject::TransientFailure);
            assert!(applied.migrated.is_empty(), "no move may survive prob 1.0");
        }
    }
    assert!(transient > 0, "the balancer must have attempted moves");
    assert_eq!(sys.stats().migrations, 0);
    assert!(sys.sensors().total_instructions() > 0, "work continued");
}

/// The sharded balancer against a whole-cluster catastrophe: cluster 1
/// first goes sensing-blind (every sample dropped, so its threads fall
/// back to cache replay and then the neutral prior), then is hotplugged
/// out entirely. The per-cluster shards and the global exchange stage
/// must keep running, never place a live thread on the dead cluster,
/// and never even *request* a migration onto it; when the cluster heals
/// and comes back, the shards must pick it up again.
#[test]
fn sharded_balancer_survives_whole_cluster_blackout_and_hotplug() {
    let platform = Platform::clustered_heterogeneous(4, 4);
    let cluster1: Vec<usize> = (4..8).collect();
    let cfg = SmartBalanceConfig {
        train_corpus: 80,
        shard: Some(ShardConfig::default()),
        ..SmartBalanceConfig::default()
    };
    let mut policy = Policy::Smart.build(&platform, Some(&cfg));
    assert_eq!(policy.name(), "smartbalance-sharded");

    let mut sys = System::new(platform, SystemConfig::default());
    // Blackout: from epoch 4 every sample on cluster 1 is lost in
    // transit, well before the hotplug at epoch 10 — the shards see the
    // cluster rot before it disappears.
    let mut plan = FaultPlan::new();
    for &c in &cluster1 {
        plan = plan.inject(4, Some(c), FaultKind::DroppedSamples { prob: 1.0 });
        plan = plan.clear(22, Some(c), FaultClass::Drop);
    }
    sys.set_fault_plan(plan, 0xB1AC_0007);

    let mut gen = SyntheticGenerator::new(0xC1A5);
    for i in 0..20 {
        sys.spawn(gen.profile(format!("c{i}"), 4, u64::MAX / 64, i % 2 == 0));
    }

    for epoch in 0..30u64 {
        if epoch == 10 {
            for &c in &cluster1 {
                sys.set_core_online(CoreId(c), false);
            }
        }
        if epoch == 22 {
            for &c in &cluster1 {
                sys.set_core_online(CoreId(c), true);
            }
        }
        let report = sys.run_epoch(policy.as_mut());
        if (10..22).contains(&epoch) {
            for t in report.tasks.iter().filter(|t| t.alive) {
                assert!(
                    !cluster1.contains(&t.core.0),
                    "epoch {epoch}: live task {:?} on blacked-out offline cluster core {}",
                    t.task,
                    t.core.0
                );
            }
        }
    }
    // The shards must respect the hotplug mask up front: not one
    // migration request toward the dead cluster, ever.
    let stats = sys.stats();
    assert_eq!(
        stats.migration_totals.offline_core, 0,
        "sharded balancer requested migrations onto offline cores"
    );
    assert!(
        sys.sensors().total_instructions() > 0,
        "work continued through the blackout"
    );
    // Healed and back online: the revived cluster is usable again.
    let revived = sys.tasks().iter().any(|t| cluster1.contains(&t.core().0));
    assert!(
        revived || sys.tasks().is_empty(),
        "no thread ever returned to the revived cluster"
    );
}

/// The issue's acceptance scenario: 20 % stuck counters on every core,
/// a total sensing-blackout burst, and one core hotplugged out and back
/// mid-run. The balancer must never panic, walk the degradation ladder
/// with hysteresis (down once the signature cache goes stale during the
/// blackout, back to `Full` after healing), and retain ≥ 70 % of the
/// fault-free energy efficiency.
#[test]
fn acceptance_chaos_scenario_retains_efficiency() {
    fn run(faulty: bool) -> (f64, SmartBalance) {
        let platform = Platform::quad_heterogeneous();
        let mut policy = SmartBalance::with_config(
            &platform,
            SmartBalanceConfig {
                train_corpus: 150,
                // Short signature TTL so the blackout burst exhausts
                // the replay cache within the test's horizon, and a
                // fast promotion window so the climb back fits it too.
                degrade: DegradeConfig {
                    signature_ttl_epochs: 4,
                    promote_after: 2,
                    ..DegradeConfig::default()
                },
                ..SmartBalanceConfig::default()
            },
        );
        let mut sys = System::new(platform, SystemConfig::default());
        if faulty {
            sys.set_fault_plan(
                FaultPlan::new()
                    .inject(0, None, FaultKind::StuckCounters { prob: 0.2 })
                    .inject(8, None, FaultKind::DroppedSamples { prob: 1.0 })
                    .clear(14, None, FaultClass::Drop)
                    .clear(28, None, FaultClass::Stuck),
                0xACC_2026,
            );
        }
        let mut gen = SyntheticGenerator::new(0xACC);
        for i in 0..12 {
            sys.spawn(gen.profile(format!("a{i}"), 4, u64::MAX / 64, i % 2 == 0));
        }
        for epoch in 0..40u64 {
            if faulty {
                if epoch == 18 {
                    sys.set_core_online(CoreId(3), false);
                }
                if epoch == 30 {
                    sys.set_core_online(CoreId(3), true);
                }
            }
            let report = sys.run_epoch(&mut policy);
            if faulty && (18..30).contains(&epoch) {
                assert!(
                    report.tasks.iter().all(|t| !t.alive || t.core != CoreId(3)),
                    "epoch {epoch}: live task on the hotplugged-out core"
                );
            }
        }
        let eff = sys.sensors().total_instructions() as f64 / sys.sensors().total_energy_j();
        (eff, policy)
    }

    let (clean_eff, _) = run(false);
    let (faulty_eff, policy) = run(true);

    let retained = faulty_eff / clean_eff;
    assert!(
        retained >= 0.7,
        "retained only {retained:.3} of fault-free IPS/Watt"
    );
    assert!(
        policy.mode_transitions() >= 2,
        "the drop spike must walk the ladder down and back: {} transitions",
        policy.mode_transitions()
    );
    assert_eq!(
        policy.mode(),
        DegradeMode::Full,
        "healed sensing must recover the full loop"
    );
}

/// Runs a mixed workload with noisy counter banks on the `noisy` cores
/// and checks the quarantine contract every epoch: while the loop is at
/// `Full`, a thread the tracker distrusts is not moved by that epoch's
/// decision. `view` reads the policy's rung and quarantined threads.
/// Returns how many (epoch, quarantined thread) pairs were checked and
/// how many migrations the run made.
fn quarantined_threads_stay_put<B: LoadBalancer>(
    platform: &Platform,
    policy: &mut B,
    noisy: &[usize],
    tasks: usize,
    view: impl Fn(&B) -> (DegradeMode, Vec<TaskId>),
) -> (usize, u64) {
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    let plan = noisy.iter().fold(FaultPlan::new(), |plan, &c| {
        plan.inject(0, Some(c), FaultKind::Noise { sigma: 0.9 })
    });
    sys.set_fault_plan(plan, 0x9_1A7);
    let mut gen = SyntheticGenerator::new(0x9_1A8);
    for i in 0..tasks {
        sys.spawn(gen.profile(format!("q{i}"), 2, u64::MAX / 64, false));
    }
    let mut checked = 0;
    for epoch in 0..40 {
        let before: Vec<CoreId> = sys.tasks().iter().map(|t| t.core()).collect();
        sys.run_epoch(policy);
        let (mode, quarantined) = view(policy);
        if mode != DegradeMode::Full {
            continue;
        }
        for task in quarantined {
            assert_eq!(
                sys.task(task).core(),
                before[task.0],
                "epoch {epoch}: quarantined {task:?} migrated"
            );
            checked += 1;
        }
    }
    (checked, sys.stats().migrations)
}

/// Quarantine pinning on the flat balancer: a thread whose identity
/// residual the noisy core blows up never moves while distrusted, and
/// the rest of the workload keeps being balanced.
#[test]
fn quarantined_threads_never_migrate_flat() {
    let platform = Platform::quad_heterogeneous();
    let mut policy = SmartBalance::new(&platform);
    let (checked, migrations) =
        quarantined_threads_stay_put(&platform, &mut policy, &[1], 8, |p: &SmartBalance| {
            (p.mode(), p.quarantined_threads())
        });
    assert!(checked > 0, "the noisy core never quarantined a thread");
    assert!(migrations > 0, "the balancer never moved anything");
}

/// The same contract through the sharded balancer's cluster masks and
/// exchange stage, with a whole cluster's counters noisy.
#[test]
fn quarantined_threads_never_migrate_sharded() {
    let platform = Platform::clustered_heterogeneous(4, 4);
    let cfg = SmartBalanceConfig {
        shard: Some(ShardConfig::default()),
        ..SmartBalanceConfig::default()
    };
    let mut policy = ShardedBalancer::with_config(&platform, cfg);
    let (checked, migrations) = quarantined_threads_stay_put(
        &platform,
        &mut policy,
        &[4, 5, 6, 7],
        24,
        |p: &ShardedBalancer| (p.inner().mode(), p.inner().quarantined_threads()),
    );
    assert!(checked > 0, "the noisy cluster never quarantined a thread");
    assert!(migrations > 0, "the balancer never moved anything");
}
