//! The three epoch-loop workloads: `System::run_epoch` driven from the
//! benchmark, with the production balancer behind a `TimedBalancer`.
//!
//! A run repeats *passes* until the time budget is spent. A pass is one
//! trial of every task set of the run; a trial is one complete job of
//! the workload, like a campaign cell: `Policy::build`, `System::new`,
//! spawning one generated task set, then a fixed number of epochs. Every
//! trial of a set starts from the same inputs, so all of them must end
//! in bit-identical simulated state.

use std::time::{Duration, Instant};

use archsim::{CoreId, Platform};
use kernelsim::SystemConfig;
use smartbalance::{splitmix64, Policy, ShardConfig, SmartBalanceConfig};
use telemetry::TelemetryHandle;
use workloads::{SyntheticGenerator, WorkloadProfile};

use crate::job::{median_over, Fingerprint, Job, Pass, PassStats, Trial};
use crate::timing::{median, stage_work, SpanLog};
use crate::Outcome;

/// Instruction budget of each quad-core task: large enough that no task
/// exits within a trial, so every epoch of a trial carries all 24 tasks.
const QUAD_TASK_INSTRUCTIONS: u64 = 200_000_000_000;
/// Epochs in one quad-core trial (60 simulated seconds at 60 ms).
const QUAD_EPOCHS: u64 = 1_000;
/// Task sets a quad-core run cycles through. Efficiency depends strongly
/// on which 24 tasks are drawn; pooling 16 draws per seed keeps the
/// seed-to-seed spread of every metric well inside its bound.
const QUAD_SETS: u64 = 16;
/// Tasks of the 1024-core workload: 1.5 per core, as in `scalebench`.
const CLUSTER_TASKS: usize = 1_536;
/// Epochs in one 1024-core trial.
const CLUSTER_EPOCHS: u64 = 60;
/// Task sets a 1024-core run cycles through. One pass over them makes
/// 240 timed `rebalance` calls, 12 of them beyond p95.
const CLUSTER_SETS: u64 = 4;
/// Passes a run makes even when the time budget is already spent, so
/// that every timing is a median over passes.
const MIN_PASSES: usize = 3;

type TaskSet = Vec<(WorkloadProfile, Option<CoreId>)>;

/// The generator for task set `set` of `seed`. The generator ORs its
/// seed into a fixed pattern, so seeds are spread with splitmix64 first
/// to keep nearby seeds from drawing identical tasks.
fn generator(seed: u64, set: u64) -> SyntheticGenerator {
    SyntheticGenerator::new(splitmix64(splitmix64(seed) ^ set))
}

pub struct EpochWorkload {
    platform: Platform,
    policy: Policy,
    config: Option<SmartBalanceConfig>,
    /// Generated task sets; each task has its initial core (`None`:
    /// the system's least-loaded placement).
    sets: Vec<TaskSet>,
    epochs: u64,
}

impl EpochWorkload {
    /// The paper's quad-core platform with 24 generated tasks per set,
    /// alternating batch and interactive (sleeping) ones.
    pub fn quad(policy: Policy, seed: u64) -> Self {
        let sets = (0..QUAD_SETS)
            .map(|set| {
                let mut gen = generator(seed, set);
                (0..24)
                    .map(|k| {
                        let interactive = k % 2 == 1;
                        let p =
                            gen.profile(format!("t{k}"), 4, QUAD_TASK_INSTRUCTIONS, interactive);
                        (p, None)
                    })
                    .collect()
            })
            .collect();
        EpochWorkload {
            platform: Platform::quad_heterogeneous(),
            policy,
            config: None,
            sets,
            epochs: QUAD_EPOCHS,
        }
    }

    /// 16 clusters × 64 cores, 1536 tasks per set whose characteristics
    /// and initial cores are drawn from the seed, balanced by the
    /// sharded SmartBalance on `workers` workers.
    pub fn cluster(seed: u64, workers: usize) -> Self {
        let platform = Platform::clustered_heterogeneous(16, 64);
        let cores = platform.num_cores() as u64;
        let sets = (0..CLUSTER_SETS)
            .map(|set| {
                let mut gen = generator(seed, set);
                (0..CLUSTER_TASKS)
                    .map(|k| {
                        let ch = gen.characteristics();
                        let core = CoreId(gen.below(cores) as usize);
                        // Budgets far beyond the horizon: nothing exits mid-trial.
                        (
                            WorkloadProfile::uniform(format!("t{k}"), ch, u64::MAX / 64),
                            Some(core),
                        )
                    })
                    .collect()
            })
            .collect();
        let shard = ShardConfig {
            workers,
            ..ShardConfig::default()
        };
        EpochWorkload {
            platform,
            policy: Policy::Smart,
            config: Some(SmartBalanceConfig {
                shard: Some(shard),
                ..SmartBalanceConfig::default()
            }),
            sets,
            epochs: CLUSTER_EPOCHS,
        }
    }

    fn trial(&self, set: usize, policy: Policy, traced: bool, log: &mut SpanLog) -> Trial {
        let job = Job {
            platform: &self.platform,
            sys_config: SystemConfig::default(),
            tasks: self.sets[set].iter().map(|(p, c)| (p, *c)).collect(),
            max_epochs: self.epochs,
        };
        job.run(
            || policy.build(&self.platform, self.config.as_ref()),
            traced,
            log,
            None,
        )
    }

    /// Runs passes (one trial of every task set) until `budget` is spent
    /// and at least [`MIN_PASSES`] ran. After each pass comes one trial
    /// under the counter-policy (vanilla for SmartBalance, SmartBalance
    /// for vanilla), cycling through the task sets; the sets it has not
    /// reached by the end run then. The counter trials give the gain.
    /// Last comes set 0 once more in the other tracing mode.
    ///
    /// Timings are the median over passes of each pass's statistic (see
    /// [`Pass`]); set-up and build times are medians over all trials.
    /// Under vanilla, whose `rebalance` does nothing, `rebalance_us_*`
    /// are the median over the SmartBalance counter trials, which are
    /// spread over the whole run for the same reason passes are.
    pub fn run(&self, budget: Duration, traced: bool, log: &mut SpanLog) -> Outcome {
        let start = Instant::now();
        let sets = self.sets.len();
        let counter_policy = match self.policy {
            Policy::Vanilla => Policy::Smart,
            _ => Policy::Vanilla,
        };
        let mut first: Vec<Trial> = Vec::with_capacity(sets);
        let mut passes: Vec<PassStats> = Vec::new();
        let mut counter: Vec<Fingerprint> = Vec::with_capacity(sets);
        let mut counter_trials: Vec<PassStats> = Vec::new();
        let mut setup_s = Vec::new();
        let mut build_ms = Vec::new();
        let mut diverged = Vec::new();
        let mut quiet = SpanLog::new(start, false);
        let mut counter_trial = |k: usize, diverged: &mut Vec<String>| {
            let set = k % sets;
            let trial = self.trial(set, counter_policy, false, &mut quiet);
            let mut pass = Pass::default();
            pass.add(&trial);
            counter_trials.push(pass.stats());
            if k < sets {
                counter.push(trial.fingerprint());
            } else if trial.fingerprint() != counter[set] {
                diverged.push(format!("counter trial {k}: task set {set} diverged"));
            }
        };
        while passes.len() < MIN_PASSES || start.elapsed() < budget {
            let mut pass = Pass::default();
            for set in 0..sets {
                let trial = self.trial(set, self.policy, traced, log);
                pass.add(&trial);
                setup_s.push(trial.setup_s);
                build_ms.push(trial.build_s * 1e3);
                if passes.is_empty() {
                    first.push(trial);
                } else if trial.fingerprint() != first[set].fingerprint() {
                    diverged.push(format!(
                        "pass {}: task set {set} diverged from its first trial",
                        passes.len()
                    ));
                }
            }
            passes.push(pass.stats());
            counter_trial(passes.len() - 1, &mut diverged);
        }
        for k in passes.len()..sets {
            counter_trial(k, &mut diverged);
        }
        let other = self.trial(0, self.policy, !traced, &mut SpanLog::new(start, false));
        let balancer_passes: &[PassStats] = match self.policy {
            Policy::Vanilla => &counter_trials,
            _ => &passes,
        };

        let epochs = passes.iter().map(|p| p.epochs).sum();
        let mut out = Outcome::new(epochs);
        let reference: Vec<Fingerprint> = first.iter().map(Trial::fingerprint).collect();
        let mut hubs: Vec<TelemetryHandle> = first.iter().filter_map(|t| t.hub.clone()).collect();
        for why in diverged {
            out.fail(why);
        }
        if other.fingerprint() != reference[0] {
            out.fail(format!(
                "traced and untraced runs diverged: {:?} vs {:?}",
                other.fingerprint(),
                reference[0]
            ));
        }
        if !traced {
            hubs.extend(other.hub.clone());
        }
        let hub_refs: Vec<&TelemetryHandle> = hubs.iter().collect();
        let hub_epochs = self.epochs * hubs.len() as u64;
        let mut required = Vec::new();
        if self.policy == Policy::Smart {
            required.extend(["sense", "anneal"]);
        }
        if self.config.as_ref().is_some_and(|c| c.shard.is_some()) {
            required.push("exchange");
        }
        for stage in required {
            if hubs.iter().any(|h| stage_work(h, stage) == 0) {
                out.fail(format!("traced run recorded no `{stage}` stage work"));
            }
        }

        let (smart, vanilla) = match self.policy {
            Policy::Vanilla => (&counter, &reference),
            _ => (&reference, &counter),
        };
        let pass_epochs = self.epochs * sets as u64;
        let (traced_loop, untraced_loop) = if traced {
            (first[0].loop_s, other.loop_s)
        } else {
            (other.loop_s, first[0].loop_s)
        };
        let sum = |f: fn(&Fingerprint) -> u64| reference.iter().map(f).sum::<u64>();
        let memo_hits: u64 = first.iter().map(|t| t.memo_hits).sum();
        let memo_all: u64 = first.iter().map(|t| t.memo_hits + t.memo_misses).sum();
        let first_build_s: f64 = first.iter().map(|t| t.build_s).sum();
        let first_wall_s: f64 = first.iter().map(Trial::wall_s).sum();

        let m = &mut out.metrics;
        m.set(
            "sim_epochs_per_s",
            median_over(&passes, |p| p.epochs as f64 / p.loop_s),
        );
        m.set(
            "rebalance_us_p50",
            median_over(balancer_passes, |p| p.rebalance_us_p50),
        );
        m.set(
            "rebalance_us_p95",
            median_over(balancer_passes, |p| p.rebalance_us_p95),
        );
        m.set(
            "cells_per_s",
            median_over(&passes, |p| sets as f64 / p.wall_s),
        );
        m.set("ips_per_w", pooled_ips_per_w(&reference));
        m.set(
            "gain_vs_vanilla_pct",
            (pooled_ips_per_w(smart) / pooled_ips_per_w(vanilla) - 1.0) * 100.0,
        );
        m.set("setup_s", median(&setup_s));

        m.set(
            "kernelsim.epoch_self_us_p50",
            median_over(&passes, |p| p.self_us_p50),
        );
        m.set(
            "kernelsim.self_share",
            median_over(&passes, |p| p.self_share),
        );
        m.set(
            "kernelsim.slices_per_epoch",
            sum(|f| f.slices) as f64 / pass_epochs as f64,
        );
        m.set("kernelsim.migrations_applied", sum(|f| f.migrations) as f64);
        m.set(
            "kernelsim.cross_cluster_migrations",
            sum(|f| f.cross_cluster_migrations) as f64,
        );
        m.set("archsim.memo_hit_ratio", crate::ratio(memo_hits, memo_all));
        m.set(
            "mcpat.energy_j",
            reference.iter().map(Fingerprint::energy_j).sum(),
        );
        m.set("smartbalance.build_ms", median(&build_ms));
        m.set("smartbalance.build_share", first_build_s / first_wall_s);
        m.set(
            "smartbalance.rebalance_share",
            median_over(&passes, |p| p.rebalance_share),
        );
        crate::balancer_counters(m, &hub_refs, hub_epochs, &self.platform);
        m.set(
            "telemetry.overhead_pct",
            (traced_loop / untraced_loop - 1.0) * 100.0,
        );
        m.set(
            "telemetry.dropped_spans",
            hubs.iter().map(|h| h.borrow().dropped_spans()).sum::<u64>() as f64,
        );
        for name in crate::CAMPAIGN_LAYER {
            m.set(name, 0.0);
        }

        let samples = balancer_passes[0].rebalance_samples;
        out.info.push(format!(
            "task_sets={sets} passes={} counter_trials={} epochs={epochs} medians_over_passes: \
             rebalance_samples_per_pass={samples} beyond_p95={} rebalance_timed_on={} live_tasks_end={}",
            passes.len(),
            counter_trials.len(),
            samples / 20,
            if self.policy == Policy::Vanilla { "smartbalance_counter_trials" } else { "measured_passes" },
            first[0].stats.live_tasks,
        ));
        out
    }
}

/// Instructions per joule over several runs together.
fn pooled_ips_per_w(runs: &[Fingerprint]) -> f64 {
    let instructions: u64 = runs.iter().map(|f| f.instructions).sum();
    let energy: f64 = runs.iter().map(Fingerprint::energy_j).sum();
    instructions as f64 / energy
}
