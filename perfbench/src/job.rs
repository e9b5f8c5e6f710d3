//! One simulated job driven through the production entry points:
//! `Policy::build`, `System::new`, task spawn, then `System::run_epoch`
//! until every task has exited or the epoch cap is reached — the loop
//! `run_experiment_with` runs, with each call timed from outside.

use std::hint::black_box;
use std::time::{Duration, Instant};

use archsim::{CoreId, Platform};
use kernelsim::{LoadBalancer, System, SystemConfig, SystemStats};
use telemetry::TelemetryHandle;
use workloads::WorkloadProfile;

use crate::timing::{median, micros, nanos, quantile, SpanLog, TimedBalancer};

/// The inputs of one job.
pub struct Job<'a> {
    pub platform: &'a Platform,
    pub sys_config: SystemConfig,
    /// Tasks in spawn order, each with its initial core (`None`: the
    /// system's least-loaded placement).
    pub tasks: Vec<(&'a WorkloadProfile, Option<CoreId>)>,
    pub max_epochs: u64,
}

/// What the simulation must reproduce bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub instructions: u64,
    pub slices: u64,
    pub migrations: u64,
    pub cross_cluster_migrations: u64,
    pub energy_bits: u64,
}

impl Fingerprint {
    pub fn energy_j(&self) -> f64 {
        f64::from_bits(self.energy_bits)
    }
}

/// One job's timings and simulated outcome.
pub struct Trial {
    pub policy: String,
    pub build_s: f64,
    pub setup_s: f64,
    pub loop_s: f64,
    pub epochs: u64,
    pub epoch_ns: Vec<u64>,
    pub rebalance_ns: Vec<u64>,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub stats: SystemStats,
    pub hub: Option<TelemetryHandle>,
}

impl Trial {
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.loop_s
    }

    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            instructions: self.stats.total_instructions,
            slices: self.stats.total_slices,
            migrations: self.stats.migrations,
            cross_cluster_migrations: self.stats.cross_cluster_migrations,
            energy_bits: self.stats.total_energy_j.to_bits(),
        }
    }
}

impl Job<'_> {
    /// Runs the job. `build` is the `Policy::build` call; with `traced`
    /// one telemetry hub is attached to both the system and the
    /// balancer, and the benchmark's spans go to `log` under `parent`.
    pub fn run(
        &self,
        build: impl FnOnce() -> Box<dyn LoadBalancer>,
        traced: bool,
        log: &mut SpanLog,
        parent: Option<usize>,
    ) -> Trial {
        let t0 = Instant::now();
        let inner = build();
        let built = Instant::now();
        log.push("policy.build", t0, built, parent);
        let mut balancer = TimedBalancer::new(inner);
        let mut sys = System::new(self.platform.clone(), self.sys_config);
        let hub = traced.then(|| {
            let hub = telemetry::shared();
            sys.set_telemetry(hub.clone());
            balancer.attach_telemetry(&hub);
            hub
        });
        for &(profile, core) in &self.tasks {
            match core {
                Some(c) => sys.spawn_on(profile.clone(), c),
                None => sys.spawn(profile.clone()),
            };
        }
        let loop_start = Instant::now();
        let mut epoch_ns = Vec::with_capacity(self.max_epochs.min(1 << 16) as usize);
        let mut epochs = 0;
        while epochs < self.max_epochs && sys.live_tasks() > 0 {
            let e0 = Instant::now();
            black_box(sys.run_epoch(&mut balancer));
            let e1 = Instant::now();
            epochs += 1;
            epoch_ns.push(nanos(e0, e1));
            let epoch_span = log.push("run_epoch", e0, e1, parent);
            if let (Some(r0), Some(&r_ns)) = (balancer.last_start, balancer.samples_ns.last()) {
                log.push("rebalance", r0, r0 + Duration::from_nanos(r_ns), epoch_span);
            }
        }
        let loop_s = loop_start.elapsed().as_secs_f64();
        let cache = sys.estimate_cache();
        Trial {
            policy: balancer.name().to_owned(),
            build_s: built.duration_since(t0).as_secs_f64(),
            setup_s: loop_start.duration_since(t0).as_secs_f64(),
            loop_s,
            epochs,
            epoch_ns,
            memo_hits: cache.hits(),
            memo_misses: cache.misses(),
            stats: sys.stats(),
            rebalance_ns: balancer.samples_ns,
            hub,
        }
    }
}

/// The timings of one *pass*: one trial of every task set, or one
/// replay of the grid. Each statistic is taken over every timed call of
/// the pass, and a run reports the median over its passes. The median's
/// expected value does not depend on how many passes fit in a run, so a
/// faster program is measured by the same estimator as a slower one.
#[derive(Default)]
pub struct Pass {
    epoch_ns: Vec<u64>,
    rebalance_ns: Vec<u64>,
    self_ns: Vec<u64>,
    wall_s: f64,
}

impl Pass {
    pub fn add(&mut self, t: &Trial) {
        self.epoch_ns.extend(&t.epoch_ns);
        self.rebalance_ns.extend(&t.rebalance_ns);
        self.self_ns.extend(
            t.epoch_ns
                .iter()
                .zip(&t.rebalance_ns)
                .map(|(e, r)| e.saturating_sub(*r)),
        );
        self.wall_s += t.wall_s();
    }

    pub fn stats(&self) -> PassStats {
        let sum_s = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / 1e9;
        let rebalance_us = micros(&self.rebalance_ns);
        let loop_s = sum_s(&self.epoch_ns);
        PassStats {
            epochs: self.epoch_ns.len() as u64,
            loop_s,
            wall_s: self.wall_s,
            rebalance_us_p50: median(&rebalance_us),
            rebalance_us_p95: quantile(&rebalance_us, 0.95),
            rebalance_samples: rebalance_us.len(),
            self_us_p50: median(&micros(&self.self_ns)),
            self_share: sum_s(&self.self_ns) / loop_s,
            rebalance_share: sum_s(&self.rebalance_ns) / loop_s,
        }
    }
}

/// One pass's statistics.
pub struct PassStats {
    pub epochs: u64,
    /// Σ `run_epoch` time, s.
    pub loop_s: f64,
    /// Σ trial time, set-up included, s.
    pub wall_s: f64,
    pub rebalance_us_p50: f64,
    pub rebalance_us_p95: f64,
    pub rebalance_samples: usize,
    /// Median of `run_epoch` minus the `rebalance` inside it, µs.
    pub self_us_p50: f64,
    /// Σ (`run_epoch` − `rebalance`) / Σ `run_epoch`.
    pub self_share: f64,
    /// Σ `rebalance` / Σ `run_epoch`.
    pub rebalance_share: f64,
}

/// The median over `passes` of one statistic.
pub fn median_over(passes: &[PassStats], stat: impl Fn(&PassStats) -> f64) -> f64 {
    median(&passes.iter().map(stat).collect::<Vec<_>>())
}
