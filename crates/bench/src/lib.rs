//! # smartbalance-bench — evaluation harness
//!
//! Shared infrastructure for the binaries that regenerate every table
//! and figure of the paper's evaluation (Section 6). Each binary
//! prints a paper-style table to stdout and, when `--json <path>` is
//! given, writes the raw rows as JSON for downstream plotting.
//!
//! | Target | Reproduces |
//! |--------|------------|
//! | `table2` | Table 2: core-type configurations |
//! | `fig4`   | Fig. 4: energy-efficiency gain vs vanilla (IMB + PARSEC/mixes) |
//! | `fig5`   | Fig. 5: normalized efficiency vs ARM GTS on big.LITTLE |
//! | `fig6`   | Fig. 6: prediction error across PARSEC |
//! | `table4` | Table 4: the Θ predictor coefficient matrix |
//! | `fig7`   | Fig. 7: phase overheads and scalability |
//! | `fig8`   | Fig. 8: iteration budgets and distance-to-optimal |

use std::time::Instant;

use archsim::Platform;
use kernelsim::{EpochReport, LoadBalancer, System, SystemConfig};
use serde::Serialize;
use smartbalance::{
    anneal, build_matrices, ipc_rows, AnnealParams, ExperimentSpec, ExperimentSuite, Goal,
    Objective, Policy, PredictorSet, Sensor, SuiteProgress, SuiteReport,
};
use workloads::{ImbConfig, MixId, WorkloadProfile};

/// Scale factor applied to benchmark profiles so a full evaluation run
/// stays in the tens of simulated seconds.
pub const RUN_SCALE: f64 = 0.6;

/// Thread counts evaluated in Fig. 4 ("2, 4, and 8 threads of each
/// benchmark").
pub const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Builds the Fig. 4(a) workload list: the nine interactive
/// micro-benchmark configurations.
pub fn imb_workloads() -> Vec<(String, WorkloadProfile)> {
    ImbConfig::all_nine()
        .into_iter()
        .map(|c| (c.name(), c.profile()))
        .collect()
}

/// Builds the Fig. 4(b) workload list: PARSEC benchmarks plus the
/// Table 3 mixes. A mix entry bundles all member profiles.
pub fn parsec_workloads() -> Vec<(String, Vec<WorkloadProfile>)> {
    let mut out: Vec<(String, Vec<WorkloadProfile>)> = workloads::parsec::all()
        .into_iter()
        .map(|p| (p.name().to_owned(), vec![p]))
        .collect();
    for mix in MixId::ALL {
        out.push((mix.name(), mix.members()));
    }
    out
}

/// Builds an experiment spec for one named workload bundle at a given
/// parallelization level.
pub fn spec_for(
    label: &str,
    platform: &Platform,
    bundle: &[WorkloadProfile],
    threads: usize,
) -> ExperimentSpec {
    let mut profiles = Vec::new();
    for p in bundle {
        profiles.extend(ExperimentSpec::parallelize(&p.scaled(RUN_SCALE), threads));
    }
    ExperimentSpec::new(format!("{label}/{threads}t"), platform.clone(), profiles)
}

/// Progress hook for interactive binaries: one line per finished job
/// on stderr, keeping stdout clean for the tables.
pub fn stderr_progress(p: &SuiteProgress) {
    eprintln!(
        "  [{}/{}] {} {:?} ({:.2} s)",
        p.completed, p.total, p.experiment, p.policy, p.wall_s
    );
}

/// Queues the full workload × threads × policies grid onto a fresh
/// [`ExperimentSuite`] and runs it. Jobs are pushed grouped by
/// `(label, threads)` key — one chunk of `policies.len()` jobs per key,
/// policies in the given order — and the keys are returned alongside
/// the report so callers can zip `report.jobs.chunks(policies.len())`
/// back to their workloads.
pub fn run_policy_grid(
    platform: &Platform,
    bundles: &[(String, Vec<WorkloadProfile>)],
    threads: &[usize],
    policies: &[Policy],
) -> (SuiteReport, Vec<(String, usize)>) {
    let mut suite = ExperimentSuite::new().on_progress(stderr_progress);
    let mut keys = Vec::new();
    for (label, bundle) in bundles {
        for &t in threads {
            keys.push((label.clone(), t));
            let spec = spec_for(label, platform, bundle, t);
            for &p in policies {
                suite.push(spec.clone(), p);
            }
        }
    }
    (suite.run(), keys)
}

/// Prints the suite's wall-clock and throughput footer.
pub fn print_suite_summary(report: &SuiteReport) {
    println!(
        "suite: {} jobs on {} workers in {:.2} s ({:.2} jobs/s, {:.1}x vs serial)",
        report.jobs.len(),
        report.workers,
        report.wall_s,
        report.throughput_jobs_per_s(),
        report.speedup()
    );
}

/// One row of a comparison table.
#[derive(Debug, Clone, Serialize)]
pub struct ComparisonRow {
    /// Workload label.
    pub label: String,
    /// Parallelization level.
    pub threads: usize,
    /// Baseline policy name.
    pub baseline: String,
    /// Baseline energy efficiency, instructions/joule.
    pub baseline_eff: f64,
    /// SmartBalance energy efficiency, instructions/joule.
    pub smart_eff: f64,
    /// `smart_eff / baseline_eff` (Fig. 4/5's y-axis).
    pub ratio: f64,
}

/// Pretty-prints comparison rows followed by the average gain.
pub fn print_rows(title: &str, rows: &[ComparisonRow]) {
    println!("\n=== {title} ===");
    println!(
        "{:<16} {:>3}  {:>14} {:>14} {:>8}",
        "workload", "thr", "baseline", "smartbalance", "ratio"
    );
    for r in rows {
        println!(
            "{:<16} {:>3}  {:>12.4e} {:>12.4e} {:>8.3}",
            r.label, r.threads, r.baseline_eff, r.smart_eff, r.ratio
        );
    }
    let avg: f64 = rows.iter().map(|r| r.ratio).sum::<f64>() / rows.len().max(1) as f64;
    println!(
        "average gain: {:+.1} % (paper reports the corresponding figure's headline here)",
        (avg - 1.0) * 100.0
    );
}

/// Writes any serializable value to `path` as pretty JSON when the
/// `--json <path>` flag is present in `args`.
pub fn maybe_dump_json<T: Serialize>(args: &[String], value: &T) {
    if let Some(pos) = args.iter().position(|a| a == "--json") {
        if let Some(path) = args.get(pos + 1) {
            let json = serde_json::to_string_pretty(value).expect("serialize rows");
            std::fs::write(path, json).unwrap_or_else(|e| eprintln!("json dump failed: {e}"));
            println!("(rows written to {path})");
        }
    }
}

/// Timings of one SmartBalance epoch, broken into the paper's phases
/// (Fig. 7(a)): sense, predict (matrix construction), optimize
/// (Algorithm 1) and the modeled migration cost.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PhaseTimings {
    /// Sensing: counter distillation, seconds.
    pub sense_s: f64,
    /// Estimation + prediction: S/P matrix construction, seconds.
    pub predict_s: f64,
    /// Optimization: Algorithm 1, seconds.
    pub optimize_s: f64,
    /// Number of migrations the allocation implies.
    pub migrations: usize,
    /// Threads balanced.
    pub threads: usize,
}

/// A SmartBalance re-implementation with per-phase instrumentation,
/// built from the library's public pieces; used by `fig7` and the
/// criterion benches. Behaviourally equivalent to
/// [`smartbalance::SmartBalance`] with default config.
pub struct InstrumentedSmart {
    predictors: PredictorSet,
    sensor: Sensor,
    seed: u32,
    /// Timings of every epoch balanced so far.
    pub timings: Vec<PhaseTimings>,
}

impl InstrumentedSmart {
    /// Trains predictors and prepares the instrumented balancer.
    pub fn new(platform: &Platform) -> Self {
        InstrumentedSmart {
            predictors: PredictorSet::train(platform, 400, 0xDAC_2015),
            sensor: Sensor::new(100_000),
            seed: 0x5A17_B0B5,
            timings: Vec::new(),
        }
    }
}

impl LoadBalancer for InstrumentedSmart {
    fn name(&self) -> &str {
        "smartbalance-instrumented"
    }

    fn rebalance(
        &mut self,
        platform: &Platform,
        report: &EpochReport,
    ) -> Option<kernelsim::Allocation> {
        let mut t = PhaseTimings::default();

        let t0 = Instant::now();
        let mut senses = self.sensor.sense(platform, report);
        senses.retain(|s| !s.kernel_thread);
        t.sense_s = t0.elapsed().as_secs_f64();
        if senses.is_empty() {
            return None;
        }
        t.threads = senses.len();

        let t1 = Instant::now();
        let rows = ipc_rows(platform, &senses, &self.predictors);
        let matrices = build_matrices(platform, &senses, &rows, &self.predictors);
        t.predict_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let params = AnnealParams::scaled_for(platform.num_cores(), senses.len());
        let objective = Objective::new(&matrices, Goal::EnergyEfficiency);
        let outcome = anneal(&objective, &initial, params, self.seed);
        self.seed = self
            .seed
            .wrapping_mul(0x0019_660D)
            .wrapping_add(0x3C6E_F35F);
        t.optimize_s = t2.elapsed().as_secs_f64();

        let mut alloc = kernelsim::Allocation::new();
        for (sense, (&new_core, &old_core)) in senses
            .iter()
            .zip(outcome.allocation.iter().zip(initial.iter()))
        {
            if new_core != old_core {
                alloc.assign(sense.task, archsim::CoreId(new_core));
            }
        }
        t.migrations = alloc.len();
        self.timings.push(t);
        if alloc.is_empty() {
            None
        } else {
            Some(alloc)
        }
    }
}

/// Runs a workload on `platform` long enough to collect `epochs` epochs
/// of instrumented timings.
pub fn collect_phase_timings(
    platform: &Platform,
    threads: usize,
    epochs: u64,
) -> Vec<PhaseTimings> {
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    let mut gen = workloads::SyntheticGenerator::new(42);
    for i in 0..threads {
        let p = gen.profile(format!("t{i}"), 3, u64::MAX / 2, i % 3 == 0);
        sys.spawn(p);
    }
    let mut balancer = InstrumentedSmart::new(platform);
    for _ in 0..epochs {
        sys.run_epoch(&mut balancer);
    }
    balancer.timings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_lists_complete() {
        assert_eq!(imb_workloads().len(), 9);
        let parsec = parsec_workloads();
        assert_eq!(parsec.len(), 16, "10 benchmarks + 6 mixes");
        assert!(parsec.iter().any(|(n, _)| n == "Mix6"));
    }

    #[test]
    fn spec_builder_parallelizes() {
        let platform = Platform::quad_heterogeneous();
        let bundle = vec![workloads::parsec::blackscholes()];
        let spec = spec_for("bs", &platform, &bundle, 4);
        assert_eq!(spec.profiles.len(), 4);
        assert_eq!(spec.name, "bs/4t");
    }

    #[test]
    fn policy_grid_chunks_align_with_keys() {
        let platform = Platform::quad_heterogeneous();
        let tiny = WorkloadProfile::uniform(
            "tiny",
            archsim::WorkloadCharacteristics::balanced(),
            2_000_000,
        );
        let bundles = vec![
            ("a".to_owned(), vec![tiny.clone()]),
            ("b".to_owned(), vec![tiny]),
        ];
        let policies = [Policy::None, Policy::Vanilla];
        let (report, keys) = run_policy_grid(&platform, &bundles, &[2], &policies);
        assert_eq!(keys.len(), 2);
        assert_eq!(report.jobs.len(), keys.len() * policies.len());
        for ((label, threads), chunk) in keys.iter().zip(report.jobs.chunks(policies.len())) {
            for (job, policy) in chunk.iter().zip(policies) {
                assert_eq!(job.policy, policy);
                assert_eq!(job.result.experiment, format!("{label}/{threads}t"));
            }
        }
    }

    #[test]
    fn instrumented_balancer_records_phases() {
        let platform = Platform::quad_heterogeneous();
        let timings = collect_phase_timings(&platform, 8, 3);
        assert_eq!(timings.len(), 3);
        for t in &timings {
            assert!(t.threads > 0);
            assert!(t.optimize_s > 0.0);
        }
    }
}
