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
//! | `fig7`   | Fig. 7: per-epoch overhead, scalability and ablation timings |
//! | `fig8`   | Fig. 8: iteration budgets and distance-to-optimal |

use std::time::Instant;

use archsim::Platform;
use kernelsim::{Allocation, EpochReport, LoadBalancer, TelemetryHandle};
use serde::Serialize;
use smartbalance::{ExperimentSpec, ExperimentSuite, Policy, SuiteProgress, SuiteReport};
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

/// The value following `flag` in `args`, when both are present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    args.get(pos + 1).cloned()
}

/// Writes any serializable value to `path` as pretty JSON when the
/// `--json <path>` flag is present in `args`.
pub fn maybe_dump_json<T: Serialize>(args: &[String], value: &T) {
    if let Some(path) = flag_value(args, "--json") {
        let json = serde_json::to_string_pretty(value).expect("serialize rows");
        std::fs::write(&path, json).unwrap_or_else(|e| eprintln!("json dump failed: {e}"));
        println!("(rows written to {path})");
    }
}

/// Wraps any balancer and records the wall-clock time of every
/// `rebalance` call, so overhead figures come from the production code
/// path rather than a copy of it. Telemetry attachment is forwarded, so
/// the wrapped policy records exactly what it would unwrapped.
pub struct TimedBalancer {
    inner: Box<dyn LoadBalancer>,
    /// Wall-clock time of each `rebalance` call so far, µs.
    pub rebalance_us: Vec<f64>,
}

impl TimedBalancer {
    /// Wraps `inner` with an empty timing record.
    pub fn new(inner: Box<dyn LoadBalancer>) -> Self {
        TimedBalancer {
            inner,
            rebalance_us: Vec::new(),
        }
    }
}

impl LoadBalancer for TimedBalancer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        let t0 = Instant::now();
        let out = self.inner.rebalance(platform, report);
        self.rebalance_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    fn attach_telemetry(&mut self, handle: &TelemetryHandle) {
        self.inner.attach_telemetry(handle);
    }
}

/// The median of `xs` (mean of the middle pair for even lengths; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelsim::{System, SystemConfig};

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
    fn timed_balancer_records_each_rebalance() {
        let platform = Platform::quad_heterogeneous();
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        let mut gen = workloads::SyntheticGenerator::new(42);
        for i in 0..8 {
            sys.spawn(gen.profile(format!("t{i}"), 3, u64::MAX / 2, false));
        }
        let hub = telemetry::shared();
        sys.set_telemetry(hub.clone());
        let mut balancer = TimedBalancer::new(Policy::Smart.build(&platform, None));
        balancer.attach_telemetry(&hub);
        for _ in 0..3 {
            sys.run_epoch(&mut balancer);
        }
        assert_eq!(balancer.name(), "smartbalance");
        assert_eq!(balancer.rebalance_us.len(), 3);
        assert!(balancer.rebalance_us.iter().all(|&us| us > 0.0));
        // The forwarded hub reached the wrapped policy: it credited the
        // annealer once per epoch.
        let profile = hub.borrow().stage_profile();
        assert!(profile
            .iter()
            .any(|p| p.stage == "anneal" && p.invocations == 3));
    }

    #[test]
    #[allow(clippy::float_cmp)] // the medians here are exact
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
