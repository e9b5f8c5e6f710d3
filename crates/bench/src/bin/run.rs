//! Generic experiment runner: pick a platform, workload, policy and
//! run length from the command line; prints the measured summary and
//! optionally a scheduler trace.
//!
//! ```sh
//! run --platform quad --workload mix6 --threads 4 --policy smart
//! run --platform biglittle --workload canneal,blackscholes --policy gts
//! run --platform dvfs --workload imb:HTHI --policy smart --trace trace.csv
//! ```
//!
//! Flags:
//! - `--platform quad|biglittle|scaled:<n>|dvfs` (default `quad`)
//! - `--workload <spec>[,<spec>...]` where a spec is a PARSEC name,
//!   `mix1`..`mix6`, or `imb:<NAME>` (default `mix6`)
//! - `--threads <n>` workers per benchmark (default 2)
//! - `--policy none|vanilla|gts|iks|smart` (default `smart`)
//! - `--scale <f>` profile scale factor (default 0.4)
//! - `--max-epochs <n>` (default 2000)
//! - `--trace <path>` write a lifecycle-level scheduler trace CSV

use archsim::{CoreConfig, CoreTypeId, Platform};
use kernelsim::TraceLevel;
use smartbalance::{ExperimentSpec, ExperimentSuite, Policy, TraceRequest};
use smartbalance_bench::flag_value;
use workloads::{ImbConfig, MixId, WorkloadProfile};

fn platform_for(spec: &str) -> Platform {
    match spec {
        "quad" => Platform::quad_heterogeneous(),
        "biglittle" => Platform::octa_big_little(),
        "dvfs" => {
            let types = CoreConfig::big().dvfs_ladder(&[
                (1.5e9, 0.80),
                (1.2e9, 0.75),
                (0.9e9, 0.68),
                (0.6e9, 0.60),
            ]);
            Platform::new(types, (0..4).map(CoreTypeId).collect())
        }
        other => {
            if let Some(n) = other.strip_prefix("scaled:").and_then(|s| s.parse().ok()) {
                Platform::scaled_heterogeneous(n)
            } else {
                panic!("unknown platform {other:?} (quad|biglittle|scaled:<n>|dvfs)")
            }
        }
    }
}

fn imb_by_name(name: &str) -> Option<WorkloadProfile> {
    ImbConfig::all_nine()
        .into_iter()
        .find(|c| c.name() == name)
        .map(|c| c.profile())
}

fn workloads_for(spec: &str) -> Vec<WorkloadProfile> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        if let Some(rest) = part.strip_prefix("imb:") {
            out.push(imb_by_name(rest).unwrap_or_else(|| panic!("unknown IMB {rest:?}")));
        } else if let Some(n) = part.strip_prefix("mix").and_then(|s| s.parse::<u8>().ok()) {
            out.extend(
                MixId(n)
                    .try_members()
                    .unwrap_or_else(|| panic!("unknown mix {part:?} (valid: mix1..mix6)")),
            );
        } else {
            out.push(
                workloads::parsec::by_name(part)
                    .unwrap_or_else(|| panic!("unknown benchmark {part:?}")),
            );
        }
    }
    out
}

fn policy_for(spec: &str) -> Policy {
    match spec {
        "none" => Policy::None,
        "vanilla" => Policy::Vanilla,
        "gts" => Policy::Gts,
        "iks" => Policy::Iks,
        "smart" => Policy::Smart,
        other => panic!("unknown policy {other:?}"),
    }
}

fn parse<T: std::str::FromStr>(v: Option<String>, default: T) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let platform = platform_for(&flag_value(&args, "--platform").unwrap_or_else(|| "quad".into()));
    let workload = flag_value(&args, "--workload").unwrap_or_else(|| "mix6".into());
    let threads: usize = parse(flag_value(&args, "--threads"), 2);
    let policy = policy_for(&flag_value(&args, "--policy").unwrap_or_else(|| "smart".into()));
    let scale: f64 = parse(flag_value(&args, "--scale"), 0.4);
    let max_epochs: u64 = parse(flag_value(&args, "--max-epochs"), 2_000);
    let trace_path = flag_value(&args, "--trace");

    let mut profiles = Vec::new();
    for bench in workloads_for(&workload) {
        profiles.extend(ExperimentSpec::parallelize(&bench.scaled(scale), threads));
    }
    println!(
        "platform: {} cores / {} types; workload: {workload} x{threads} (scale {scale}); policy: {policy:?}",
        platform.num_cores(),
        platform.num_types(),
    );

    let num_tasks = profiles.len();
    let spec = ExperimentSpec::new(format!("{workload}/{threads}t"), platform.clone(), profiles)
        .with_max_epochs(max_epochs);
    let mut suite = ExperimentSuite::new();
    if trace_path.is_some() {
        suite.push_traced(
            spec,
            policy,
            TraceRequest {
                level: TraceLevel::Lifecycle,
                capacity: 100_000,
            },
        );
    } else {
        suite.push(spec, policy);
    }
    let report = suite.run();
    let job = &report.jobs[0];
    let stats = &job.result.stats;

    println!(
        "\nepochs:        {} ({} completed of {} tasks)",
        job.result.epochs, stats.completed_tasks, num_tasks
    );
    println!("sim time:      {:.3} s", stats.elapsed_ns as f64 * 1e-9);
    println!("instructions:  {:.4e}", stats.total_instructions as f64);
    println!("energy:        {:.4} J", stats.total_energy_j);
    println!(
        "efficiency:    {:.4e} instr/J",
        stats.instructions_per_joule()
    );
    println!("throughput:    {:.4e} instr/s", stats.throughput_ips());
    println!("avg power:     {:.3} W", stats.avg_power_w());
    println!("migrations:    {}", stats.migrations);
    println!("\nper-core: instr / energy / busy / sleep");
    for (j, c) in stats.per_core.iter().enumerate() {
        println!(
            "  {:<14} {:>11.3e}  {:>8.3} J  {:>6.2} s  {:>6.2} s",
            platform.core_config(archsim::CoreId(j)).name,
            c.instructions as f64,
            c.energy_j,
            c.busy_ns as f64 * 1e-9,
            c.sleep_ns as f64 * 1e-9,
        );
    }

    if let Some(path) = trace_path {
        let capture = job.trace.as_ref().expect("trace was requested");
        std::fs::write(&path, &capture.csv).expect("write trace");
        println!(
            "\ntrace: {} events written to {path} ({} overwritten)",
            capture.events, capture.dropped
        );
    }
}
