//! perfbench — the repository benchmark. Times the production
//! SmartBalance loop end to end and per layer on four workloads and
//! checks that the simulated results are correct.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <quad-paper|quad-vanilla|cluster-1024|campaign-grid> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics,
//! with `--trace 1` the per-layer metrics of a traced run, whose benchmark
//! spans are written to `.perfbench/trace-<workload>.jsonl`. A failed
//! correctness check marks every operation failed and exits with 1.

mod epochs;
mod grid;
mod job;
mod timing;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use archsim::Platform;
use kernelsim::Topology;
use smartbalance::Policy;
use telemetry::registry::labeled;
use telemetry::TelemetryHandle;

use crate::epochs::EpochWorkload;
use crate::grid::GridWorkload;
use crate::timing::{peak_rss_mb, stage_work, SpanLog};

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("sim_epochs_per_s", "epochs/s"),
    ("rebalance_us_p50", "us"),
    ("rebalance_us_p95", "us"),
    ("cells_per_s", "cells/s"),
    ("ips_per_w", "instr/J"),
    ("gain_vs_vanilla_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: &[(&str, &str)] = &[
    ("kernelsim.epoch_self_us_p50", "us"),
    ("kernelsim.self_share", "fraction"),
    ("kernelsim.slices_per_epoch", "count"),
    ("kernelsim.migrations_applied", "count"),
    ("kernelsim.cross_cluster_migrations", "count"),
    ("archsim.memo_hit_ratio", "fraction"),
    ("smartbalance.build_ms", "ms"),
    ("smartbalance.build_share", "fraction"),
    ("smartbalance.rebalance_share", "fraction"),
    ("smartbalance.sense.work_per_epoch", "count"),
    ("smartbalance.predict.cells_per_epoch", "count"),
    ("smartbalance.anneal.iterations_per_epoch", "count"),
    ("smartbalance.anneal.accept_ratio", "fraction"),
    ("smartbalance.exchange.candidates_per_epoch", "count"),
    ("smartbalance.exchange.commit_ratio", "fraction"),
    ("smartbalance.apply.migrated_ratio", "fraction"),
    ("smartbalance.degrade.transitions", "count"),
    ("campaign.cell_busy_ms_p50", "ms"),
    ("campaign.pool_utilization", "fraction"),
    ("campaign.idle_s", "s"),
    ("campaign.journal_flushes", "count"),
    ("campaign.journal_bytes", "bytes"),
    ("campaign.journal_flush_ms", "ms"),
    ("campaign.retries", "count"),
    ("campaign.quarantined", "count"),
    ("telemetry.overhead_pct", "%"),
    ("telemetry.dropped_spans", "count"),
    ("mcpat.energy_j", "J"),
    ("error_rate", "fraction"),
];

/// The campaign layer's metrics: zero (no work) on the epoch-loop
/// workloads, which never enter it.
const CAMPAIGN_LAYER: [&str; 8] = [
    "campaign.cell_busy_ms_p50",
    "campaign.pool_utilization",
    "campaign.idle_s",
    "campaign.journal_flushes",
    "campaign.journal_bytes",
    "campaign.journal_flush_ms",
    "campaign.retries",
    "campaign.quarantined",
];

const WORKLOADS: [&str; 4] = [
    "quad-paper",
    "quad-vanilla",
    "cluster-1024",
    "campaign-grid",
];

/// The seed used when `--seed` is not given. Claims are rechecked on
/// the held-out seed, 7919, which is kept out of tuning.
const DEFAULT_SEED: u64 = 1;

/// Worker-pool size for both the shard anneal fan-out and the campaign:
/// every core the host offers (`nproc`), printed with every result. All
/// load is generated from this one process.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What one run measured and whether its results were correct.
pub struct Outcome {
    /// Operations attempted: epochs, or campaign cells.
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Sample counts and run shape, printed with the result.
    pub info: Vec<String>,
}

impl Outcome {
    pub fn new(attempted: u64) -> Self {
        Outcome {
            attempted: attempted.max(1),
            failures: Vec::new(),
            metrics: Metrics::default(),
            info: Vec::new(),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }
}

pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Balancer work counts from telemetry hubs, per epoch where a rate.
/// Sharded anneals are labelled per cluster of `platform`.
fn balancer_counters(m: &mut Metrics, hubs: &[&TelemetryHandle], epochs: u64, platform: &Platform) {
    let clusters = Topology::from_platform(platform).num_clusters();
    let stage = |name: &str| hubs.iter().map(|h| stage_work(h, name)).sum::<u64>();
    let counter = |key: &str| {
        hubs.iter()
            .map(|h| h.borrow().registry().counter(key))
            .sum::<u64>()
    };
    let shard_accepted: u64 = (0..clusters)
        .map(|c| {
            counter(&labeled(
                "sb_shard_anneal_accepted_total",
                &[("cluster", &c.to_string())],
            ))
        })
        .sum();
    let anneal = stage("anneal");
    m.set(
        "smartbalance.sense.work_per_epoch",
        ratio(stage("sense"), epochs),
    );
    m.set(
        "smartbalance.predict.cells_per_epoch",
        ratio(stage("predict"), epochs),
    );
    m.set(
        "smartbalance.anneal.iterations_per_epoch",
        ratio(anneal, epochs),
    );
    m.set(
        "smartbalance.anneal.accept_ratio",
        ratio(counter("sb_anneal_accepted_total") + shard_accepted, anneal),
    );
    m.set(
        "smartbalance.exchange.candidates_per_epoch",
        ratio(stage("exchange"), epochs),
    );
    m.set(
        "smartbalance.exchange.commit_ratio",
        ratio(
            counter("sb_shard_exchange_moves_total"),
            counter("sb_shard_exchange_candidates_total"),
        ),
    );
    m.set(
        "smartbalance.apply.migrated_ratio",
        ratio(
            counter("sb_migrations_total"),
            counter("sb_alloc_requested_total"),
        ),
    );
    m.set(
        "smartbalance.degrade.transitions",
        counter("sb_mode_transitions_total") as f64,
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: cannot parse `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not `{}`",
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = workers();
    let budget = Duration::from_secs(args.seconds);
    let out_dir = PathBuf::from(".perfbench");
    let mut log = SpanLog::new(origin, args.trace);
    let mut outcome = match args.workload.as_str() {
        "quad-paper" => {
            EpochWorkload::quad(Policy::Smart, args.seed).run(budget, args.trace, &mut log)
        }
        "quad-vanilla" => {
            EpochWorkload::quad(Policy::Vanilla, args.seed).run(budget, args.trace, &mut log)
        }
        "cluster-1024" => {
            EpochWorkload::cluster(args.seed, workers).run(budget, args.trace, &mut log)
        }
        _ => {
            let dir = out_dir.join(format!("campaign-{}", std::process::id()));
            match GridWorkload::new(args.seed, workers, dir).run(budget, args.trace, &mut log) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("perfbench: campaign journal I/O failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    outcome.metrics.set("peak_rss_mb", peak_rss_mb());
    report(&args, workers, outcome, &log, &out_dir)
}

/// Prints the human-readable lines and the final JSON line; writes the
/// traced run's spans.
fn report(
    args: &Args,
    workers: usize,
    mut outcome: Outcome,
    log: &SpanLog,
    out_dir: &std::path::Path,
) -> ExitCode {
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in wanted.iter().filter(|(n, _)| *n != "error_rate") {
        let value = outcome.metrics.0.get(name).copied();
        match value {
            Some(v) if v.is_finite() => {}
            _ => outcome.fail(format!("metric {name} is {value:?}")),
        }
    }
    if let Some(&ipw) = outcome.metrics.0.get("ips_per_w") {
        if ipw <= 0.0 {
            outcome.fail(format!("ips_per_w is {ipw}, not positive"));
        }
    }
    if args.trace {
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload));
        if let Err(e) = log.write_jsonl(&path) {
            outcome.fail(format!("writing {}: {e}", path.display()));
        }
        outcome.info.push(format!(
            "spans={} (not kept: {}) written to {}",
            log.len(),
            log.dropped(),
            path.display()
        ));
    }
    let failed = if outcome.failures.is_empty() {
        0
    } else {
        outcome.attempted
    };
    let error_rate = failed as f64 / outcome.attempted as f64;
    outcome.metrics.set("error_rate", error_rate);
    for f in &outcome.failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} cores={} shard_workers={} campaign_workers={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workers,
        workers,
        workers
    );
    for line in &outcome.info {
        println!("perfbench: {line}");
    }
    println!(
        "perfbench: attempted={} failed={failed} error_rate={error_rate}",
        outcome.attempted
    );
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let value = outcome.metrics.0.get(name).copied().unwrap_or(f64::NAN);
        println!("  {name:<44} {value:>16.6} {unit}");
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_owned()
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted,
        fields.join(", ")
    );
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
