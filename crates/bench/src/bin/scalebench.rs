//! `scalebench` — scaling benchmark for the hierarchical sharded
//! balancer on 64–4096-core clustered platforms.
//!
//! For each tier of a cores × tasks grid
//! ([`Platform::clustered_heterogeneous`]), runs the same mixed
//! workload under the flat SmartBalance annealer and under the
//! cluster-sharded balancer (`SmartBalanceConfig.shard = Some(..)`),
//! timing the balancer's `rebalance` calls in isolation through the
//! shared [`TimedBalancer`] wrapper. Reports per tier: epochs/s, mean
//! rebalance µs/epoch, achieved IPS/W (≡ instructions per joule) for
//! both paths, the sharded-over-flat rebalance speedup and the
//! sharded/flat efficiency ratio. Results land in `BENCH_scale.json`
//! (override with `--json <path>`).
//!
//! The flat path is skipped above 1024 cores: its dense `m × n`
//! characterization matrices are O(m·n) memory (~0.5 GB at 4096 cores
//! × 6144 threads), which is the scaling wall the sharded path exists
//! to remove; `flat` is `null` for such tiers.
//!
//! Flags:
//!
//! * `--smoke` — CI-sized grid (two small tiers, few epochs), for
//!   exercising the pipeline rather than producing stable numbers.
//! * `--json <path>` — output path for the JSON report.

use std::time::Instant;

use archsim::{CoreId, Platform, WorkloadCharacteristics};
use kernelsim::{LoadBalancer, System, SystemConfig};
use serde::Serialize;
use smartbalance::{Policy, ShardConfig, SmartBalanceConfig};
use smartbalance_bench::{flag_value, TimedBalancer};
use workloads::WorkloadProfile;

/// One balancer's measured run at one tier.
#[derive(Debug, Clone, Serialize)]
struct SideStats {
    /// Policy name as the balancer reports it.
    policy: String,
    /// Wall-clock of the measured epoch loop, seconds.
    wall_s: f64,
    /// Epoch throughput, epochs per wall-clock second.
    epochs_per_s: f64,
    /// Mean wall-clock inside `rebalance`, µs per epoch.
    rebalance_us_per_epoch: f64,
    /// Achieved energy efficiency of the run, instructions per joule.
    ips_per_w: f64,
    /// Migrations performed over the run.
    migrations: u64,
    /// Migrations that crossed a cluster boundary.
    cross_cluster_migrations: u64,
}

/// One cores × tasks grid point.
#[derive(Debug, Clone, Serialize)]
struct TierStats {
    /// Clusters on the platform.
    clusters: usize,
    /// Homogeneous cores per cluster.
    cores_per_cluster: usize,
    /// Total cores (`clusters × cores_per_cluster`).
    cores: usize,
    /// Tasks in the workload.
    tasks: usize,
    /// Epochs each side simulated.
    epochs: u64,
    /// Flat SmartBalance run; `null` when the tier exceeds the flat
    /// path's practical size (dense matrices, > 1024 cores).
    flat: Option<SideStats>,
    /// Cluster-sharded run.
    sharded: SideStats,
    /// `flat.rebalance_us / sharded.rebalance_us` (absent without flat).
    rebalance_speedup: Option<f64>,
    /// `sharded.ips_per_w / flat.ips_per_w` (absent without flat).
    ips_per_w_ratio: Option<f64>,
}

/// The full `BENCH_scale.json` document (schema v1).
#[derive(Debug, Clone, Serialize)]
struct ScaleReport {
    /// Report schema version.
    schema: u32,
    /// `true` when produced by a `--smoke` run (numbers not comparable).
    smoke: bool,
    /// Shard configuration the sharded sides ran with.
    shard: ShardConfig,
    /// Grid points, smallest tier first.
    tiers: Vec<TierStats>,
}

/// Builds the tier's system: a mixed compute/memory/balanced workload
/// scattered round-robin so every cluster starts loaded.
fn build_system(platform: &Platform, tasks: usize) -> System {
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    for k in 0..tasks {
        let w = match k % 3 {
            0 => WorkloadCharacteristics::compute_bound(),
            1 => WorkloadCharacteristics::memory_bound(),
            _ => WorkloadCharacteristics::balanced(),
        };
        // Budgets far beyond the horizon: nothing exits mid-run.
        sys.spawn_on(
            WorkloadProfile::uniform(format!("t{k}"), w, u64::MAX / 64),
            CoreId(k % platform.num_cores()),
        );
    }
    sys
}

/// Runs one side (flat or sharded per `shard`) of one tier.
fn run_side(
    platform: &Platform,
    tasks: usize,
    epochs: u64,
    shard: Option<ShardConfig>,
) -> SideStats {
    let cfg = SmartBalanceConfig {
        shard,
        ..SmartBalanceConfig::default()
    };
    let mut balancer = TimedBalancer::new(Policy::Smart.build(platform, Some(&cfg)));
    let mut sys = build_system(platform, tasks);
    let t0 = Instant::now();
    for _ in 0..epochs {
        sys.run_epoch(&mut balancer);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = sys.stats();
    SideStats {
        policy: balancer.name().to_owned(),
        wall_s,
        epochs_per_s: epochs as f64 / wall_s,
        rebalance_us_per_epoch: balancer.rebalance_us.iter().sum::<f64>() / epochs as f64,
        ips_per_w: stats.instructions_per_joule(),
        migrations: stats.migrations,
        cross_cluster_migrations: stats.cross_cluster_migrations,
    }
}

/// Runs one cores × tasks grid point, flat side included only up to
/// `flat_core_limit` cores.
fn run_tier(
    clusters: usize,
    cores_per_cluster: usize,
    epochs: u64,
    flat_core_limit: usize,
    shard: ShardConfig,
) -> TierStats {
    let platform = Platform::clustered_heterogeneous(clusters, cores_per_cluster);
    let cores = platform.num_cores();
    let tasks = cores + cores / 2; // 1.5 threads per core: contended but sane
    let sharded = run_side(&platform, tasks, epochs, Some(shard));
    let flat = (cores <= flat_core_limit).then(|| run_side(&platform, tasks, epochs, None));
    let rebalance_speedup = flat
        .as_ref()
        .map(|f| f.rebalance_us_per_epoch / sharded.rebalance_us_per_epoch);
    let ips_per_w_ratio = flat.as_ref().map(|f| sharded.ips_per_w / f.ips_per_w);
    TierStats {
        clusters,
        cores_per_cluster,
        cores,
        tasks,
        epochs,
        flat,
        sharded,
        rebalance_speedup,
        ips_per_w_ratio,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "BENCH_scale.json".to_owned());

    // (clusters, cores_per_cluster, epochs) per tier. The flat side is
    // only run where its dense matrices stay reasonable.
    let (grid, flat_core_limit): (&[(usize, usize, u64)], usize) = if smoke {
        (&[(2, 8, 6), (4, 16, 6)], 64)
    } else {
        (&[(4, 16, 24), (8, 32, 24), (16, 64, 16), (64, 64, 8)], 1024)
    };
    let shard = ShardConfig::default();

    // Warm-up: page in code, train a predictor set once.
    run_tier(2, 4, 2, usize::MAX, shard);

    let tiers: Vec<TierStats> = grid
        .iter()
        .map(|&(c, k, epochs)| {
            let tier = run_tier(c, k, epochs, flat_core_limit, shard);
            println!(
                "{:>5} cores ({:>2}x{:<2}) {:>6} tasks | sharded {:>10.1} us/epoch | flat {:>12} | speedup {:>8} | ips/w ratio {:>7}",
                tier.cores,
                c,
                k,
                tier.tasks,
                tier.sharded.rebalance_us_per_epoch,
                tier.flat
                    .as_ref()
                    .map_or("skipped".to_owned(), |f| format!(
                        "{:.1} us",
                        f.rebalance_us_per_epoch
                    )),
                tier.rebalance_speedup
                    .map_or("-".to_owned(), |s| format!("{s:.2}x")),
                tier.ips_per_w_ratio
                    .map_or("-".to_owned(), |r| format!("{r:.3}")),
            );
            tier
        })
        .collect();

    let report = ScaleReport {
        schema: 1,
        smoke,
        shard,
        tiers,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&json_path, json).expect("write json report");
    println!("(report written to {json_path})");
}
