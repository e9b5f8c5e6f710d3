//! `perfstat` — hot-loop performance counter for the simulation engine.
//!
//! Runs the reference epoch-loop scenario (quad heterogeneous platform,
//! 24 mixed batch/interactive multi-phase tasks, 2000 epochs) three
//! times — the reference slice engine with the memoized estimate cache
//! enabled and disabled, and the batched slice engine — and reports
//! slices/sec, epochs/sec and the estimate-cache hit statistics for
//! each round, plus the wall-clock of a small [`ExperimentSuite`] grid.
//! Results are written to `BENCH_hotpath.json` (override with
//! `--json <path>`).
//!
//! The rounds double as a parity gate: all three must commit the same
//! instructions, dispatch the same slice count, and land bit-identical
//! total energy (`f64::to_bits`). A divergence aborts the process, so
//! the CI smoke run fails if either engine drifts.
//!
//! Report schema v2: per-engine rounds (`engine` + `energy_bits` fields
//! on each row), `speedup` (estimate memoization, uncached/cached) and
//! `speedup_batched` (batched engine over the cached reference round).
//!
//! Flags:
//!
//! * `--smoke` — CI-sized grid (200 epochs, 12 tasks, tiny suite), for
//!   exercising the pipeline rather than producing stable numbers.
//! * `--json <path>` — output path for the JSON report.

use std::time::Instant;

use archsim::Platform;
use kernelsim::{EngineKind, NullBalancer, System, SystemConfig};
use serde::Serialize;
use smartbalance::{ExperimentSpec, ExperimentSuite, Policy};
use smartbalance_bench::flag_value;
use workloads::{ImbConfig, Level, SyntheticGenerator};

/// Seed for the reference scenario's synthetic workload generator.
const SEED: u64 = 0xB007;

/// One measured run of the epoch loop.
#[derive(Debug, Clone, Serialize)]
struct RoundStats {
    /// Slice engine the round ran on (`reference` / `batched`).
    engine: String,
    /// Whether the estimate cache was enabled.
    cached: bool,
    /// Wall-clock of the measured round, seconds.
    wall_s: f64,
    /// Epochs simulated.
    epochs: u64,
    /// Epoch throughput, epochs per wall-clock second.
    epochs_per_s: f64,
    /// Scheduling slices dispatched.
    slices: u64,
    /// Slice throughput, slices per wall-clock second.
    slices_per_s: f64,
    /// Instructions committed (identical across rounds by design).
    instructions: u64,
    /// `f64::to_bits` of the total platform energy — the bit-parity
    /// fingerprint every round must agree on.
    energy_bits: u64,
    /// Estimate-cache hits during the round.
    cache_hits: u64,
    /// Estimate-cache misses during the round.
    cache_misses: u64,
    /// `hits / (hits + misses)`.
    cache_hit_rate: f64,
}

/// The full `BENCH_hotpath.json` document (schema v2).
#[derive(Debug, Clone, Serialize)]
struct HotpathReport {
    /// Report schema version.
    schema: u32,
    /// `true` when produced by a `--smoke` run (numbers not comparable).
    smoke: bool,
    /// Tasks in the epoch-loop scenario.
    tasks: usize,
    /// Epochs per round in the epoch-loop scenario.
    epochs: u64,
    /// Reference engine, estimate cache enabled.
    cached: RoundStats,
    /// Reference engine, estimate cache disabled.
    uncached: RoundStats,
    /// Batched engine, estimate cache enabled.
    batched: RoundStats,
    /// `uncached.wall_s / cached.wall_s` — the memoization speedup.
    speedup: f64,
    /// `cached.wall_s / batched.wall_s` — the batched-engine speedup
    /// over the cached reference round.
    speedup_batched: f64,
    /// Jobs in the suite wall-clock grid.
    suite_jobs: usize,
    /// Workers the suite ran on.
    suite_workers: usize,
    /// Suite wall-clock, seconds.
    suite_wall_s: f64,
    /// Suite throughput, jobs per second.
    suite_jobs_per_s: f64,
}

/// Runs one full round of the reference scenario and measures it.
fn run_round(engine: EngineKind, cached: bool, epochs: u64, tasks: usize) -> RoundStats {
    let config = SystemConfig {
        engine,
        ..SystemConfig::default()
    };
    let mut sys = System::new(Platform::quad_heterogeneous(), config);
    sys.set_estimate_caching(cached);
    let mut gen = SyntheticGenerator::new(SEED);
    for i in 0..tasks {
        let p = gen.profile(format!("t{i}"), 4, u64::MAX / 64, i % 2 == 0);
        sys.spawn(p);
    }
    let mut nb = NullBalancer;
    let t0 = Instant::now();
    for _ in 0..epochs {
        sys.run_epoch(&mut nb);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let slices = sys.total_slices();
    let cache = sys.estimate_cache();
    RoundStats {
        engine: engine.as_str().to_owned(),
        cached,
        wall_s,
        epochs,
        epochs_per_s: epochs as f64 / wall_s,
        slices,
        slices_per_s: slices as f64 / wall_s,
        instructions: sys.stats().total_instructions,
        energy_bits: sys.sensors().total_energy_j().to_bits(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        cache_hit_rate: cache.hit_rate(),
    }
}

/// Asserts the parity contract between two rounds: identical committed
/// work and bit-identical energy. Process-aborting on purpose — this is
/// the CI divergence gate.
fn assert_parity(a: &RoundStats, b: &RoundStats) {
    assert_eq!(
        a.instructions, b.instructions,
        "instruction divergence: {}(cached={}) vs {}(cached={})",
        a.engine, a.cached, b.engine, b.cached
    );
    assert_eq!(
        a.slices, b.slices,
        "slice-count divergence: {}(cached={}) vs {}(cached={})",
        a.engine, a.cached, b.engine, b.cached
    );
    assert_eq!(
        a.energy_bits, b.energy_bits,
        "energy bit divergence: {}(cached={}) vs {}(cached={})",
        a.engine, a.cached, b.engine, b.cached
    );
}

/// Times a small experiment-suite grid: two IMB configurations,
/// parallelized to 8 threads each, under two policies.
fn run_suite(scale: f64) -> (usize, usize, f64, f64) {
    let mut suite = ExperimentSuite::new();
    for (name, cfg) in [
        ("hi-lo", ImbConfig::new(Level::High, Level::Low)),
        ("med-lo", ImbConfig::new(Level::Medium, Level::Low)),
    ] {
        let spec = ExperimentSpec::new(
            name,
            Platform::quad_heterogeneous(),
            ExperimentSpec::parallelize(&cfg.profile().scaled(scale), 8),
        );
        for policy in [Policy::None, Policy::Vanilla] {
            suite.push(spec.clone(), policy);
        }
    }
    let report = suite.run();
    (
        report.jobs.len(),
        report.workers,
        report.wall_s,
        report.throughput_jobs_per_s(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "BENCH_hotpath.json".to_owned());

    let (epochs, tasks, suite_scale) = if smoke {
        (200u64, 12usize, 1.0)
    } else {
        (2000u64, 24usize, 400.0)
    };

    // Warm-up round: page in code, warm the allocator.
    run_round(EngineKind::Reference, true, epochs.min(200), tasks);

    let cached = run_round(EngineKind::Reference, true, epochs, tasks);
    let uncached = run_round(EngineKind::Reference, false, epochs, tasks);
    let batched = run_round(EngineKind::Batched, true, epochs, tasks);
    // Memoization must not change simulated execution, and the batched
    // engine must be bit-identical to the reference interpreter.
    assert_parity(&cached, &uncached);
    assert_parity(&cached, &batched);
    assert_eq!(
        (batched.cache_hits, batched.cache_misses),
        (cached.cache_hits, cached.cache_misses),
        "estimate-cache telemetry divergence between engines"
    );

    let (suite_jobs, suite_workers, suite_wall_s, suite_jobs_per_s) = run_suite(suite_scale);

    let report = HotpathReport {
        schema: 2,
        smoke,
        tasks,
        epochs,
        speedup: uncached.wall_s / cached.wall_s,
        speedup_batched: cached.wall_s / batched.wall_s,
        cached,
        uncached,
        batched,
        suite_jobs,
        suite_workers,
        suite_wall_s,
        suite_jobs_per_s,
    };

    println!(
        "{:<20} {:>9} {:>12} {:>14} {:>10} {:>9}",
        "round", "wall_s", "epochs/s", "slices/s", "hit_rate", "slices"
    );
    for r in [&report.cached, &report.uncached, &report.batched] {
        println!(
            "{:<20} {:>9.4} {:>12.1} {:>14.1} {:>10.4} {:>9}",
            format!(
                "{}/{}",
                r.engine,
                if r.cached { "cached" } else { "uncached" }
            ),
            r.wall_s,
            r.epochs_per_s,
            r.slices_per_s,
            r.cache_hit_rate,
            r.slices
        );
    }
    println!(
        "speedup: {:.2}x memoization, {:.2}x batched engine  |  suite: {} jobs on {} workers in {:.2} s ({:.2} jobs/s)",
        report.speedup,
        report.speedup_batched,
        report.suite_jobs,
        report.suite_workers,
        report.suite_wall_s,
        report.suite_jobs_per_s
    );

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&json_path, json).expect("write json report");
    println!("(report written to {json_path})");
}
