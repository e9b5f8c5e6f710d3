//! Regenerates paper Fig. 7: (a) the per-epoch overhead of the
//! production SmartBalance on the quad-core platform, (b) scalability of
//! the optimizer from 2 to 128 cores, and (c) timings of the optimizer's
//! design choices against their alternatives.
//!
//! The paper's claim: on 2–8-core platforms the total overhead is under
//! 1 % of the 60 ms epoch. (a)'s total is the median wall-clock of
//! `rebalance` on the balancer `Policy::Smart.build` returns, plus the
//! modeled migration cost; its sense / predict / optimize split re-times
//! the library functions `rebalance` calls on the same run's reports.
//!
//! Usage: `fig7 [--json out.json]`. Runs serially on purpose: concurrent
//! workers would contend for cores and inflate the wall-clock timings.

use std::hint::black_box;
use std::time::Instant;

use archsim::Platform;
use kernelsim::{EpochReport, LoadBalancer, System, SystemConfig};
use serde::Serialize;
use smartbalance::fixed::{fx_exp_neg, Fx, Randi};
use smartbalance::objective::IncrementalObjective;
use smartbalance::{
    anneal, build_matrices, exhaustive_best, ipc_rows, known_optimum_case, AnnealParams, Goal,
    Objective, Policy, PredictorSet, Sensor, SmartBalanceConfig,
};
use smartbalance_bench::{maybe_dump_json, median, TimedBalancer};
use workloads::SyntheticGenerator;

/// Fig. 7(a): one production run on the quad-core platform.
#[derive(Debug, Serialize)]
struct OverheadRow {
    policy: String,
    /// Per-phase and production `rebalance` medians, µs.
    sense_us: f64,
    predict_us: f64,
    optimize_us: f64,
    rebalance_us: f64,
    migrations_per_epoch: f64,
    /// Modeled migration cost per epoch, µs (part of `total_us`).
    migration_us: f64,
    total_us: f64,
    epoch_pct: f64,
}

/// Fig. 7(b): one optimizer scaling point.
#[derive(Debug, Serialize)]
struct ScaleRow {
    cores: usize,
    threads: usize,
    max_iter: u32,
    optimize_us: f64,
    migration_us: f64,
    total_us: f64,
    epoch_pct: f64,
}

/// Fig. 7(c): one design choice, timed against its alternative.
#[derive(Debug, Serialize)]
struct AblationRow {
    choice: &'static str,
    kept_us: f64,
    alternative_us: f64,
}

#[derive(Debug, Serialize)]
struct Fig7 {
    overhead: OverheadRow,
    scalability: Vec<ScaleRow>,
    ablations: Vec<AblationRow>,
}

/// Epoch length the percentages are reported against, µs (60 ms).
const EPOCH_US: f64 = 60_000.0;

/// Mean wall-clock of `f(1..=reps)`, µs, after one warm-up call `f(0)`.
fn mean_us<R>(reps: u32, mut f: impl FnMut(u32) -> R) -> f64 {
    black_box(f(0));
    let t0 = Instant::now();
    for r in 1..=reps {
        black_box(f(r));
    }
    t0.elapsed().as_secs_f64() / f64::from(reps) * 1e6
}

/// Runs the production balancer on the quad-core platform (8 threads,
/// 24 epochs) and splits its overhead into phases.
fn overhead(migration_cost_us: f64) -> OverheadRow {
    const EPOCHS: usize = 24;
    let platform = Platform::quad_heterogeneous();
    let cfg = SmartBalanceConfig::default();
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    let mut gen = SyntheticGenerator::new(42);
    for i in 0..8 {
        sys.spawn(gen.profile(format!("t{i}"), 3, u64::MAX / 2, i % 3 == 0));
    }
    let mut balancer = TimedBalancer::new(Policy::Smart.build(&platform, Some(&cfg)));
    let reports: Vec<EpochReport> = (0..EPOCHS).map(|_| sys.run_epoch(&mut balancer)).collect();

    // Replay the same reports through the functions `rebalance` calls,
    // with the same configuration and the very predictor set the timed
    // balancer holds, timing each phase.
    let predictors = PredictorSet::trained(
        &platform,
        cfg.train_corpus,
        cfg.train_seed,
        cfg.sparse_sensing,
    );
    let mut sensor =
        Sensor::new(cfg.min_sample_runtime_ns).with_signature_ttl(cfg.degrade.signature_ttl_epochs);
    let mut phases_us: [Vec<f64>; 3] = Default::default();
    for (epoch, report) in reports.iter().enumerate() {
        let t0 = Instant::now();
        let mut senses = sensor.sense(&platform, report);
        senses.retain(|s| !s.kernel_thread);
        if senses.is_empty() {
            continue;
        }
        let t1 = Instant::now();
        let rows = ipc_rows(&platform, &senses, &predictors);
        let matrices = build_matrices(&platform, &senses, &rows, &predictors);
        let t2 = Instant::now();
        let initial: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let params = AnnealParams::scaled_for(platform.num_cores(), senses.len());
        let objective = Objective::new(&matrices, cfg.goal);
        black_box(anneal(&objective, &initial, params, epoch as u32));
        let marks = [t0, t1, t2, Instant::now()];
        for (phase, w) in phases_us.iter_mut().zip(marks.windows(2)) {
            phase.push((w[1] - w[0]).as_secs_f64() * 1e6);
        }
    }

    let [sense_us, predict_us, optimize_us] = phases_us.map(|p| median(&p));
    let migrations_per_epoch = sys.stats().migrations as f64 / EPOCHS as f64;
    let rebalance_us = median(&balancer.rebalance_us);
    let migration_us = migrations_per_epoch * migration_cost_us;
    let total_us = rebalance_us + migration_us;
    let epoch_pct = 100.0 * total_us / EPOCH_US;
    println!("Fig 7(a): per-epoch overhead, quad-core HMP, 8 threads, median of {EPOCHS} epochs");
    let migrate = format!("modeled, {migrations_per_epoch:.1} migrations avg");
    let total = format!("{epoch_pct:.2} % of the 60 ms epoch; paper: <1 %");
    for (phase, us, note) in [
        ("sense", sense_us, "Sensor::sense"),
        ("predict", predict_us, "ipc_rows + build_matrices"),
        ("optimize", optimize_us, "anneal"),
        ("rebalance", rebalance_us, "SmartBalance::rebalance"),
        ("migrate", migration_us, &migrate),
        ("total", total_us, &total),
    ] {
        println!("  {:<10} {us:>9.1} us  ({note})", format!("{phase}:"));
    }
    OverheadRow {
        policy: balancer.name().to_owned(),
        sense_us,
        predict_us,
        optimize_us,
        rebalance_us,
        migrations_per_epoch,
        migration_us,
        total_us,
        epoch_pct,
    }
}

/// Times the annealer alone over the Fig. 8(a) iteration budgets.
fn scalability(migration_cost_us: f64) -> Vec<ScaleRow> {
    println!("\nFig 7(b): scalability (threads = 2x cores, 50 % migrated assumed)");
    println!(" cores  threads  max_iter  optimize_us   migrate_us     total_us   % epoch");
    let mut rows = Vec::new();
    for cores in [2usize, 4, 8, 16, 32, 64, 128] {
        let threads = 2 * cores;
        let case = known_optimum_case(cores, 2, cores as u64);
        let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
        let params = AnnealParams::scaled_for(cores, threads);
        let initial = vec![0usize; threads];
        let optimize_us = mean_us(5, |r| anneal(&objective, &initial, params, r + 1));
        // The paper assumes 50 % of threads migrate.
        let migration_us = threads as f64 * 0.5 * migration_cost_us;
        let total_us = optimize_us + migration_us;
        let epoch_pct = 100.0 * total_us / EPOCH_US;
        println!(
            "{cores:>6} {threads:>8} {:>9} {optimize_us:>12.1} {migration_us:>12.1} {total_us:>12.1} {epoch_pct:>9.2}",
            params.max_iter
        );
        rows.push(ScaleRow {
            cores,
            threads,
            max_iter: params.max_iter,
            optimize_us,
            migration_us,
            total_us,
            epoch_pct,
        });
    }
    println!("(paper: optimization + migration dominate; quad-core total <1 % of epoch)");
    rows
}

/// Times `kept` against `alternative` over 2000 calls each; prints the row.
fn ablation<A, B>(
    choice: &'static str,
    kept: impl FnMut(u32) -> A,
    alternative: impl FnMut(u32) -> B,
) -> AblationRow {
    let (kept_us, alternative_us) = (mean_us(2_000, kept), mean_us(2_000, alternative));
    let speedup = alternative_us / kept_us;
    println!("{choice:<42} {kept_us:>10.3} {alternative_us:>12.3} {speedup:>7.2}x");
    AblationRow {
        choice,
        kept_us,
        alternative_us,
    }
}

/// Times each of the optimizer's design choices against its alternative.
fn ablations() -> Vec<AblationRow> {
    println!("\nFig 7(c): design choices, mean us per call after one warm-up call");
    println!("choice                                        kept_us  alternative  speedup");

    // Fixed-point probability functions (Section 4.3).
    let xs: Vec<f64> = (0..256).map(|i| f64::from(i) * 0.04).collect();
    let fx_xs: Vec<Fx> = xs.iter().map(|&x| Fx::from_f64(x)).collect();
    let exp = ablation(
        "fx_exp_neg vs f64 exp (x256)",
        |_| fx_xs.iter().map(|&x| fx_exp_neg(x).0).sum::<i64>(),
        |_| xs.iter().map(|&x| (-x).exp()).sum::<f64>(),
    );
    let (mut int_rng, mut float_rng) = (Randi::new(7), Randi::new(7));
    let rand = ablation(
        "randi vs f64 uniform (x256)",
        |_| (0..256).fold(0u32, |a, _| a.wrapping_add(int_rng.randi())),
        |_| {
            (0..256)
                .map(|_| f64::from(float_rng.randi()) / 2f64.powi(32))
                .sum::<f64>()
        },
    );

    // Incremental objective: score a move from the cached state instead
    // of re-evaluating the whole allocation (16 cores x 32 threads).
    let case = known_optimum_case(16, 2, 3);
    let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
    let alloc: Vec<usize> = (0..32).map(|i| i % 16).collect();
    let state = IncrementalObjective::new(&objective, &alloc);
    let mut work = alloc.clone();
    let delta = ablation(
        "incremental vs full objective (x32 moves)",
        |_| {
            (0..32)
                .map(|i| state.delta_for_move(i, (i + 7) % 16))
                .sum::<f64>()
        },
        |_| {
            let base = objective.evaluate(&alloc);
            let mut sum = 0.0;
            for i in 0..32 {
                work[i] = (i + 7) % 16;
                sum += objective.evaluate(&work) - base;
                work[i] = alloc[i];
            }
            sum
        },
    );

    // Annealing vs exhaustive search over all 729 allocations.
    let case = known_optimum_case(3, 2, 5);
    let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
    let params = AnnealParams::scaled_for(3, 6);
    let search = ablation(
        "anneal vs exhaustive (3c x 6t)",
        |r| anneal(&objective, &[0; 6], params, r + 9),
        |_| exhaustive_best(&objective).expect("small case"),
    );
    vec![exp, rand, delta, search]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let migration_cost_us = SystemConfig::default().migration_cost_ns as f64 / 1e3;
    let fig = Fig7 {
        overhead: overhead(migration_cost_us),
        scalability: scalability(migration_cost_us),
        ablations: ablations(),
    };
    maybe_dump_json(&args, &fig);
}
