//! Regenerates paper Fig. 8: (a) the maximum iteration budget
//! (`Opt_max_iter`) used for each scalability scenario together with
//! the resulting *distance to optimal* — measured on synthetic cases
//! whose optimal solution is known — and (b) the values of the
//! remaining optimization parameters.
//!
//! Usage: `fig8 [--json out.json]`

use serde::Serialize;
use smartbalance::{
    anneal, default_workers, known_optimum_case, parallel_indexed, AnnealParams, Goal, Objective,
};
use smartbalance_bench::maybe_dump_json;

#[derive(Debug, Serialize)]
struct Fig8Row {
    cores: usize,
    threads: usize,
    max_iter: u32,
    distance_to_optimal_pct: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    println!("Fig 8(a): Opt_max_iter per scenario and distance to optimal");
    println!(
        "{:>6} {:>8} {:>9} {:>20}",
        "cores", "threads", "max_iter", "distance-to-opt (%)"
    );
    // Each scenario's trials are deterministic and independent of the
    // others — fan the scenarios out, print in order afterwards.
    let scenarios = [2usize, 4, 8, 16, 32, 64, 128];
    let rows = parallel_indexed(scenarios.len(), default_workers(), |i| {
        let cores = scenarios[i];
        let threads = 2 * cores;
        let params = AnnealParams::scaled_for(cores, threads);
        // Average the gap over several known-optimum instances; the
        // initial allocation is the worst case (everything stacked on
        // core 0).
        let trials = 5;
        let mut gap = 0.0;
        for t in 0..trials {
            let case = known_optimum_case(cores, 2, 1_000 * cores as u64 + t);
            let objective = Objective::new(&case.matrices, Goal::EnergyEfficiency);
            let initial = vec![0usize; threads];
            let out = anneal(&objective, &initial, params, 77 + t as u32);
            gap += (1.0 - out.objective / case.optimal_value).max(0.0);
        }
        Fig8Row {
            cores,
            threads,
            max_iter: params.max_iter,
            distance_to_optimal_pct: 100.0 * gap / trials as f64,
        }
    });
    for r in &rows {
        println!(
            "{:>6} {:>8} {:>9} {:>20.2}",
            r.cores, r.threads, r.max_iter, r.distance_to_optimal_pct
        );
    }
    println!("(paper: distance to optimal grows slowly as the iteration cap binds)");

    let d = AnnealParams::default();
    println!("\nFig 8(b): remaining optimization parameters");
    println!("  Opt_perturb        = {}", d.perturb);
    println!("  Opt_Delta_perturb  = {}", d.dperturb);
    println!("  Opt_accept         = {} (GIPS/W units)", d.accept);
    println!("  Opt_Delta_accept   = {}", d.daccept);
    maybe_dump_json(&args, &rows);
}
