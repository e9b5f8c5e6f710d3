//! Regenerates paper Fig. 6: average error in performance (IPC) and
//! power prediction across the PARSEC benchmarks.
//!
//! For every benchmark, every phase's counter signature is collected on
//! each source core type and its IPC/power predicted on every other
//! core type; the bar is the mean absolute relative error over all
//! ordered type pairs. The paper reports 4.2 % (performance) and 5 %
//! (power) on average.
//!
//! Usage: `fig6 [--json out.json]`

use archsim::{CoreTypeId, Platform};
use serde::Serialize;
use smartbalance::predict::{evaluate_pair, PredictorSet};
use smartbalance::{default_workers, parallel_indexed};
use smartbalance_bench::maybe_dump_json;

#[derive(Debug, Serialize)]
struct ErrorRow {
    benchmark: String,
    ipc_error_pct: f64,
    power_error_pct: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let platform = Platform::quad_heterogeneous();
    let predictors = PredictorSet::train(&platform, 400, 0xDAC_2015);
    let q = platform.num_types();

    let mut benchmarks = workloads::parsec::all();
    for name in ["x264_H_crew", "x264_H_bow", "x264_L_crew", "x264_L_bow"] {
        benchmarks.push(workloads::parsec::by_name(name).expect("x264 variant"));
    }

    println!("Fig 6: average prediction error across PARSEC");
    println!(
        "{:<16} {:>10} {:>10}",
        "benchmark", "perf err%", "power err%"
    );
    // Each benchmark's q² pair-evaluations are independent; fan them
    // out with the suite's work-distribution helper.
    let rows = parallel_indexed(benchmarks.len(), default_workers(), |i| {
        let b = &benchmarks[i];
        let corpus: Vec<_> = b.phases().iter().map(|p| p.characteristics).collect();
        let mut ipc_err = 0.0;
        let mut pow_err = 0.0;
        let mut pairs = 0;
        for s in 0..q {
            for d in 0..q {
                if s == d {
                    continue;
                }
                let (ei, ep) = evaluate_pair(
                    &predictors,
                    &platform,
                    &corpus,
                    CoreTypeId(s),
                    CoreTypeId(d),
                );
                ipc_err += ei;
                pow_err += ep;
                pairs += 1;
            }
        }
        ErrorRow {
            benchmark: b.name().to_owned(),
            ipc_error_pct: 100.0 * ipc_err / pairs as f64,
            power_error_pct: 100.0 * pow_err / pairs as f64,
        }
    });
    let (mut sum_ipc, mut sum_pow) = (0.0, 0.0);
    for r in &rows {
        println!(
            "{:<16} {:>10.2} {:>10.2}",
            r.benchmark, r.ipc_error_pct, r.power_error_pct
        );
        sum_ipc += r.ipc_error_pct;
        sum_pow += r.power_error_pct;
    }
    let n = benchmarks.len() as f64;
    println!(
        "{:<16} {:>10.2} {:>10.2}   (paper: 4.2 / 5.0)",
        "AVERAGE",
        sum_ipc / n,
        sum_pow / n
    );
    maybe_dump_json(&args, &rows);
}
