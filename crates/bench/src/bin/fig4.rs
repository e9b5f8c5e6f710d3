//! Regenerates paper Fig. 4: SmartBalance's energy efficiency relative
//! to the vanilla Linux load balancer on the quad-core 4-type
//! heterogeneous MPSoC.
//!
//! - Fig. 4(a): the nine interactive micro-benchmarks (`--set imb`)
//! - Fig. 4(b): PARSEC benchmarks and Table 3 mixes (`--set parsec`)
//!
//! Each workload runs at 2/4/8 threads under both policies; the
//! reported ratio is measured instructions-per-joule (≡ IPS/Watt),
//! SmartBalance over vanilla. The paper's headline: +50.02 % (IMB) and
//! +52 % (PARSEC), >50 % overall.
//!
//! Usage: `fig4 [--set imb|parsec|all] [--threads 2,4,8] [--json out.json]`

use archsim::Platform;
use smartbalance::Policy;
use smartbalance_bench::{
    flag_value, imb_workloads, maybe_dump_json, parsec_workloads, print_rows, print_suite_summary,
    run_policy_grid, ComparisonRow, THREAD_COUNTS,
};

fn parse_threads(args: &[String]) -> Vec<usize> {
    flag_value(args, "--threads")
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| THREAD_COUNTS.to_vec())
}

fn run_set(
    title: &str,
    platform: &Platform,
    bundles: &[(String, Vec<workloads::WorkloadProfile>)],
    threads: &[usize],
) -> Vec<ComparisonRow> {
    // Every workload × thread-count runs under both policies in one
    // parallel suite; job chunks come back aligned with the keys.
    let policies = [Policy::Vanilla, Policy::Smart];
    let (report, keys) = run_policy_grid(platform, bundles, threads, &policies);
    let rows: Vec<ComparisonRow> = keys
        .iter()
        .zip(report.jobs.chunks(policies.len()))
        .map(|((label, t), pair)| ComparisonRow {
            label: label.clone(),
            threads: *t,
            baseline: "vanilla".to_owned(),
            baseline_eff: pair[0].result.energy_efficiency(),
            smart_eff: pair[1].result.energy_efficiency(),
            ratio: pair[1].result.efficiency_vs(&pair[0].result),
        })
        .collect();
    print_rows(title, &rows);
    print_suite_summary(&report);
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let set = flag_value(&args, "--set").unwrap_or_else(|| "all".to_owned());
    let threads = parse_threads(&args);
    let platform = Platform::quad_heterogeneous();
    let mut all_rows = Vec::new();

    if set == "imb" || set == "all" {
        let bundles: Vec<(String, Vec<workloads::WorkloadProfile>)> = imb_workloads()
            .into_iter()
            .map(|(n, p)| (n, vec![p]))
            .collect();
        all_rows.extend(run_set(
            "Fig 4(a): interactive micro-benchmarks vs vanilla Linux",
            &platform,
            &bundles,
            &threads,
        ));
    }
    if set == "parsec" || set == "all" {
        all_rows.extend(run_set(
            "Fig 4(b): PARSEC benchmarks and Table 3 mixes vs vanilla Linux",
            &platform,
            &parsec_workloads(),
            &threads,
        ));
    }

    let avg: f64 = all_rows.iter().map(|r| r.ratio).sum::<f64>() / all_rows.len().max(1) as f64;
    println!(
        "\noverall: SmartBalance vs vanilla = {:+.1} % (paper: >50 %)",
        (avg - 1.0) * 100.0
    );
    maybe_dump_json(&args, &all_rows);
}
