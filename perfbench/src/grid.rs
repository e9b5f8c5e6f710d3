//! The `campaign-grid` workload: the Fig. 4 grid through `Campaign::run`
//! with a fresh checkpoint journal per round.
//!
//! Cells execute inside the campaign, out of the benchmark's reach, so the
//! balancer-level numbers come from a *replay*: after every measured
//! round every cell is run once more through `Job::run` (the same
//! `Policy::build` + `System::run_epoch` loop, timed per call) and must
//! reproduce the campaign's result for that cell exactly.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use archsim::Platform;
use campaign::{Campaign, CampaignConfig, CampaignJob, CampaignReport, CheckpointJournal};
use smartbalance::{splitmix64, Policy, RunResult};
use smartbalance_bench::{imb_workloads, parsec_workloads, spec_for, THREAD_COUNTS};
use telemetry::live::SnapshotCell;
use telemetry::TelemetryHandle;

use crate::job::{median_over, Job, Pass, PassStats, Trial};
use crate::timing::{median, stage_work, SpanLog};
use crate::{ratio, Outcome};

/// Rounds (each followed by a replay) a run makes even when the time
/// budget is already spent, so that every timing is a median.
const MIN_ROUNDS: usize = 3;

/// The Fig. 4 platform.
fn grid_platform() -> Platform {
    Platform::quad_heterogeneous()
}

/// The grid, vanilla and SmartBalance side by side for every workload
/// bundle and thread count, in `fig4` order. The benchmark seed feeds
/// every cell's seed (annealer and sensor streams).
fn grid_jobs(seed: u64) -> Vec<CampaignJob> {
    let platform = grid_platform();
    let mut bundles: Vec<(String, Vec<workloads::WorkloadProfile>)> = imb_workloads()
        .into_iter()
        .map(|(n, p)| (n, vec![p]))
        .collect();
    bundles.extend(parsec_workloads());
    let mut jobs = Vec::new();
    for (label, bundle) in &bundles {
        for &threads in &THREAD_COUNTS {
            let spec = spec_for(label, &platform, bundle, threads);
            for policy in [Policy::Vanilla, Policy::Smart] {
                let index = jobs.len();
                let mut job = CampaignJob::new(index, spec.clone(), policy);
                job.seed = splitmix64(seed ^ splitmix64(index as u64));
                jobs.push(job);
            }
        }
    }
    jobs
}

/// One round's measurements; the report itself is kept only for the
/// first round, so memory does not grow with the number of rounds.
struct Round {
    setup_s: f64,
    run_s: f64,
    /// Σ and median of the cells' `JobResult.wall_s`.
    busy_s: f64,
    busy_ms_p50: f64,
    /// Journal flushes, from the live progress snapshot (traced rounds
    /// only).
    flushes: u64,
    hub: Option<TelemetryHandle>,
}

pub struct GridWorkload {
    seed: u64,
    config: CampaignConfig,
    dir: PathBuf,
}

impl GridWorkload {
    pub fn new(seed: u64, workers: usize, dir: PathBuf) -> Self {
        GridWorkload {
            seed,
            config: CampaignConfig {
                workers,
                ..CampaignConfig::default()
            },
            dir,
        }
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("campaign.jsonl")
    }

    /// One campaign over the whole grid from an empty journal. Set-up is
    /// building the grid, loading the journal and `Campaign::new`.
    /// Checks the report against `canonical` (the first round's
    /// canonical bytes), or sets it.
    fn round(
        &self,
        k: usize,
        traced: bool,
        log: &mut SpanLog,
        canonical: &mut Option<String>,
        failures: &mut Vec<String>,
    ) -> io::Result<(Round, CampaignReport, Campaign)> {
        remove_if_present(&self.journal_path())?;
        let t0 = Instant::now();
        let jobs = grid_jobs(self.seed);
        let journal = CheckpointJournal::load(self.journal_path())?;
        let mut campaign = Campaign::new(jobs, self.config.clone(), journal);
        let snapshots = Arc::new(SnapshotCell::fresh());
        let hub = traced.then(|| {
            let hub = telemetry::shared();
            campaign.attach_telemetry(hub.clone());
            campaign.publish_snapshots(Arc::clone(&snapshots));
            hub
        });
        let r0 = Instant::now();
        let report = campaign.run()?;
        let r1 = Instant::now();
        log.push("campaign.run", r0, r1, None);

        if !report.is_complete() || report.interrupted {
            failures.push(format!("round {k} did not finish the grid"));
        }
        let retried = report.completed.iter().filter(|c| c.attempts > 1).count();
        if !report.poisoned.is_empty() || retried > 0 {
            failures.push(format!(
                "round {k}: {} quarantined, {retried} retried cells",
                report.poisoned.len()
            ));
        }
        let bytes = serde_json::to_string(&report.canonicalized())
            .map_err(|e| io::Error::other(e.to_string()))?;
        match canonical {
            Some(first) if *first != bytes => {
                failures.push(format!("round {k} canonical report differs from round 0"));
            }
            Some(_) => {}
            None => *canonical = Some(bytes),
        }
        let busy_ms: Vec<f64> = report
            .completed
            .iter()
            .map(|c| c.result.wall_s * 1e3)
            .collect();
        let round = Round {
            setup_s: r0.duration_since(t0).as_secs_f64(),
            run_s: r1.duration_since(r0).as_secs_f64(),
            busy_s: busy_ms.iter().sum::<f64>() / 1e3,
            busy_ms_p50: median(&busy_ms),
            flushes: snapshots.latest().progress.journal_flushes,
            hub,
        };
        Ok((round, report, campaign))
    }

    /// Re-runs every cell of `report` outside the campaign and checks
    /// that each reproduces the campaign's result bit for bit.
    fn replay(
        &self,
        report: &CampaignReport,
        traced: bool,
        log: &mut SpanLog,
        failures: &mut Vec<String>,
    ) -> Vec<Trial> {
        let jobs = grid_jobs(self.seed);
        let mut trials = Vec::with_capacity(jobs.len());
        for (job, cell) in jobs.iter().zip(&report.completed) {
            let suite_job = job.to_suite_job();
            let spec = &suite_job.spec;
            let mut sys_config = spec.sys_config;
            if let Some(engine) = suite_job.engine {
                sys_config.engine = engine;
            }
            let c0 = Instant::now();
            let cell_job = Job {
                platform: &spec.platform,
                sys_config,
                tasks: spec.profiles.iter().map(|p| (p, None)).collect(),
                max_epochs: spec.max_epochs,
            };
            let cell_span = log.push("cell", c0, c0, None);
            let trial = cell_job.run(|| suite_job.build_balancer(), traced, log, cell_span);
            log.close(cell_span, Instant::now());
            let replayed = RunResult {
                experiment: spec.name.clone(),
                policy: trial.policy.clone(),
                epochs: trial.epochs,
                completed: trial.stats.live_tasks == 0,
                stats: trial.stats.clone(),
            };
            if cell.index != job.index || replayed != cell.result.result {
                failures.push(format!(
                    "cell {} ({}) replay differs from the campaign result",
                    job.index, spec.name
                ));
            }
            trials.push(trial);
        }
        trials
    }

    /// Alternates a round and a replay of the grid until `budget` is
    /// spent, then times the final journal flush and makes one round
    /// and one replay in the other tracing mode.
    ///
    /// As on the epoch-loop workloads, every timing is a median over the
    /// run's repetitions of the same work: over rounds for the campaign,
    /// and over replays (each a [`Pass`] over the grid) for the balancer
    /// and epoch timings. Interleaving spreads the replays over the whole
    /// run. Set-up is the median over rounds.
    pub fn run(&self, budget: Duration, traced: bool, log: &mut SpanLog) -> io::Result<Outcome> {
        fs::create_dir_all(&self.dir)?;
        let start = Instant::now();
        let mut failures = Vec::new();
        let mut canonical = None;
        let mut rounds = Vec::new();
        let (mut report, mut campaign) = (None, None);
        let mut replays: Vec<PassStats> = Vec::new();
        let mut smart_replays: Vec<PassStats> = Vec::new();
        let mut first_replay = None;
        while rounds.len() < MIN_ROUNDS || start.elapsed() < budget {
            let (round, rep, camp) =
                self.round(rounds.len(), traced, log, &mut canonical, &mut failures)?;
            rounds.push(round);
            campaign = Some(camp);
            let report = report.get_or_insert(rep);
            let replay = self.replay(report, traced, log, &mut failures);
            let (mut all, mut smart) = (Pass::default(), Pass::default());
            for t in &replay {
                all.add(t);
                if t.policy == "smartbalance" {
                    smart.add(t);
                }
            }
            replays.push(all.stats());
            smart_replays.push(smart.stats());
            first_replay.get_or_insert(replay);
        }
        let report = report.expect("at least one round ran");
        let campaign = campaign.expect("at least one round ran");
        let trials = first_replay.expect("at least one replay ran");
        let f0 = Instant::now();
        let flushed = campaign.journal().flush()?;
        let f1 = Instant::now();
        log.push("journal.flush", f0, f1, None);
        let reloaded = CheckpointJournal::load(self.journal_path())?;
        if reloaded.len() != campaign.journal().len() || reloaded.skipped_lines() != 0 {
            failures.push("journal did not reload to the flushed records".to_owned());
        }
        let mut quiet = SpanLog::new(start, false);
        let (other, _, _) = self.round(
            rounds.len(),
            !traced,
            &mut quiet,
            &mut canonical,
            &mut failures,
        )?;
        fs::remove_dir_all(&self.dir)?;
        let other_replay = self.replay(&report, !traced, &mut quiet, &mut failures);
        let traced_trials = if traced { &trials } else { &other_replay };
        let smart_hubs: Vec<&TelemetryHandle> = traced_trials
            .iter()
            .filter(|t| t.policy == "smartbalance")
            .filter_map(|t| t.hub.as_ref())
            .collect();
        for stage in ["sense", "anneal"] {
            if smart_hubs.iter().all(|h| stage_work(h, stage) == 0) {
                failures.push(format!("traced replay recorded no `{stage}` stage work"));
            }
        }
        let cells = report.cells as u64;
        let traced_round = if traced { &rounds[0] } else { &other };
        let campaign_hub = traced_round
            .hub
            .as_ref()
            .expect("one round of every run is traced");
        let counted = campaign_hub
            .borrow()
            .registry()
            .counter("sb_campaign_completed_total");
        if counted != cells {
            failures.push(format!(
                "traced round's telemetry counted {counted} of {cells} cells"
            ));
        }

        let mut out = Outcome::new(cells * rounds.len() as u64);
        for f in failures {
            out.fail(f);
        }
        let smart: Vec<&Trial> = trials
            .iter()
            .filter(|t| t.policy == "smartbalance")
            .collect();
        let smart_instr: u64 = smart.iter().map(|t| t.stats.total_instructions).sum();
        let smart_energy: f64 = smart.iter().map(|t| t.stats.total_energy_j).sum();
        let gains: Vec<f64> = report
            .completed
            .chunks(2)
            .map(|pair| pair[1].result.result.efficiency_vs(&pair[0].result.result) - 1.0)
            .collect();
        let total_run_s: f64 = rounds.iter().map(|r| r.run_s).sum();
        let cell_epochs: u64 = report
            .completed
            .iter()
            .map(|c| c.result.result.epochs)
            .sum();
        let busy_s: Vec<f64> = rounds.iter().map(|r| r.busy_s).collect();
        let workers = self.config.workers as f64;
        let sum = |f: fn(&Trial) -> u64| trials.iter().map(f).sum::<u64>();
        let (memo_hits, memo_misses) = (sum(|t| t.memo_hits), sum(|t| t.memo_misses));
        let (traced_s, untraced_s) = if traced {
            (rounds[0].run_s, other.run_s)
        } else {
            (other.run_s, rounds[0].run_s)
        };

        let m = &mut out.metrics;
        let round_stat =
            |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        m.set(
            "sim_epochs_per_s",
            round_stat(&|r| cell_epochs as f64 / r.run_s),
        );
        m.set(
            "rebalance_us_p50",
            median_over(&smart_replays, |p| p.rebalance_us_p50),
        );
        m.set(
            "rebalance_us_p95",
            median_over(&smart_replays, |p| p.rebalance_us_p95),
        );
        m.set("cells_per_s", round_stat(&|r| cells as f64 / r.run_s));
        m.set("ips_per_w", smart_instr as f64 / smart_energy);
        m.set(
            "gain_vs_vanilla_pct",
            gains.iter().sum::<f64>() / gains.len() as f64 * 100.0,
        );
        m.set("setup_s", round_stat(&|r| r.setup_s));

        m.set(
            "kernelsim.epoch_self_us_p50",
            median_over(&replays, |p| p.self_us_p50),
        );
        m.set(
            "kernelsim.self_share",
            median_over(&replays, |p| p.self_share),
        );
        m.set(
            "kernelsim.slices_per_epoch",
            ratio(sum(|t| t.stats.total_slices), sum(|t| t.epochs)),
        );
        m.set(
            "kernelsim.migrations_applied",
            sum(|t| t.stats.migrations) as f64,
        );
        m.set(
            "kernelsim.cross_cluster_migrations",
            sum(|t| t.stats.cross_cluster_migrations) as f64,
        );
        m.set(
            "archsim.memo_hit_ratio",
            ratio(memo_hits, memo_hits + memo_misses),
        );
        m.set(
            "mcpat.energy_j",
            trials.iter().map(|t| t.stats.total_energy_j).sum(),
        );
        m.set(
            "smartbalance.build_ms",
            median(&smart.iter().map(|t| t.build_s * 1e3).collect::<Vec<_>>()),
        );
        m.set(
            "smartbalance.build_share",
            trials.iter().map(|t| t.build_s).sum::<f64>() / median(&busy_s),
        );
        m.set(
            "smartbalance.rebalance_share",
            median_over(&replays, |p| p.rebalance_share),
        );
        let smart_epochs: u64 = traced_trials
            .iter()
            .filter(|t| t.policy == "smartbalance")
            .map(|t| t.epochs)
            .sum();
        crate::balancer_counters(m, &smart_hubs, smart_epochs, &grid_platform());
        m.set(
            "telemetry.overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
        );
        m.set(
            "telemetry.dropped_spans",
            traced_trials
                .iter()
                .filter_map(|t| t.hub.as_ref())
                .map(|h| h.borrow().dropped_spans())
                .sum::<u64>() as f64,
        );
        m.set("campaign.cell_busy_ms_p50", round_stat(&|r| r.busy_ms_p50));
        let busy_total: f64 = busy_s.iter().sum();
        m.set(
            "campaign.pool_utilization",
            busy_total / (total_run_s * workers),
        );
        m.set(
            "campaign.idle_s",
            (total_run_s * workers - busy_total) / rounds.len() as f64,
        );
        m.set("campaign.journal_flushes", traced_round.flushes as f64);
        m.set("campaign.journal_bytes", flushed as f64);
        m.set(
            "campaign.journal_flush_ms",
            f1.duration_since(f0).as_secs_f64() * 1e3,
        );
        m.set("campaign.retries", report.retries_total as f64);
        m.set("campaign.quarantined", report.poisoned.len() as f64);

        out.info.push(format!(
            "rounds={0} cells_per_round={cells} replays={0} medians_over_rounds_and_replays: \
             rebalance_samples_per_replay={1} beyond_p95={2}",
            rounds.len(),
            smart_replays[0].rebalance_samples,
            smart_replays[0].rebalance_samples / 20,
        ));
        Ok(out)
    }
}

fn remove_if_present(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}
