//! The retry/quarantine state machine that drives a campaign grid to
//! terminal outcomes, checkpointing as it goes.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use smartbalance::{default_workers, panic_message, parallel_indexed, JobResult};
use telemetry::live::{CampaignProgress, ObsSnapshot, SnapshotCell};
use telemetry::TelemetryHandle;

use crate::flight::{AttemptOutcome, FlightRecord};
use crate::job::CampaignJob;
use crate::journal::{CheckpointJournal, JournalRecord};
use crate::report::{CampaignReport, CompletedCell, PoisonedCell, CAMPAIGN_SCHEMA_VERSION};

/// Fault-tolerance policy for one campaign run.
///
/// The watchdog budgets are *simulation* quantities (epochs, slices) —
/// deterministic functions of the cell itself — rather than wall-clock
/// timeouts, which smartlint `D2` bans because they would make the
/// retry ladder, and therefore the resumed report, machine-dependent.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Extra tries after a first failure before quarantine. The seed
    /// is identical on every try: the ladder exists to shake off
    /// environmental flakiness, and a deterministic failure simply
    /// exhausts it with identical outcomes, which keeps the attempt
    /// count — and the report bytes — reproducible.
    pub max_retries: u32,
    /// Hard epoch budget per cell: the spec's own `max_epochs` is
    /// clamped to this, and a cell that hits the clamp with tasks
    /// still live counts as hung (failure). `None` disables the
    /// watchdog and records incomplete cells as ordinary results.
    pub max_epochs_per_job: Option<u64>,
    /// Slice budget per cell, classified after the run from
    /// `stats.total_slices`; exceeding it counts as a failure.
    pub max_slices_per_job: Option<u64>,
    /// Journal flush cadence in cells: each batch of this many pending
    /// cells is executed in parallel, then checkpointed with one
    /// atomic flush. Smaller = less lost work on a kill; larger =
    /// fewer fsyncs. Clamped to at least 1.
    pub flush_every: usize,
    /// Worker threads per batch; 0 = the suite's default.
    pub workers: usize,
    /// Graceful-shutdown knob: when this path exists, the run stops at
    /// the next batch boundary, flushes the journal and returns a
    /// partial (interrupted) report.
    pub stop_file: Option<PathBuf>,
    /// Executes at most this many cells this run, then reports
    /// interrupted — the deterministic stand-in for "the process died
    /// mid-campaign" in tests and the CI kill-resume drill.
    pub max_cells_this_run: Option<usize>,
    /// Flight-recorder depth: each attempt retains at most this many
    /// recent epoch spans; the final failed attempt's ring lands in the
    /// quarantine record. Purely forensic — the ring caps memory, it
    /// never changes what executes.
    pub flight_recorder_epochs: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            max_retries: 2,
            max_epochs_per_job: None,
            max_slices_per_job: None,
            flush_every: 8,
            workers: 0,
            stop_file: None,
            max_cells_this_run: None,
            flight_recorder_epochs: 32,
        }
    }
}

/// A campaign: a grid of content-addressed cells, a fault-tolerance
/// policy, and the checkpoint journal that makes the whole thing
/// killable.
#[derive(Debug)]
pub struct Campaign {
    jobs: Vec<CampaignJob>,
    config: CampaignConfig,
    journal: CheckpointJournal,
    telemetry: Option<TelemetryHandle>,
    snapshots: Option<Arc<SnapshotCell>>,
}

impl Campaign {
    /// Assembles a campaign over `jobs` with `config`, resuming from
    /// whatever `journal` already holds.
    pub fn new(jobs: Vec<CampaignJob>, config: CampaignConfig, journal: CheckpointJournal) -> Self {
        Campaign {
            jobs,
            config,
            journal,
            telemetry: None,
            snapshots: None,
        }
    }

    /// Attaches a telemetry hub; the runner records the
    /// `sb_campaign_*` counters (completed/retried/quarantined/
    /// resumed) on it from the orchestrating thread, incrementally
    /// after every cell.
    pub fn attach_telemetry(&mut self, hub: TelemetryHandle) {
        self.telemetry = Some(hub);
    }

    /// Attaches a live-snapshot mailbox: the runner publishes an
    /// [`ObsSnapshot`] (progress + rendered Prometheus page) into it at
    /// start-up, after every resolved cell and after every journal
    /// flush. The publish is a single `Arc` swap — the run never blocks
    /// on whoever reads the mailbox.
    pub fn publish_snapshots(&mut self, cell: Arc<SnapshotCell>) {
        self.snapshots = Some(cell);
    }

    /// Read access to the checkpoint journal (tests and reporting).
    pub fn journal(&self) -> &CheckpointJournal {
        &self.journal
    }

    /// Runs every cell not already checkpointed to a terminal outcome,
    /// flushing the journal atomically after each batch, and builds
    /// the report from the journal — so replayed and freshly executed
    /// cells are indistinguishable in the output. Returns `Err` only
    /// on journal I/O failure; cell failures are data, not errors.
    pub fn run(&mut self) -> io::Result<CampaignReport> {
        if let Some(hub) = &self.telemetry {
            hub.borrow_mut().record_campaign_started();
        }
        let ids: Vec<String> = self.jobs.iter().map(CampaignJob::id).collect();
        let pending: Vec<usize> = (0..self.jobs.len())
            .filter(|&i| !self.journal.contains(&ids[i]))
            .collect();
        let resumed_cells = self.jobs.len() - pending.len();
        if resumed_cells > 0 {
            if let Some(hub) = &self.telemetry {
                hub.borrow_mut()
                    .record_campaign_resumed(resumed_cells as u64);
            }
        }

        let mut progress = self.initial_progress(&ids, pending.len(), resumed_cells);
        self.publish_progress(&progress);

        let workers = if self.config.workers == 0 {
            default_workers()
        } else {
            self.config.workers
        };
        let cell_budget = self.config.max_cells_this_run.unwrap_or(usize::MAX);
        let batch_size = self.config.flush_every.max(1);
        let mut executed_cells = 0usize;

        for batch in pending.chunks(batch_size) {
            if executed_cells >= cell_budget || self.stop_requested() {
                break;
            }
            let take = batch.len().min(cell_budget - executed_cells);
            let batch = &batch[..take];
            progress.current_cells = batch.iter().map(|&i| ids[i].clone()).collect();
            self.publish_progress(&progress);
            let jobs = &self.jobs;
            let ids_ref = &ids;
            let config = &self.config;
            let records = parallel_indexed(batch.len(), workers, |k| {
                let grid_index = batch[k];
                execute_cell(&jobs[grid_index], &ids_ref[grid_index], config)
            });
            for record in records {
                if let Some(hub) = &self.telemetry {
                    let mut hub = hub.borrow_mut();
                    match &record {
                        JournalRecord::Completed { attempts, .. } => {
                            hub.record_campaign_completed(u64::from(*attempts));
                        }
                        JournalRecord::Quarantined { attempts, .. } => {
                            hub.record_campaign_quarantined(u64::from(*attempts));
                        }
                    }
                }
                fold_into_progress(&mut progress, &record);
                self.journal.insert(record)?;
                self.publish_progress(&progress);
            }
            executed_cells += batch.len();
            let flushed_bytes = self.journal.flush()?;
            progress.journal_flushes += 1;
            progress.journal_bytes_last = flushed_bytes as u64;
            progress.journal_records = self.journal.len() as u64;
            self.publish_progress(&progress);
        }

        progress.current_cells.clear();
        self.publish_progress(&progress);
        let interrupted = executed_cells < pending.len();
        Ok(self.build_report(&ids, interrupted, resumed_cells, executed_cells))
    }

    /// The progress payload at the start of a run: grid size, resumed
    /// outcomes replayed from the journal, and journal load state.
    fn initial_progress(
        &self,
        ids: &[String],
        pending: usize,
        resumed_cells: usize,
    ) -> CampaignProgress {
        let mut progress = CampaignProgress {
            cells_total: self.jobs.len() as u64,
            cells_pending: pending as u64,
            resumed_cells: resumed_cells as u64,
            journal_records: self.journal.len() as u64,
            journal_skipped_lines: self.journal.skipped_lines() as u64,
            ..CampaignProgress::default()
        };
        for id in ids {
            match self.journal.get(id) {
                Some(JournalRecord::Completed { attempts, .. }) => {
                    progress.cells_completed += 1;
                    progress.retries_total += u64::from(attempts.saturating_sub(1));
                }
                Some(JournalRecord::Quarantined { attempts, .. }) => {
                    progress.cells_quarantined += 1;
                    progress.retries_total += u64::from(attempts.saturating_sub(1));
                }
                None => {}
            }
        }
        progress
    }

    /// Publishes the current progress (plus a freshly rendered
    /// Prometheus page from the attached hub) into the snapshot
    /// mailbox, if one is attached. A no-op otherwise.
    fn publish_progress(&self, progress: &CampaignProgress) {
        let Some(cell) = &self.snapshots else {
            return;
        };
        let mut progress = progress.clone();
        progress.finalize_eta();
        let prometheus = match &self.telemetry {
            Some(hub) => hub.borrow().registry().prometheus_text(),
            None => String::new(),
        };
        cell.publish(ObsSnapshot {
            progress,
            prometheus,
        });
    }

    fn stop_requested(&self) -> bool {
        self.config.stop_file.as_ref().is_some_and(|p| p.exists())
    }

    /// The report over the whole grid; `ids` are the cells' identities
    /// in grid order, as [`Campaign::run`] computed them.
    fn build_report(
        &self,
        ids: &[String],
        interrupted: bool,
        resumed_cells: usize,
        executed_cells: usize,
    ) -> CampaignReport {
        let mut completed = Vec::new();
        let mut poisoned = Vec::new();
        let mut retries_total = 0u64;
        // Walk the grid in index order so the report layout never
        // depends on completion order or journal key order.
        for id in ids {
            match self.journal.get(id) {
                Some(JournalRecord::Completed {
                    id,
                    index,
                    attempts,
                    result,
                }) => {
                    retries_total += u64::from(attempts.saturating_sub(1));
                    completed.push(CompletedCell {
                        id: id.clone(),
                        index: *index,
                        attempts: *attempts,
                        result: (**result).clone(),
                    });
                }
                Some(JournalRecord::Quarantined {
                    id,
                    index,
                    attempts,
                    error,
                    attempts_log,
                    flight,
                }) => {
                    retries_total += u64::from(attempts.saturating_sub(1));
                    poisoned.push(PoisonedCell {
                        id: id.clone(),
                        index: *index,
                        attempts: *attempts,
                        error: error.clone(),
                        attempts_log: attempts_log.clone(),
                        flight: flight.as_deref().cloned(),
                    });
                }
                None => {}
            }
        }
        CampaignReport {
            schema: CAMPAIGN_SCHEMA_VERSION,
            cells: self.jobs.len(),
            interrupted,
            resumed_cells,
            executed_cells,
            retries_total,
            completed,
            poisoned,
        }
    }
}

/// Folds one freshly resolved cell into the live progress payload.
fn fold_into_progress(progress: &mut CampaignProgress, record: &JournalRecord) {
    progress.executed_this_run += 1;
    progress.cells_pending = progress.cells_pending.saturating_sub(1);
    progress.retries_total += u64::from(record.attempts().saturating_sub(1));
    progress.last_cell_id = record.id().to_owned();
    match record {
        JournalRecord::Completed { result, .. } => {
            progress.cells_completed += 1;
            progress.wall_s_sum += result.wall_s;
            progress.wall_cells += 1;
        }
        JournalRecord::Quarantined { .. } => {
            progress.cells_quarantined += 1;
        }
    }
}

/// Drives one cell to a terminal outcome: panic isolation, the
/// deterministic budget watchdog, and the bounded retry ladder. Every
/// attempt runs with a capacity-capped telemetry hub (the flight
/// recorder); attaching one is bit-transparent, so results are
/// byte-identical to an unrecorded run, and on quarantine the final
/// attempt's ring plus the full attempt log land in the record.
fn execute_cell(job: &CampaignJob, id: &str, config: &CampaignConfig) -> JournalRecord {
    let mut suite_job = job.to_suite_job();
    if let Some(cap) = config.max_epochs_per_job {
        suite_job.spec.max_epochs = suite_job.spec.max_epochs.min(cap);
    }
    let max_attempts = config.max_retries.saturating_add(1);
    let mut attempts_log: Vec<AttemptOutcome> = Vec::new();
    let mut last_flight = FlightRecord::default();
    for attempt in 1..=max_attempts {
        let hub = telemetry::shared();
        hub.borrow_mut()
            .set_span_capacity(config.flight_recorder_epochs);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            suite_job.execute_recorded(job.index, &hub)
        }));
        let error = match outcome {
            Ok(result) => match budget_violation(&result, config) {
                None => {
                    return JournalRecord::Completed {
                        id: id.to_owned(),
                        index: job.index,
                        attempts: attempt,
                        result: Box::new(result),
                    }
                }
                Some(error) => error,
            },
            Err(payload) => panic_message(payload.as_ref()),
        };
        last_flight = FlightRecord::from_hub(&hub.borrow());
        attempts_log.push(AttemptOutcome { attempt, error });
    }
    let error = attempts_log
        .last()
        .map(|a| a.error.clone())
        .unwrap_or_default();
    JournalRecord::Quarantined {
        id: id.to_owned(),
        index: job.index,
        attempts: max_attempts,
        error,
        attempts_log: Some(attempts_log),
        flight: Some(Box::new(last_flight)),
    }
}

/// Classifies a completed run against the sim-budget watchdog. Both
/// checks are pure functions of the deterministic simulation, so a
/// budget verdict is identical on every machine and every retry.
fn budget_violation(result: &JobResult, config: &CampaignConfig) -> Option<String> {
    if config.max_epochs_per_job.is_some() && !result.result.completed {
        return Some(format!(
            "epoch budget exhausted: cell stopped at epoch {} with tasks still live",
            result.result.epochs
        ));
    }
    if let Some(max_slices) = config.max_slices_per_job {
        let used = result.result.stats.total_slices;
        if used > max_slices {
            return Some(format!("slice budget exceeded: {used} > {max_slices}"));
        }
    }
    None
}
