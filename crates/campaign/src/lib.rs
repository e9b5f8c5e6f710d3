//! # campaign — crash-safe resumable experiment campaigns
//!
//! A fault-tolerant orchestration layer above
//! [`smartbalance::ExperimentSuite`] for production-scale evaluation
//! sweeps: millions of (platform × workload × fault × policy) cells
//! where a single panicking job, a hung cell or a SIGKILL must never
//! cost the completed work.
//!
//! The layer is built from three pieces:
//!
//! - **Content-addressed jobs** ([`CampaignJob`]): every cell's
//!   identity is a stable 64-bit FNV-1a hash over the canonical JSON of
//!   its spec, policy, engine/shard overrides and seed — the grid's
//!   *meaning*, not its position — rendered as 16 hex digits.
//! - **An atomic checkpoint journal** ([`CheckpointJournal`]): one JSON
//!   line per terminal cell outcome, flushed by writing the whole
//!   journal to a `.tmp` sibling, syncing, and `rename`-ing over the
//!   live file. A kill at any instant leaves either the old or the new
//!   journal on disk, never a torn one; a partially appended tail from
//!   a foreign writer is skipped on load. smartlint rule `C1` bans any
//!   other file-writing surface in this crate.
//! - **A retry/quarantine runner** ([`Campaign`]): each cell executes
//!   under `catch_unwind` with a *deterministic* sim-budget watchdog
//!   (max epochs / max slices per job — wall-clock timeouts are banned
//!   by smartlint `D2` because they would make resume results
//!   machine-dependent). A failing cell is retried with the same seed
//!   up to `max_retries` more times, then quarantined into the
//!   `poisoned` section of the [`CampaignReport`] while the rest of
//!   the campaign keeps going. A stop-file requests graceful shutdown:
//!   the journal is flushed and a partial report emitted.
//!
//! Because every job is a pure function of its spec and seed
//! (`tests/suite.rs` pins this down) and `f64` survives the JSON
//! round-trip exactly, a killed-and-resumed campaign produces a report
//! **byte-identical** (after [`CampaignReport::canonicalized`]) to an
//! uninterrupted run — `tests/campaign.rs` and the CI kill-resume step
//! enforce exactly that.
//!
//! ```no_run
//! use archsim::Platform;
//! use campaign::{Campaign, CampaignConfig, CampaignJob, CheckpointJournal};
//! use smartbalance::{ExperimentSpec, Policy};
//! use workloads::parsec;
//!
//! let spec = ExperimentSpec::new(
//!     "demo",
//!     Platform::quad_heterogeneous(),
//!     ExperimentSpec::parallelize(&parsec::blackscholes().scaled(0.01), 2),
//! )
//! .with_max_epochs(200);
//!
//! let jobs: Vec<CampaignJob> = [Policy::Vanilla, Policy::Smart]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, &p)| CampaignJob::new(i, spec.clone(), p))
//!     .collect();
//!
//! // Re-running after a kill replays the journal and skips done cells.
//! let journal = CheckpointJournal::load("campaign.jsonl").expect("journal readable");
//! let mut campaign = Campaign::new(jobs, CampaignConfig::default(), journal);
//! let report = campaign.run().expect("journal flushes");
//! assert!(report.is_complete());
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

pub mod flight;
pub mod job;
pub mod journal;
pub mod report;
pub mod runner;

pub use flight::{AttemptOutcome, FlightRecord};
pub use job::{job_id, CampaignJob};
pub use journal::{CheckpointJournal, JournalRecord};
pub use report::{CampaignReport, CompletedCell, PoisonedCell, CAMPAIGN_SCHEMA_VERSION};
pub use runner::{Campaign, CampaignConfig};
