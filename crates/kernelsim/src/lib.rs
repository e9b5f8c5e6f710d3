//! # kernelsim — Linux scheduling substrate
//!
//! The modified-kernel substitute of the SmartBalance reproduction: a
//! deterministic discrete-event simulator of the Linux scheduling
//! subsystem with per-core CFS run queues (vruntime, load weights,
//! proportional timeslices), sleep/wake interactivity, context-switch
//! granular counter sampling, pluggable epoch-boundary load balancers
//! (the `rebalance_domains()` hook of paper Section 5.1) and explicit
//! thread migration with a cold-cache cost (`set_cpus_allowed_ptr()`).
//!
//! ## Quick start
//!
//! ```
//! use archsim::{Platform, WorkloadCharacteristics};
//! use kernelsim::{NullBalancer, System, SystemConfig};
//! use workloads::WorkloadProfile;
//!
//! let mut sys = System::new(Platform::quad_heterogeneous(), SystemConfig::default());
//! for _ in 0..4 {
//!     sys.spawn(WorkloadProfile::uniform(
//!         "worker",
//!         WorkloadCharacteristics::balanced(),
//!         50_000_000,
//!     ));
//! }
//! let mut policy = NullBalancer; // plug SmartBalance/GTS/vanilla here
//! sys.run_to_completion(&mut policy, 1_000);
//! let stats = sys.stats();
//! assert_eq!(stats.completed_tasks, 4);
//! println!("efficiency: {:.3e} instr/J", stats.instructions_per_joule());
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

pub mod balancer;
pub mod cfs;
pub mod engine;
pub mod stats;
pub mod system;
pub mod task;
pub mod topology;
pub mod trace;

pub use balancer::{
    Allocation, AppliedAllocation, CoreEpochStats, EpochReport, LoadBalancer, MigrationReject,
    MigrationTotals, NullBalancer, TaskEpochStats,
};
pub use cfs::CfsRunQueue;
pub use engine::{BatchedEngine, EngineKind, ReferenceEngine, SliceEngine};
pub use stats::{CoreStats, SystemStats};
pub use system::{System, SystemConfig};
pub use task::{Task, TaskId, TaskState};
pub use telemetry::TelemetryHandle;
pub use topology::{ClusterId, Topology};
pub use trace::{TraceEvent, TraceLevel, Tracer};
