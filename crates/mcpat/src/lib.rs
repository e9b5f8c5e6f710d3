//! # mcpat — activity-based power and energy model
//!
//! The McPAT substitute of the SmartBalance reproduction: per-core-type
//! power models calibrated so each Table 2 core's peak power is matched
//! exactly, per-core power sensors (optionally noisy, mirroring real
//! boards like the Odroid-XU3 the paper cites), and platform-wide
//! energy accounting for the IPS/Watt evaluation metric.
//!
//! ## Quick start
//!
//! ```
//! use archsim::CoreConfig;
//! use mcpat::{CorePowerModel, PowerState};
//!
//! let small = CorePowerModel::calibrated(&CoreConfig::small());
//! let huge = CorePowerModel::calibrated(&CoreConfig::huge());
//!
//! // The Huge core pays ~90x the power of the Small core at peak —
//! // the asymmetry that makes energy-aware balancing worthwhile.
//! let ratio = huge.active_power_w(1.0) / small.active_power_w(1.0);
//! assert!(ratio > 80.0);
//!
//! // Sleeping cores are power-gated.
//! assert!(huge.power_w(PowerState::Sleeping) < 0.2);
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
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod energy;
pub mod model;
pub mod sensor;
pub mod thermal;

pub use energy::EnergyMeter;
pub use model::{
    CorePowerModel, PowerState, IDLE_DYNAMIC_FLOOR, LEAKAGE_FRACTION, SLEEP_POWER_FRACTION,
};
pub use sensor::PowerSensor;
pub use thermal::{ThermalModel, AMBIENT_C};
