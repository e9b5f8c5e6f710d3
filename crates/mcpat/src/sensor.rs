//! Per-core power sensors (paper Section 6.4: "per-core power sensors
//! ... already in several existing platforms", e.g. the Odroid-XU3).
//!
//! A [`PowerSensor`] reads the modelled power, optionally corrupted by
//! bounded multiplicative noise so experiments can check the balancer's
//! robustness to imperfect sensing. Noise uses an internal
//! xorshift64* generator so the crate stays dependency-free and the
//! sequence is reproducible from the seed.

use serde::{Deserialize, Serialize};

use crate::model::{CorePowerModel, PowerState};

/// A deterministic per-core power sensor with optional multiplicative
/// gaussian-ish noise (sum of 4 uniforms, Irwin–Hall approximation).
///
/// # Examples
///
/// ```
/// use archsim::CoreConfig;
/// use mcpat::{CorePowerModel, PowerSensor, PowerState};
///
/// let model = CorePowerModel::calibrated(&CoreConfig::big());
/// let mut ideal = PowerSensor::ideal(model);
/// let p = ideal.read_w(PowerState::Active { activity: 0.5 });
/// assert!((p - model.active_power_w(0.5)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerSensor {
    model: CorePowerModel,
    /// Relative 1-sigma noise amplitude (0 = ideal sensor).
    noise_sigma: f64,
    rng_state: u64,
}

impl PowerSensor {
    /// A noise-free sensor.
    pub fn ideal(model: CorePowerModel) -> Self {
        PowerSensor {
            model,
            noise_sigma: 0.0,
            rng_state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// A sensor with relative gaussian noise of standard deviation
    /// `sigma` (e.g. `0.02` for a 2 % sensor), seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn noisy(model: CorePowerModel, sigma: f64, seed: u64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be >= 0");
        PowerSensor {
            model,
            noise_sigma: sigma,
            rng_state: seed | 1,
        }
    }

    /// The underlying power model.
    pub fn model(&self) -> &CorePowerModel {
        &self.model
    }

    /// Restarts the noise stream from `seed`, leaving the model and
    /// sigma untouched. The experiment suite calls this to give each
    /// fan-out job an independent, reproducible noise sequence.
    pub fn reseed(&mut self, seed: u64) {
        self.rng_state = seed | 1;
    }

    /// Reads the sensor for a core in `state`; never returns a negative
    /// power.
    pub fn read_w(&mut self, state: PowerState) -> f64 {
        let truth = self.model.power_w(state);
        if self.noise_sigma <= 0.0 {
            return truth;
        }
        let noise = self.noise_sigma * self.standard_normal_ish();
        (truth * (1.0 + noise)).max(0.0)
    }

    /// xorshift64* step returning a uniform in [0, 1).
    #[expect(
        clippy::as_conversions,
        reason = "53-bit value and 2^53 are both exact in f64; the standard bits-to-unit-interval idiom"
    )]
    fn uniform(&mut self) -> f64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 / (1u64 << 53) as f64
    }

    /// Approximate standard normal: sum of 4 uniforms, rescaled
    /// (Irwin–Hall with n = 4 has variance 1/3; scale by √3).
    fn standard_normal_ish(&mut self) -> f64 {
        let s: f64 = (0..4).map(|_| self.uniform()).sum::<f64>() - 2.0;
        s * 3f64.sqrt()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use archsim::CoreConfig;

    #[test]
    fn ideal_sensor_is_exact() {
        let model = CorePowerModel::calibrated(&CoreConfig::medium());
        let mut s = PowerSensor::ideal(model);
        for a in [0.0, 0.3, 1.0] {
            let st = PowerState::Active { activity: a };
            assert_eq!(s.read_w(st), model.power_w(st));
        }
    }

    #[test]
    fn noisy_sensor_is_unbiased_and_bounded() {
        let model = CorePowerModel::calibrated(&CoreConfig::big());
        let mut s = PowerSensor::noisy(model, 0.05, 42);
        let st = PowerState::Active { activity: 0.7 };
        let truth = model.power_w(st);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let r = s.read_w(st);
            assert!(r >= 0.0);
            assert!(
                (r - truth).abs() / truth < 0.5,
                "5-sigma outlier beyond bound"
            );
            sum += r;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - truth).abs() / truth < 0.01,
            "bias {}",
            (mean - truth) / truth
        );
    }

    #[test]
    fn noise_is_reproducible_from_seed() {
        let model = CorePowerModel::calibrated(&CoreConfig::small());
        let mut a = PowerSensor::noisy(model, 0.1, 7);
        let mut b = PowerSensor::noisy(model, 0.1, 7);
        let st = PowerState::Active { activity: 0.4 };
        for _ in 0..100 {
            assert_eq!(a.read_w(st), b.read_w(st));
        }
    }

    #[test]
    fn reseed_restarts_the_stream() {
        let model = CorePowerModel::calibrated(&CoreConfig::small());
        let mut a = PowerSensor::noisy(model, 0.1, 7);
        let st = PowerState::Active { activity: 0.4 };
        let first: Vec<f64> = (0..16).map(|_| a.read_w(st)).collect();
        // Reseeding with the same seed replays the exact sequence.
        a.reseed(7);
        let replay: Vec<f64> = (0..16).map(|_| a.read_w(st)).collect();
        assert_eq!(first, replay);
        // A different seed diverges.
        a.reseed(8);
        let other: Vec<f64> = (0..16).map(|_| a.read_w(st)).collect();
        assert_ne!(first, other);
    }

    #[test]
    #[should_panic(expected = "sigma must be >= 0")]
    fn negative_sigma_rejected() {
        PowerSensor::noisy(CorePowerModel::calibrated(&CoreConfig::small()), -0.1, 1);
    }
}
