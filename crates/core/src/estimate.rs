//! The **estimate** phase glue: combine per-thread measurements on the
//! current core (sense) with cross-core-type predictions (predict) into
//! the full `S(k)` / `P(k)` characterization matrices the optimizer
//! consumes (paper Section 4.2, Fig. 2 steps 2–3).

#![cfg_attr(not(test), deny(clippy::as_conversions))]

use archsim::{CoreId, CoreTypeId, Platform};
use mcpat::CorePowerModel;

use crate::matrices::CharacterizationMatrices;
use crate::predict::PredictorSet;
use crate::sense::ThreadSense;

/// One thread's characterization row in compact per-core-**type** form:
/// `(ips, power, measured)` per type rather than per core. Both
/// measurement and prediction depend only on the destination core's
/// type (same type ⇒ same micro-architecture and operating point), so
/// this `m × q` representation carries exactly the information of the
/// dense `m × n` matrices at a fraction of the memory — the form the
/// sharded balancer uses to stay sublinear on 256–4096-core platforms.
/// [`build_matrices`] expands the same rows densely, so flat and
/// sharded paths share one source of numeric truth.
#[derive(Debug, Clone)]
pub struct TypeRates {
    /// `(ips, power_w, measured)` per core type, indexed by
    /// [`CoreTypeId`].
    cols: Vec<(f64, f64, bool)>,
}

impl TypeRates {
    /// Builds the per-type row for one sensed thread from its
    /// [`ipc_rows`] entry: the current core's type carries the
    /// *measured* values when the sample is fresh and sane, every other
    /// type the Θ/α predictions of Eq. 8–9 (with the same non-finite
    /// fallbacks as [`build_matrices`] has always applied).
    pub fn build(
        platform: &Platform,
        sense: &ThreadSense,
        ipc_row: &[f64],
        predictors: &PredictorSet,
    ) -> Self {
        let src_type = platform.core_type(sense.core);
        // Non-finite or non-positive measurements (corrupt sensors that
        // slipped past the sensing stage) fall back to prediction.
        let has_measurement = sense.fresh
            && sense.measured_ips.is_finite()
            && sense.measured_ips > 0.0
            && sense.measured_power_w.is_finite()
            && sense.measured_power_w > 0.0;
        let cols = platform
            .types()
            .map(|(dst_type, cfg)| {
                if has_measurement && dst_type == src_type {
                    (sense.measured_ips, sense.measured_power_w.max(1e-6), true)
                } else {
                    let ipc = ipc_row[dst_type.0];
                    let mut ips = ipc * cfg.freq_hz;
                    if !ips.is_finite() {
                        // A corrupt signature can drive the regression
                        // to NaN/Inf; a zero-throughput entry merely
                        // makes the core look unattractive instead of
                        // poisoning the objective arithmetic.
                        ips = 0.0;
                    }
                    let mut p = predictors.predict_power_w(ipc, dst_type);
                    if !p.is_finite() {
                        p = 0.0;
                    }
                    (ips, p.max(1e-6), false)
                }
            })
            .collect();
        TypeRates { cols }
    }

    /// Throughput of the thread on a core of type `t`, instr/s.
    pub fn ips(&self, t: CoreTypeId) -> f64 {
        self.cols[t.0].0
    }

    /// Power of the thread on a core of type `t`, watts.
    pub fn power_w(&self, t: CoreTypeId) -> f64 {
        self.cols[t.0].1
    }
}

/// Each sensed thread's predicted IPC on every core type, indexed by
/// `CoreTypeId`: one shared signature inversion per thread
/// ([`PredictorSet::predict_ipc_by_type`]). These rows are the only IPC
/// predictions a SmartBalance pass makes — the quarantine audit reads
/// each row's source-type entry, [`TypeRates::build`] the others.
pub fn ipc_rows(
    platform: &Platform,
    senses: &[ThreadSense],
    predictors: &PredictorSet,
) -> Vec<Vec<f64>> {
    senses
        .iter()
        .map(|s| predictors.predict_ipc_by_type(&s.features, platform.core_type(s.core)))
        .collect()
}

/// Builds `S(k)` and `P(k)` for the given sensed threads and their
/// [`ipc_rows`].
///
/// For every thread, columns whose core type equals the thread's
/// current core type carry the *measured* values (same type ⇒ same
/// micro-architecture and operating point); every other column is
/// filled with the Θ/α predictions of Eq. 8–9. Threads whose sample is
/// stale or a prior fall back to prediction everywhere.
///
/// # Panics
///
/// Panics if `ipc_rows` does not hold one row per sensed thread.
///
/// # Examples
///
/// ```
/// use archsim::Platform;
/// use smartbalance::estimate::build_matrices;
/// use smartbalance::predict::PredictorSet;
///
/// let platform = Platform::quad_heterogeneous();
/// let predictors = PredictorSet::train(&platform, 100, 1);
/// let m = build_matrices(&platform, &[], &[], &predictors);
/// assert_eq!(m.num_threads(), 0);
/// assert_eq!(m.num_cores(), 4);
/// ```
pub fn build_matrices(
    platform: &Platform,
    senses: &[ThreadSense],
    ipc_rows: &[Vec<f64>],
    predictors: &PredictorSet,
) -> CharacterizationMatrices {
    assert_eq!(ipc_rows.len(), senses.len(), "one IPC row per thread");
    let cores: Vec<CoreId> = platform.cores().collect();
    let sleep_power: Vec<f64> = cores
        .iter()
        .map(|&c| CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
        .collect();
    let rates: Vec<TypeRates> = senses
        .iter()
        .zip(ipc_rows)
        .map(|(s, row)| TypeRates::build(platform, s, row, predictors))
        .collect();
    let rows: Vec<(usize, u64)> = senses.iter().map(|s| s.allowed).enumerate().collect();
    rate_matrices(platform, &cores, &sleep_power, &rows, senses, &rates)
}

/// Expands per-type rows densely: `S(k)`/`P(k)` over the cores
/// `columns`, with one row per `(sense index, affinity mask)` in `rows`
/// read from `rates`. `sleep_power_w` is indexed by global core id.
pub(crate) fn rate_matrices(
    platform: &Platform,
    columns: &[CoreId],
    sleep_power_w: &[f64],
    rows: &[(usize, u64)],
    senses: &[ThreadSense],
    rates: &[TypeRates],
) -> CharacterizationMatrices {
    let core_types: Vec<CoreTypeId> = columns.iter().map(|&c| platform.core_type(c)).collect();
    let sleep = columns.iter().map(|&c| sleep_power_w[c.0]).collect();
    let tasks = rows.iter().map(|&(i, _)| senses[i].task).collect();
    let mut m = CharacterizationMatrices::new(tasks, core_types.clone(), sleep);
    for (r, &(i, mask)) in rows.iter().enumerate() {
        for (j, &t) in core_types.iter().enumerate() {
            let (ips, power_w, measured) = rates[i].cols[t.0];
            m.set(r, j, ips, power_w, measured);
        }
        m.set_utilization(r, senses[i].utilization);
        m.set_allowed(r, mask);
    }
    m
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::sense::{features_from_counters, ThreadSense};
    use archsim::{run_slice, CoreId, WorkloadCharacteristics};
    use kernelsim::TaskId;

    /// [`build_matrices`] over freshly predicted rows.
    fn matrices(
        platform: &Platform,
        senses: &[ThreadSense],
        predictors: &PredictorSet,
    ) -> CharacterizationMatrices {
        build_matrices(
            platform,
            senses,
            &ipc_rows(platform, senses, predictors),
            predictors,
        )
    }

    fn sense_for(
        platform: &Platform,
        core: CoreId,
        w: &WorkloadCharacteristics,
        fresh: bool,
    ) -> ThreadSense {
        let cfg = platform.core_config(core);
        let slice = run_slice(w, cfg, 10_000_000);
        ThreadSense {
            task: TaskId(0),
            core,
            features: features_from_counters(&slice.counters, cfg.freq_hz),
            measured_ips: slice.ips(),
            measured_power_w: 1.0,
            utilization: 0.9,
            weight: 1024,
            kernel_thread: false,
            allowed: u64::MAX,
            fresh,
        }
    }

    #[test]
    fn measured_column_used_for_own_type() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 3);
        let w = WorkloadCharacteristics::balanced();
        let s = sense_for(&platform, CoreId(1), &w, true);
        let m = matrices(&platform, &[s], &predictors);
        assert!(m.is_measured(0, 1), "own core column is measured");
        assert!(!m.is_measured(0, 0));
        assert!(!m.is_measured(0, 3));
        assert_eq!(m.ips(0, 1), s.measured_ips);
        assert_eq!(m.power(0, 1), 1.0);
        assert!((m.utilization(0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn stale_sense_predicts_everywhere() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 3);
        let w = WorkloadCharacteristics::balanced();
        let s = sense_for(&platform, CoreId(1), &w, false);
        let m = matrices(&platform, &[s], &predictors);
        for j in 0..4 {
            assert!(!m.is_measured(0, j));
            assert!(m.ips(0, j) > 0.0);
            assert!(m.power(0, j) > 0.0);
        }
    }

    #[test]
    fn non_finite_measurements_fall_back_to_prediction() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 3);
        let w = WorkloadCharacteristics::balanced();
        let mut s = sense_for(&platform, CoreId(1), &w, true);
        s.measured_ips = f64::NAN;
        let m = matrices(&platform, &[s], &predictors);
        assert!(!m.is_measured(0, 1), "NaN measurement is not trusted");
        for j in 0..4 {
            assert!(m.ips(0, j).is_finite());
            assert!(m.power(0, j).is_finite() && m.power(0, j) > 0.0);
        }
        // Zero measured power is equally distrusted.
        s.measured_ips = 1e9;
        s.measured_power_w = 0.0;
        let m2 = matrices(&platform, &[s], &predictors);
        assert!(!m2.is_measured(0, 1));
    }

    #[test]
    fn corrupt_features_never_poison_the_matrices() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 3);
        let w = WorkloadCharacteristics::balanced();
        let mut s = sense_for(&platform, CoreId(1), &w, false);
        // An adversarial signature that slipped past validation.
        s.features = [f64::INFINITY; crate::sense::NUM_FEATURES];
        let m = matrices(&platform, &[s], &predictors);
        for j in 0..4 {
            assert!(m.ips(0, j).is_finite(), "col {j}");
            assert!(m.power(0, j).is_finite() && m.power(0, j) > 0.0, "col {j}");
        }
    }

    #[test]
    fn predictions_are_plausible_across_types() {
        // A compute-bound thread sensed on the Medium core should be
        // predicted much faster on Huge and slower on Small.
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 400, 3);
        let w = WorkloadCharacteristics::compute_bound();
        let s = sense_for(&platform, CoreId(2), &w, true);
        let m = matrices(&platform, &[s], &predictors);
        assert!(
            m.ips(0, 0) > 2.0 * m.ips(0, 2),
            "Huge >> Medium for compute"
        );
        assert!(m.ips(0, 3) < m.ips(0, 2), "Small < Medium");
        assert!(m.power(0, 0) > m.power(0, 3) * 10.0, "power gap is extreme");
    }

    #[test]
    fn same_type_columns_share_measurement() {
        // On big.LITTLE, both little cores must get the measured value.
        let platform = Platform::octa_big_little();
        let predictors = PredictorSet::train(&platform, 200, 4);
        let w = WorkloadCharacteristics::balanced();
        let s = sense_for(&platform, CoreId(5), &w, true); // a little core
        let m = matrices(&platform, &[s], &predictors);
        for j in 4..8 {
            assert!(m.is_measured(0, j), "core {j} is same type as source");
            assert_eq!(m.ips(0, j), s.measured_ips);
        }
        for j in 0..4 {
            assert!(!m.is_measured(0, j));
        }
    }
}
