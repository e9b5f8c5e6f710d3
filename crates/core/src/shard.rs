//! Hierarchical (sharded) balancing machinery: the configuration knob
//! plus the incremental cross-cluster exchange state used by
//! [`crate::balance::ShardedBalancer`].
//!
//! The sharded balancer splits Algorithm 1 across the platform's
//! cluster topology: one annealer per cluster over that cluster's
//! threads and cores (each an `m_c × n_c` problem instead of the flat
//! `m × n`), followed by a global *exchange* stage that moves a few
//! candidate threads between clusters. The exchange never rebuilds the
//! dense matrices — it works on the compact per-type rows of
//! [`crate::estimate::TypeRates`] and evaluates every candidate move as
//! an O(1) two-core patch through the same incremental-objective kernel
//! the flat [`crate::objective::IncrementalObjective`] wraps, so the two
//! paths share one source of numeric truth.

use archsim::CoreTypeId;
use serde::{Deserialize, Serialize};

use crate::estimate::TypeRates;
use crate::objective::{Goal, Lifted, ObjectiveKernel};

/// Configuration of the sharded balancer: worker pool for the
/// per-cluster anneal fan-out and the global-exchange budget.
///
/// Setting [`crate::SmartBalanceConfig::shard`] to `Some(..)` is what
/// selects the sharded balancer; `None` keeps the flat annealer
/// bit-identical to every previous release.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardConfig {
    /// Worker threads for the per-cluster anneal fan-out; `0` sizes
    /// the pool to the machine's available parallelism. Results never
    /// depend on it (per-cluster splitmix64 seeds, index-ordered
    /// collection — the `ExperimentSuite` discipline).
    pub workers: usize,
    /// Candidate threads *per cluster* the global exchange stage
    /// considers per round (the highest-gain moves first).
    pub exchange_top_k: usize,
    /// Maximum exchange rounds per epoch; the stage stops early the
    /// first round that commits no move. Each round scores every
    /// movable thread against every other cluster's least-loaded core,
    /// so per-epoch scoring costs up to `rounds × m × (clusters − 1)`
    /// O(1) evaluations, plus `(clusters − 1)` more for each of the at
    /// most `top_k × clusters` candidates rescored per round.
    pub exchange_rounds: usize,
    /// Minimum objective gain (in goal units, e.g. GIPS/W) a
    /// cross-cluster move must deliver to commit.
    pub min_gain: f64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 0,
            exchange_top_k: 4,
            exchange_rounds: 8,
            min_gain: 1.0e-9,
        }
    }
}

/// Whether an affinity mask allows core `j` — the same semantics as
/// [`crate::matrices::CharacterizationMatrices::is_allowed`] and the
/// kernel's `Task::allows_core` (cores beyond bit 63 are only
/// reachable through the full mask).
pub(crate) fn mask_allows(mask: u64, j: usize) -> bool {
    j < 64 && mask & (1 << j) != 0 || j >= 64 && mask == u64::MAX
}

/// Incrementally maintained *global* objective state for the exchange
/// stage over all `n` cores: the [`ObjectiveKernel`] fed by compact
/// per-type thread rows and the cores' types instead of dense matrices.
#[derive(Debug, Clone)]
pub(crate) struct ExchangeState<'a> {
    rates: &'a [TypeRates],
    util: &'a [f64],
    types: &'a [CoreTypeId],
    kernel: ObjectiveKernel,
}

impl<'a> ExchangeState<'a> {
    /// Builds the state for `alloc` (`alloc[i]` = global core index of
    /// thread `i`). `util` must already carry the matrices' `(0, 1]`
    /// clamp; `weights` holds one `ω` per core.
    ///
    /// # Panics
    ///
    /// Panics if the per-thread slices disagree in length or any
    /// allocation entry is out of core range.
    pub(crate) fn new(
        goal: Goal,
        rates: &'a [TypeRates],
        util: &'a [f64],
        types: &'a [CoreTypeId],
        sleep_w: &[f64],
        weights: &[f64],
        alloc: &[usize],
    ) -> Self {
        assert_eq!(util.len(), rates.len(), "one utilization per thread");
        assert_eq!(alloc.len(), rates.len(), "one core per thread");
        assert_eq!(sleep_w.len(), types.len(), "one sleep power per core");
        let kernel = ObjectiveKernel::new(
            goal,
            weights,
            sleep_w,
            alloc,
            |i| util[i],
            |i, j| (rates[i].ips(types[j]), rates[i].power_w(types[j])),
        );
        ExchangeState {
            rates,
            util,
            types,
            kernel,
        }
    }

    /// Thread `i`'s `(ips, power)` on core `j`.
    fn rate(&self, i: usize, j: usize) -> (f64, f64) {
        let t = self.types[j];
        (self.rates[i].ips(t), self.rates[i].power_w(t))
    }

    /// Current global objective value.
    pub(crate) fn value(&self) -> f64 {
        self.kernel.value()
    }

    /// The core thread `i` currently sits on.
    pub(crate) fn core_of(&self, i: usize) -> usize {
        self.kernel.alloc()[i]
    }

    /// Total demand currently placed on core `j`.
    pub(crate) fn load_of(&self, j: usize) -> f64 {
        self.kernel.load_of(j)
    }

    /// Thread `i` lifted off its current core, to score several
    /// destinations with [`Self::delta_onto`].
    pub(crate) fn lift(&self, i: usize) -> Lifted {
        self.kernel
            .lift(i, self.util[i], self.rate(i, self.core_of(i)))
    }

    /// The objective delta if the lifted thread moved to core `to` (no
    /// state change); 0 for a self-move.
    pub(crate) fn delta_onto(&self, lifted: &Lifted, to: usize) -> f64 {
        self.kernel
            .delta_onto(lifted, to, self.rate(lifted.thread, to))
    }

    /// Commits the move of thread `i` to core `to`, returning the
    /// realized delta.
    pub(crate) fn commit_move(&mut self, i: usize, to: usize) -> f64 {
        let from_rate = self.rate(i, self.core_of(i));
        let to_rate = self.rate(i, to);
        self.kernel.commit(i, to, self.util[i], from_rate, to_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::CharacterizationMatrices;
    use crate::objective::{IncrementalObjective, Objective};
    use crate::predict::PredictorSet;
    use crate::sense::{features_from_counters, ThreadSense};
    use archsim::{run_slice, CoreId, Platform, WorkloadCharacteristics};
    use kernelsim::TaskId;
    use mcpat::CorePowerModel;

    fn sense_for(platform: &Platform, core: CoreId, w: &WorkloadCharacteristics) -> ThreadSense {
        let cfg = platform.core_config(core);
        let slice = run_slice(w, cfg, 10_000_000);
        ThreadSense {
            task: TaskId(core.0),
            core,
            features: features_from_counters(&slice.counters, cfg.freq_hz),
            measured_ips: slice.ips(),
            measured_power_w: 1.0,
            utilization: 0.8,
            weight: 1024,
            kernel_thread: false,
            allowed: u64::MAX,
            fresh: true,
        }
    }

    /// One thread per core of the quad platform, built both ways: the
    /// dense matrices and the compact exchange inputs.
    struct Fixture {
        matrices: CharacterizationMatrices,
        rates: Vec<TypeRates>,
        util: Vec<f64>,
        types: Vec<CoreTypeId>,
        sleep: Vec<f64>,
    }

    fn fixture(workload: impl Fn(CoreId) -> WorkloadCharacteristics) -> Fixture {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 200, 9);
        let senses: Vec<ThreadSense> = platform
            .cores()
            .map(|c| sense_for(&platform, c, &workload(c)))
            .collect();
        let rows = crate::estimate::ipc_rows(&platform, &senses, &predictors);
        let matrices = crate::estimate::build_matrices(&platform, &senses, &rows, &predictors);
        let rates = senses
            .iter()
            .zip(&rows)
            .map(|(s, row)| TypeRates::build(&platform, s, row, &predictors))
            .collect();
        Fixture {
            util: (0..senses.len()).map(|i| matrices.utilization(i)).collect(),
            types: platform.cores().map(|c| platform.core_type(c)).collect(),
            sleep: platform
                .cores()
                .map(|c| CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
                .collect(),
            matrices,
            rates,
        }
    }

    /// The exchange state and the dense incremental objective are two
    /// views of one kernel: bit-identical totals and deltas for every
    /// goal, on every move.
    #[test]
    fn exchange_state_matches_dense_incremental_objective() {
        let f = fixture(|c| {
            if c.0 % 2 == 0 {
                WorkloadCharacteristics::compute_bound()
            } else {
                WorkloadCharacteristics::memory_bound()
            }
        });
        let initial: Vec<usize> = (0..4).collect();
        let moves = [(0usize, 3usize), (1, 3), (2, 0), (0, 1), (3, 2)];
        for goal in [
            Goal::EnergyEfficiency,
            Goal::PerCoreEfficiencySum,
            Goal::Throughput,
            Goal::MinPower,
            Goal::EnergyDelayProduct,
        ] {
            let objective = Objective::new(&f.matrices, goal);
            let mut dense = IncrementalObjective::new(&objective, &initial);
            let mut compact = ExchangeState::new(
                goal, &f.rates, &f.util, &f.types, &f.sleep, &[1.0; 4], &initial,
            );
            assert_eq!(
                dense.value().to_bits(),
                compact.value().to_bits(),
                "{goal:?}: initial totals diverge"
            );
            for (i, to) in moves {
                let dd = dense.delta_for_move(i, to);
                let cd = compact.delta_onto(&compact.lift(i), to);
                assert_eq!(
                    dd.to_bits(),
                    cd.to_bits(),
                    "{goal:?}: move ({i},{to}) delta"
                );
                dense.commit_move(i, to);
                compact.commit_move(i, to);
                assert_eq!(
                    dense.value().to_bits(),
                    compact.value().to_bits(),
                    "{goal:?}: totals diverge after ({i},{to})"
                );
                assert_eq!(dense.alloc()[i], compact.core_of(i));
            }
        }
    }

    #[test]
    fn weighted_exchange_state_matches_weighted_objective() {
        let f = fixture(|_| WorkloadCharacteristics::balanced());
        let weights = vec![2.0, 1.0, 0.5, 0.05];
        let initial = vec![0, 0, 2, 3];
        let objective =
            Objective::new(&f.matrices, Goal::EnergyEfficiency).with_weights(weights.clone());
        let dense = IncrementalObjective::new(&objective, &initial);
        let compact = ExchangeState::new(
            Goal::EnergyEfficiency,
            &f.rates,
            &f.util,
            &f.types,
            &f.sleep,
            &weights,
            &initial,
        );
        assert_eq!(dense.value().to_bits(), compact.value().to_bits());
    }

    #[test]
    fn mask_semantics_match_the_matrices() {
        let mut m =
            CharacterizationMatrices::new(vec![TaskId(0)], vec![CoreTypeId(0); 3], vec![0.1; 3]);
        m.set_allowed(0, 0b101);
        for j in 0..3 {
            assert_eq!(mask_allows(0b101, j), m.is_allowed(0, j), "core {j}");
        }
        assert!(
            mask_allows(u64::MAX, 100),
            "wide platforms use the full mask"
        );
        assert!(!mask_allows(0b101, 100));
    }

    #[test]
    fn default_shard_config_is_sane() {
        let c = ShardConfig::default();
        assert_eq!(c.workers, 0, "auto-sized pool");
        assert!(c.exchange_top_k > 0);
        assert!(c.min_gain >= 0.0);
    }
}
