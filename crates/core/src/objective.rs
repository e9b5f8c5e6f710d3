//! The optimization objective (paper Eq. 10–11): maximize overall
//! energy efficiency — instructions per joule — plus the literal
//! per-core ratio sum of Eq. 11 and the alternative goals (throughput,
//! power) the paper notes can be swapped in, and the *incremental*
//! evaluation that makes Algorithm 1 cheap ("the computation of the
//! objective function is also optimized by keeping track of previous
//! computations and obtaining a new evaluation only by performing
//! computations induced by the latest swap on Ψ").
//!
//! Per-core model under an allocation Ψ: threads time-share a core
//! under CFS, so with per-thread demands `u_i` and per-thread full-speed
//! rates `ips_ij` / `p_ij`,
//!
//! ```text
//! U_j   = Σ u_i                (total demand)
//! busy  = min(1, U_j)          (the core can't exceed 100 %)
//! IPS_j = Σ u_i·ips_ij · busy/U_j
//! P_j   = Σ u_i·p_ij  · busy/U_j + (1 − busy)·P_sleep_j
//! ```
//!
//! Objective values are expressed in GIPS/W so the annealer's
//! fixed-point acceptance test operates on O(1) magnitudes.

use serde::{Deserialize, Serialize};

use crate::matrices::CharacterizationMatrices;

/// Scale factor turning instr/s per watt into GIPS/W.
const GIPS: f64 = 1.0e9;

/// Weighted goal aggregates `(ω·IPS, ω·P, ω·(IPS/P)/GIPS)` — of one
/// core, or summed over cores.
type Aggregates = (f64, f64, f64);

/// Combines summed per-core aggregates into the scalar objective for
/// `goal`.
fn goal_total(goal: Goal, (sum_ips, sum_p, sum_ratio): Aggregates) -> f64 {
    match goal {
        Goal::EnergyEfficiency => {
            if sum_p <= 0.0 {
                0.0
            } else {
                (sum_ips / sum_p) / GIPS
            }
        }
        Goal::PerCoreEfficiencySum => sum_ratio,
        Goal::Throughput => sum_ips / GIPS,
        Goal::MinPower => -sum_p,
        Goal::EnergyDelayProduct => {
            if sum_p <= 0.0 {
                0.0
            } else {
                (sum_ips / GIPS) * (sum_ips / GIPS) / sum_p
            }
        }
    }
}

/// `a + (new − old)` per aggregate: the patch a core's change applies
/// to the goal sums.
fn patched(a: Aggregates, old: Aggregates, new: Aggregates) -> Aggregates {
    (
        a.0 + (new.0 - old.0),
        a.1 + (new.1 - old.1),
        a.2 + (new.2 - old.2),
    )
}

/// Optimization goal (the paper's Eq. 11 plus the alternatives its
/// Section 5.1 mentions can be swapped into the objective).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Goal {
    /// Maximize the *system* energy efficiency `Σ ω_j IPS_j / Σ ω_j
    /// P_j` (GIPS/W) — instructions per joule of the machine as a
    /// whole, the quantity the paper's Eq. 10 calls "overall energy
    /// efficiency (IPS/Watt or Instructions per Joule)" and that the
    /// evaluation figures measure. This is the default goal.
    ///
    /// Rationale for deviating from the literal Eq. 11 by default: the
    /// per-core ratio *sum* is insensitive to how much work each core
    /// contributes, so it can park a hopeless thread on a big core as a
    /// "dump site" (one small bad term) to keep efficient cores' ratios
    /// pristine — improving `J_E` while worsening the measured
    /// instructions/joule. The system ratio has no such pathology. The
    /// literal Eq. 11 remains available as
    /// [`Goal::PerCoreEfficiencySum`] and is compared in the ablation
    /// bench.
    #[default]
    EnergyEfficiency,
    /// Maximize `Σ ω_j IPS_j / P_j` — the paper's Eq. 11 as written
    /// (per-core ratio sum; idle cores contribute 0).
    PerCoreEfficiencySum,
    /// Maximize total throughput `Σ ω_j IPS_j` (GIPS).
    Throughput,
    /// Minimize total power: the objective is `−Σ ω_j P_j` (W).
    MinPower,
    /// Minimize the energy-delay product: the objective is
    /// `(Σ ω_j IPS_j)² / Σ ω_j P_j` (maximizing IPS²/P minimizes
    /// energy·delay per instruction) — the classic middle ground
    /// between the throughput and energy goals.
    EnergyDelayProduct,
}

/// Objective evaluator over a characterization-matrix snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective<'a> {
    matrices: &'a CharacterizationMatrices,
    weights: Vec<f64>,
    goal: Goal,
}

impl<'a> Objective<'a> {
    /// Creates an evaluator with all core weights `ω_j = 1` (the
    /// paper's default).
    pub fn new(matrices: &'a CharacterizationMatrices, goal: Goal) -> Self {
        Objective {
            weights: vec![1.0; matrices.num_cores()],
            matrices,
            goal,
        }
    }

    /// Sets per-core weights `ω_j` ("can be tuned to give preference to
    /// certain cores or core types").
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the core count or any
    /// weight is negative/non-finite.
    pub fn with_weights(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), self.matrices.num_cores(), "one ω per core");
        for &w in &weights {
            assert!(w.is_finite() && w >= 0.0, "ω must be finite and >= 0");
        }
        self.weights = weights;
        self
    }

    /// The underlying matrices.
    pub fn matrices(&self) -> &CharacterizationMatrices {
        self.matrices
    }

    /// Full evaluation of allocation `alloc` (`alloc[i]` = core index
    /// of thread `i`).
    ///
    /// # Panics
    ///
    /// Panics if `alloc.len()` differs from the thread count or any
    /// entry is out of core range.
    pub fn evaluate(&self, alloc: &[usize]) -> f64 {
        IncrementalObjective::new(self, alloc).value()
    }
}

/// One core's slot in the [`ObjectiveKernel`]: its constants, its
/// demand/rate sums and their cached weighted aggregates, side by side
/// so a candidate move reads one contiguous 64-byte slot per core.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CoreSlot {
    weight: f64,
    sleep_w: f64,
    u_sum: f64,
    ips_sum: f64,
    pow_sum: f64,
    /// The ratio term is computed only under
    /// [`Goal::PerCoreEfficiencySum`], the one goal that reads it.
    agg: Aggregates,
}

impl CoreSlot {
    /// The weighted aggregates for the given sums: the per-core model
    /// of the module docs (an empty core sleeps), weighted by `ω`.
    fn aggregates(&self, goal: Goal, u_sum: f64, ips_sum: f64, pow_sum: f64) -> Aggregates {
        let (ips, p) = if u_sum <= 0.0 {
            (0.0, self.sleep_w)
        } else {
            let busy = u_sum.min(1.0);
            let scale = busy / u_sum;
            (
                ips_sum * scale,
                pow_sum * scale + (1.0 - busy) * self.sleep_w,
            )
        };
        let ratio = if goal != Goal::PerCoreEfficiencySum || ips <= 0.0 || p <= 0.0 {
            0.0
        } else {
            self.weight * (ips / p) / GIPS
        };
        (self.weight * ips, self.weight * p, ratio)
    }

    /// The aggregates with a thread of demand `u` running at `(ips, p)`
    /// added (`u > 0`) or removed (`u < 0`). Negation is exact in IEEE
    /// arithmetic, so a removal rounds exactly like a subtraction.
    fn shifted(&self, goal: Goal, u: f64, (ips, p): (f64, f64)) -> Aggregates {
        self.aggregates(
            goal,
            self.u_sum + u,
            self.ips_sum + u * ips,
            self.pow_sum + u * p,
        )
    }

    /// Adds (`u > 0`) or removes (`u < 0`) a thread's demand and rates.
    fn shift(&mut self, u: f64, (ips, p): (f64, f64)) {
        self.u_sum += u;
        self.ips_sum += u * ips;
        self.pow_sum += u * p;
    }
}

/// The incremental-objective kernel: per-core sums, each core's cached
/// weighted aggregates and their goal total for one allocation, updated
/// in O(1) per move. [`IncrementalObjective`] feeds it rates from the
/// dense matrices, the exchange stage's [`crate::shard::ExchangeState`]
/// from per-type rows; the arithmetic lives only here.
///
/// A move delta is split into a source half ([`Self::lift`], once per
/// thread) and a destination half ([`Self::delta_onto`], once per
/// candidate core). The float operations run in the order of a single
/// two-core patch, so a delta has the same bits however a scan splits
/// it, and [`Self::commit`] realizes exactly the predicted delta.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObjectiveKernel {
    goal: Goal,
    alloc: Vec<usize>,
    cores: Vec<CoreSlot>,
    /// The cores' aggregates summed.
    sums: Aggregates,
    total: f64,
}

/// A thread lifted off its current core: the goal sums with the source
/// core already patched, the destination-independent half of a delta.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lifted {
    /// The lifted thread.
    pub(crate) thread: usize,
    /// The core the thread sits on.
    pub(crate) from: usize,
    u: f64,
    sums: Aggregates,
}

impl ObjectiveKernel {
    /// Builds the kernel for `alloc` (`alloc[i]` = core of thread `i`)
    /// over one core per `weights`/`sleep_w` entry; `util(i)` is thread
    /// `i`'s demand and `rate(i, j)` its `(ips, power)` on core `j`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` and `sleep_w` differ in length or any
    /// allocation entry is out of core range.
    pub(crate) fn new(
        goal: Goal,
        weights: &[f64],
        sleep_w: &[f64],
        alloc: &[usize],
        util: impl Fn(usize) -> f64,
        rate: impl Fn(usize, usize) -> (f64, f64),
    ) -> Self {
        assert_eq!(weights.len(), sleep_w.len(), "one ω per core");
        let mut cores: Vec<CoreSlot> = weights
            .iter()
            .zip(sleep_w)
            .map(|(&weight, &sleep_w)| CoreSlot {
                weight,
                sleep_w,
                ..CoreSlot::default()
            })
            .collect();
        for (i, &j) in alloc.iter().enumerate() {
            assert!(
                j < cores.len(),
                "thread {i} assigned to non-existent core {j}"
            );
            cores[j].shift(util(i), rate(i, j));
        }
        let mut sums = (0.0, 0.0, 0.0);
        for c in &mut cores {
            c.agg = c.aggregates(goal, c.u_sum, c.ips_sum, c.pow_sum);
            sums = (sums.0 + c.agg.0, sums.1 + c.agg.1, sums.2 + c.agg.2);
        }
        let total = goal_total(goal, sums);
        let alloc = alloc.to_vec();
        ObjectiveKernel {
            goal,
            alloc,
            cores,
            sums,
            total,
        }
    }

    /// Current objective value.
    pub(crate) fn value(&self) -> f64 {
        self.total
    }

    /// Current allocation.
    pub(crate) fn alloc(&self) -> &[usize] {
        &self.alloc
    }

    /// Total demand currently placed on core `j`.
    pub(crate) fn load_of(&self, j: usize) -> f64 {
        self.cores[j].u_sum
    }

    /// Lifts thread `i` (demand `u`, running at `rate` on its core).
    pub(crate) fn lift(&self, i: usize, u: f64, rate: (f64, f64)) -> Lifted {
        let from = self.alloc[i];
        let c = &self.cores[from];
        let sums = patched(self.sums, c.agg, c.shifted(self.goal, -u, rate));
        Lifted {
            thread: i,
            from,
            u,
            sums,
        }
    }

    /// The objective delta if the lifted thread moved onto core `to`,
    /// running there at `rate` (no state change); 0 for its own core.
    pub(crate) fn delta_onto(&self, lifted: &Lifted, to: usize, rate: (f64, f64)) -> f64 {
        if to == lifted.from {
            return 0.0;
        }
        let c = &self.cores[to];
        let new = c.shifted(self.goal, lifted.u, rate);
        goal_total(self.goal, patched(lifted.sums, c.agg, new)) - self.total
    }

    /// Moves thread `i` (demand `u`) from its core, where it runs at
    /// `from_rate`, to core `to`, where it runs at `to_rate`; returns
    /// the realized delta.
    pub(crate) fn commit(
        &mut self,
        i: usize,
        to: usize,
        u: f64,
        from_rate: (f64, f64),
        to_rate: (f64, f64),
    ) -> f64 {
        let from = self.alloc[i];
        if from == to {
            return 0.0;
        }
        for (j, u, rate) in [(from, -u, from_rate), (to, u, to_rate)] {
            let c = &mut self.cores[j];
            let new = c.shifted(self.goal, u, rate);
            self.sums = patched(self.sums, c.agg, new);
            c.shift(u, rate);
            c.agg = new;
        }
        self.alloc[i] = to;
        let total = goal_total(self.goal, self.sums);
        let delta = total - self.total;
        self.total = total;
        delta
    }
}

/// Thread `i`'s `(ips, power)` on core `j` in the dense matrices.
fn rate(m: &CharacterizationMatrices, i: usize, j: usize) -> (f64, f64) {
    (m.ips(i, j), m.power(i, j))
}

/// Incrementally maintained objective state for a working allocation
/// over the dense matrices: the crate's incremental-objective kernel
/// fed by `S(k)`, `P(k)` and `U` lookups, updated in O(1) per move.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalObjective<'a, 'b> {
    objective: &'b Objective<'a>,
    kernel: ObjectiveKernel,
}

impl<'a, 'b> IncrementalObjective<'a, 'b> {
    /// Builds the state for an initial allocation.
    ///
    /// # Panics
    ///
    /// Panics if `alloc.len()` differs from the thread count or any
    /// entry is out of core range.
    pub fn new(objective: &'b Objective<'a>, alloc: &[usize]) -> Self {
        let m = objective.matrices;
        assert_eq!(alloc.len(), m.num_threads(), "one core per thread");
        let sleep_w: Vec<f64> = (0..m.num_cores()).map(|j| m.sleep_power_w(j)).collect();
        let kernel = ObjectiveKernel::new(
            objective.goal,
            &objective.weights,
            &sleep_w,
            alloc,
            |i| m.utilization(i),
            |i, j| rate(m, i, j),
        );
        IncrementalObjective { objective, kernel }
    }

    /// Current objective value.
    pub fn value(&self) -> f64 {
        self.kernel.value()
    }

    /// Current allocation.
    pub fn alloc(&self) -> &[usize] {
        self.kernel.alloc()
    }

    /// Thread `i` lifted off its current core.
    fn lift(&self, i: usize) -> Lifted {
        let m = self.objective.matrices;
        let from = self.kernel.alloc()[i];
        self.kernel.lift(i, m.utilization(i), rate(m, i, from))
    }

    /// The objective delta if thread `i` moved to core `to` (no state
    /// change). Returns 0 for a self-move.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `to` is out of range.
    pub fn delta_for_move(&self, i: usize, to: usize) -> f64 {
        let m = self.objective.matrices;
        self.kernel.delta_onto(&self.lift(i), to, rate(m, i, to))
    }

    /// Thread `i`'s best single move: the allowed core other than its
    /// own with the largest delta above `floor` (the lowest index on a
    /// tie) and that delta, or `None` when no move beats `floor`. One
    /// source-core patch serves the whole row.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn best_move(&self, i: usize, floor: f64) -> Option<(usize, f64)> {
        let m = self.objective.matrices;
        let lifted = self.lift(i);
        let mut best = None;
        let mut best_delta = floor;
        for j in (0..m.num_cores()).filter(|&j| j != lifted.from && m.is_allowed(i, j)) {
            let d = self.kernel.delta_onto(&lifted, j, rate(m, i, j));
            if d > best_delta {
                best_delta = d;
                best = Some(j);
            }
        }
        best.map(|j| (j, best_delta))
    }

    /// Commits the move of thread `i` to core `to`, returning the
    /// realized delta (bit-equal to [`Self::delta_for_move`]'s).
    pub fn commit_move(&mut self, i: usize, to: usize) -> f64 {
        let m = self.objective.matrices;
        let from = self.kernel.alloc()[i];
        let u = m.utilization(i);
        self.kernel
            .commit(i, to, u, rate(m, i, from), rate(m, i, to))
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use archsim::CoreTypeId;
    use kernelsim::TaskId;

    /// Two threads × two cores with hand-set rates.
    fn simple() -> CharacterizationMatrices {
        let mut m = CharacterizationMatrices::new(
            vec![TaskId(0), TaskId(1)],
            vec![CoreTypeId(0), CoreTypeId(1)],
            vec![0.1, 0.01],
        );
        // Thread 0: fast on core 0 (4 GIPS @ 4 W), slow on core 1.
        m.set(0, 0, 4.0e9, 4.0, true);
        m.set(0, 1, 0.5e9, 0.1, false);
        // Thread 1: memory-bound, barely faster on core 0.
        m.set(1, 0, 1.0e9, 4.0, false);
        m.set(1, 1, 0.4e9, 0.1, true);
        m.set_utilization(0, 1.0);
        m.set_utilization(1, 1.0);
        m
    }

    #[test]
    fn per_core_sum_goal_matches_eq11() {
        let m = simple();
        let obj = Objective::new(&m, Goal::PerCoreEfficiencySum);
        // Matched: t0 on c0 (1 GIPS/W), t1 on c1 (4 GIPS/W) -> 5.
        let matched = obj.evaluate(&[0, 1]);
        // Inverted: t0 on c1 (5 GIPS/W!), t1 on c0 (0.25).
        let inverted = obj.evaluate(&[1, 0]);
        assert!((matched - 5.0).abs() < 1e-9, "{matched}");
        assert!((inverted - 5.25).abs() < 1e-9, "{inverted}");
        // Both on the little core: they share it 50/50; the idle big
        // core contributes 0.
        let packed = obj.evaluate(&[1, 1]);
        // IPS = (0.5+0.4)/2 GIPS, P = 0.1 -> 4.5 GIPS/W.
        assert!((packed - 4.5).abs() < 1e-9, "{packed}");
    }

    #[test]
    fn system_efficiency_goal_is_global_ratio() {
        let m = simple();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        // Matched: ΣIPS = 4.4 GIPS, ΣP = 4.1 W.
        let matched = obj.evaluate(&[0, 1]);
        assert!((matched - 4.4 / 4.1).abs() < 1e-9, "{matched}");
        // Packed on the little core: ΣIPS = 0.45 GIPS shared, ΣP =
        // 0.1 W busy + 0.1 W big-core sleep.
        let packed = obj.evaluate(&[1, 1]);
        assert!((packed - 0.45 / 0.2).abs() < 1e-9, "{packed}");
        // No dump-site pathology: parking t1 on the big core (terrible
        // ratio, real watts) must score worse than keeping it cheap.
        let dumped = obj.evaluate(&[1, 0]);
        assert!(
            dumped < packed,
            "dump-site must not win: {dumped} vs {packed}"
        );
    }

    #[test]
    fn throughput_goal_prefers_big_core() {
        let m = simple();
        let obj = Objective::new(&m, Goal::Throughput);
        let big = obj.evaluate(&[0, 0]); // share: (4+1)/2 = 2.5 GIPS
        let split = obj.evaluate(&[0, 1]); // 4 + 0.4 = 4.4 GIPS
        assert!((big - 2.5).abs() < 1e-9);
        assert!((split - 4.4).abs() < 1e-9);
        assert!(split > big);
    }

    #[test]
    fn min_power_goal_counts_sleep_leakage() {
        let m = simple();
        let obj = Objective::new(&m, Goal::MinPower);
        // Everything on core 1: core 0 sleeps at 0.1 W.
        let packed = obj.evaluate(&[1, 1]);
        assert!((packed - -(0.1 + 0.1)).abs() < 1e-9, "{packed}");
    }

    #[test]
    fn weights_scale_core_terms() {
        let m = simple();
        let obj = Objective::new(&m, Goal::PerCoreEfficiencySum).with_weights(vec![2.0, 0.0]);
        let v = obj.evaluate(&[0, 1]);
        // Core 0 term doubled (2 GIPS/W), core 1 zeroed.
        assert!((v - 2.0).abs() < 1e-9, "{v}");
    }

    #[test]
    fn partial_utilization_mixes_sleep_power() {
        let mut m = simple();
        m.set_utilization(0, 0.5);
        let obj = Objective::new(&m, Goal::PerCoreEfficiencySum);
        // Thread 0 alone on core 0 at 50 % duty: IPS = 2 GIPS,
        // P = 0.5*4 + 0.5*0.1 = 2.05 W.
        let mut alloc_state = IncrementalObjective::new(&obj, &[0, 1]);
        let expected_core0 = 2.0 / 2.05;
        let got = alloc_state.value() - 4.0; // subtract core 1's term
        assert!((got - expected_core0).abs() < 1e-9, "{got}");
        // Moving t1 over too: U = 1.5 > 1 -> saturation.
        alloc_state.commit_move(1, 0);
        let u = 1.5;
        let scale = 1.0 / u;
        let ips = (0.5 * 4.0e9 + 1.0 * 1.0e9) * scale / 1.0e9;
        let p = (0.5 * 4.0 + 1.0 * 4.0) * scale;
        assert!((alloc_state.value() - ips / p).abs() < 1e-9);
    }

    #[test]
    fn incremental_matches_full_evaluation() {
        let m = simple();
        for goal in ALL_GOALS {
            let obj = Objective::new(&m, goal);
            let mut state = IncrementalObjective::new(&obj, &[0, 0]);
            let moves = [(0, 1), (1, 1), (0, 0), (1, 0), (0, 1)];
            for (i, to) in moves {
                let predicted = state.delta_for_move(i, to);
                let before = state.value();
                let realized = state.commit_move(i, to);
                assert!((predicted - realized).abs() < 1e-12, "{goal:?}");
                let full = obj.evaluate(state.alloc());
                assert!(
                    (state.value() - full).abs() < 1e-9,
                    "{goal:?}: incremental {} vs full {full}",
                    state.value()
                );
                assert!((state.value() - before - realized).abs() < 1e-12);
            }
        }
    }

    const ALL_GOALS: [Goal; 5] = [
        Goal::EnergyEfficiency,
        Goal::PerCoreEfficiencySum,
        Goal::Throughput,
        Goal::MinPower,
        Goal::EnergyDelayProduct,
    ];

    /// Deterministic uniform draws in `[0, 1)` from a splitmix64 stream.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> f64 {
            self.0 += 1;
            (crate::suite::splitmix64(self.0) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, n: usize) -> usize {
            ((self.next() * n as f64) as usize).min(n - 1)
        }
    }

    /// Random `m × n` matrices with utilizations that oversubscribe
    /// some cores, idle-leaning sleep powers and affinity masks that
    /// forbid about a third of the cells.
    fn random_matrices(d: &mut Draws, m: usize, n: usize) -> CharacterizationMatrices {
        let mut mx = CharacterizationMatrices::new(
            (0..m).map(TaskId).collect(),
            (0..n).map(CoreTypeId).collect(),
            (0..n).map(|_| 0.005 + 0.2 * d.next()).collect(),
        );
        for i in 0..m {
            for j in 0..n {
                mx.set(i, j, 4.0e9 * d.next(), 0.05 + 4.0 * d.next(), false);
            }
            mx.set_utilization(i, 0.05 + d.next());
            let mask = (0..n).fold(0u64, |mk, j| if d.next() < 0.66 { mk | 1 << j } else { mk });
            mx.set_allowed(i, mask);
        }
        mx
    }

    /// The split-delta kernel against brute force, for every goal with
    /// and without weights: `best_move` is the argmax of
    /// `delta_for_move` over the allowed cores (lowest index on a tie,
    /// bit-equal delta), and every commit realizes exactly the delta it
    /// was predicted at.
    #[test]
    fn best_move_and_commit_match_brute_force_bitwise() {
        let (m, n) = (9, 6);
        for seed in 0..12u64 {
            let mut d = Draws(seed << 32);
            let mx = random_matrices(&mut d, m, n);
            let weights: Vec<f64> = (0..n)
                .map(|j| if j == 0 { 0.0 } else { 2.0 * d.next() })
                .collect();
            let alloc: Vec<usize> = (0..m).map(|_| d.below(n)).collect();
            for goal in ALL_GOALS {
                for weighted in [false, true] {
                    let mut obj = Objective::new(&mx, goal);
                    if weighted {
                        obj = obj.with_weights(weights.clone());
                    }
                    let mut state = IncrementalObjective::new(&obj, &alloc);
                    for step in 0..40 {
                        let i = d.below(m);
                        for floor in [f64::NEG_INFINITY, 0.0, 1.0e-12] {
                            let cur = state.alloc()[i];
                            let mut brute: Option<(usize, f64)> = None;
                            for j in (0..n).filter(|&j| j != cur && mx.is_allowed(i, j)) {
                                let delta = state.delta_for_move(i, j);
                                if delta > brute.map_or(floor, |(_, b)| b) {
                                    brute = Some((j, delta));
                                }
                            }
                            let got = state.best_move(i, floor);
                            assert_eq!(
                                got.map(|(j, d)| (j, d.to_bits())),
                                brute.map(|(j, d)| (j, d.to_bits())),
                                "{goal:?} weighted={weighted} seed {seed} step {step} floor {floor}"
                            );
                        }
                        let to = d.below(n);
                        let predicted = state.delta_for_move(i, to);
                        let realized = state.commit_move(i, to);
                        assert_eq!(
                            predicted.to_bits(),
                            realized.to_bits(),
                            "{goal:?} weighted={weighted} seed {seed} step {step}"
                        );
                    }
                    let full = obj.evaluate(state.alloc());
                    assert!(
                        (state.value() - full).abs() <= 1e-9 * full.abs().max(1.0),
                        "{goal:?}: incremental {} drifted from full {full}",
                        state.value()
                    );
                }
            }
        }
    }

    #[test]
    fn edp_goal_sits_between_throughput_and_energy() {
        // EDP should prefer the big core more than the energy goal
        // does, but still account for power unlike pure throughput.
        let m = simple();
        let edp = Objective::new(&m, Goal::EnergyDelayProduct);
        // Matched split: IPS 4.4 GIPS, P 4.1 W -> 4.4^2/4.1 = 4.722.
        let split = edp.evaluate(&[0, 1]);
        assert!((split - 4.4 * 4.4 / 4.1).abs() < 1e-9, "{split}");
        // Packed on little: IPS 0.45, P 0.2 -> 1.0125.
        let packed = edp.evaluate(&[1, 1]);
        assert!((packed - 0.45 * 0.45 / 0.2).abs() < 1e-9, "{packed}");
        // Unlike the energy goal, EDP prefers the split here.
        assert!(split > packed);
    }

    #[test]
    fn self_move_is_free() {
        let m = simple();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        let mut state = IncrementalObjective::new(&obj, &[0, 1]);
        assert_eq!(state.delta_for_move(0, 0), 0.0);
        assert_eq!(state.commit_move(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-existent core")]
    fn bad_allocation_rejected() {
        let m = simple();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        obj.evaluate(&[0, 7]);
    }

    #[test]
    #[should_panic(expected = "one core per thread")]
    fn wrong_length_allocation_rejected() {
        let m = simple();
        let obj = Objective::new(&m, Goal::EnergyEfficiency);
        obj.evaluate(&[0]);
    }
}
