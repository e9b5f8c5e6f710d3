//! Graceful sensing degradation: the mode ladder and prediction
//! quarantine that keep the balancer useful when its inputs rot.
//!
//! SmartBalance's closed loop assumes trustworthy counters and power
//! readings. Real sensor fabrics fail — counters stick, samples drop,
//! power rails read zero — and a controller that keeps annealing over
//! garbage characterization matrices is worse than the vanilla
//! balancer it replaced. This module provides the defense layers:
//!
//! * [`DegradeMode`] — a three-rung ladder of progressively less
//!   sensing-dependent policies:
//!
//!   ```text
//!   Full        sense → predict → anneal          (the paper's loop)
//!     │ ▲
//!     ▼ │       predictions distrusted: place threads greedily by
//!   PredictFree measured IPS/Watt and static core efficiency only
//!     │ ▲
//!     ▼ │       sensing itself distrusted: weight-equalizing spread,
//!   LoadOnly    CFS-style, using nothing but run-queue load
//!   ```
//!
//! * [`DegradeController`] — hysteresis over per-epoch
//!   [`SenseHealth`](crate::sense::SenseHealth)-derived signals:
//!   demotion is fail-fast (straight to the target rung after a short
//!   bad streak), promotion is cautious (one rung at a time after a
//!   longer good streak), so a flapping sensor cannot make the policy
//!   thrash.
//!
//! * [`QuarantineTracker`] — per-thread EWMA of the *identity-pair*
//!   prediction residual (predicting a thread's IPC on the core type
//!   it was just measured on should roughly reproduce the
//!   measurement). Threads whose residual blows past the threshold
//!   are quarantined: their signatures are no longer trusted to
//!   propose cross-core moves.
//!
//! * [`predict_free_greedy`] — the middle rung's allocator: a
//!   deterministic first-fit-decreasing pass that packs threads onto
//!   the statically most-efficient online cores without touching the
//!   regression predictors.

use std::collections::{BTreeMap, BTreeSet};

use archsim::{CoreId, Platform};
use kernelsim::{Allocation, TaskId};
use serde::{Deserialize, Serialize};

use crate::sense::ThreadSense;
use crate::shard::mask_allows;

/// Rung of the degradation ladder, ordered from most to least
/// sensing-dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DegradeMode {
    /// The paper's full closed loop: sense → predict → anneal.
    #[default]
    Full,
    /// Predictors distrusted; greedy IPS/Watt placement on measured
    /// throughput and static core efficiency only.
    PredictFree,
    /// Sensing distrusted entirely; load-only CFS-style spread.
    LoadOnly,
}

impl DegradeMode {
    /// Ladder position: 0 = `Full` (healthiest), 2 = `LoadOnly`.
    pub fn rank(self) -> u8 {
        match self {
            DegradeMode::Full => 0,
            DegradeMode::PredictFree => 1,
            DegradeMode::LoadOnly => 2,
        }
    }

    /// The rung with the given rank (clamped to the ladder).
    fn from_rank(rank: u8) -> Self {
        match rank {
            0 => DegradeMode::Full,
            1 => DegradeMode::PredictFree,
            _ => DegradeMode::LoadOnly,
        }
    }

    /// Stable lowercase name for logs and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            DegradeMode::Full => "full",
            DegradeMode::PredictFree => "predict-free",
            DegradeMode::LoadOnly => "load-only",
        }
    }
}

/// Tuning knobs for the degradation ladder and prediction quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradeConfig {
    /// EWMA relative identity-pair residual above which a thread's
    /// predictions are quarantined (released below half of this).
    pub quarantine_residual: f64,
    /// EWMA smoothing factor for the residual tracker in `(0, 1]`
    /// (1 = no smoothing).
    pub residual_alpha: f64,
    /// Fraction of live threads quarantined at which `Full` demotes
    /// to `PredictFree`.
    pub quarantine_demote_frac: f64,
    /// Fraction of sensing candidates left *blind* (ran long enough to
    /// be measured, yet no fresh sample survived validation and no
    /// replayable cached signature remained — the sensing stage fell
    /// back to the neutral prior) at which the policy demotes straight
    /// to `LoadOnly`. Invalid samples covered by a cache replay do not
    /// count (a replayed signature is still a usable one), and neither
    /// do threads that merely didn't run this epoch: runtime starvation
    /// is a scheduling fact, not a sensing failure.
    pub blind_demote_frac: f64,
    /// Consecutive unhealthy epochs before demoting (fail fast).
    pub demote_after: u32,
    /// Consecutive healthy epochs before promoting one rung
    /// (recover cautiously).
    pub promote_after: u32,
    /// Staleness TTL for cached thread signatures, in epochs: a
    /// signature older than this is dropped instead of replayed.
    pub signature_ttl_epochs: u64,
}

impl Default for DegradeConfig {
    fn default() -> Self {
        DegradeConfig {
            quarantine_residual: 0.6,
            residual_alpha: 0.5,
            quarantine_demote_frac: 0.35,
            blind_demote_frac: 0.5,
            demote_after: 2,
            promote_after: 4,
            signature_ttl_epochs: 16,
        }
    }
}

/// One epoch's health signals, as seen by the [`DegradeController`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochHealth {
    /// Live threads the sensing stage processed.
    pub candidates: usize,
    /// Fresh samples rejected as invalid (insane features, non-finite
    /// or non-positive rates) — diagnostic; an invalid sample covered
    /// by a cache replay exerts no ladder pressure.
    pub invalid: usize,
    /// Threads that ran but the sensing stage could say nothing about:
    /// no valid fresh sample and no unexpired cached signature, so they
    /// run on the neutral prior (see `SenseHealth::blind`).
    pub blind: usize,
    /// Threads currently under prediction quarantine.
    pub quarantined: usize,
}

impl EpochHealth {
    /// Fraction of candidates whose fresh sample was invalid.
    pub fn invalid_frac(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.invalid as f64 / self.candidates as f64
        }
    }

    /// Fraction of candidates with no usable signature at all.
    pub fn blind_frac(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.blind as f64 / self.candidates as f64
        }
    }

    /// Fraction of candidates under prediction quarantine.
    pub fn quarantined_frac(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.quarantined as f64 / self.candidates as f64
        }
    }
}

/// Hysteresis state machine walking the [`DegradeMode`] ladder.
///
/// Demotions jump straight to the indicated rung after
/// `demote_after` consecutive unhealthy epochs; promotions climb one
/// rung at a time after `promote_after` consecutive epochs healthy
/// enough for a higher rung. Streak counters reset whenever the
/// pressure direction changes, so alternating good/bad epochs hold
/// the current rung instead of oscillating.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradeController {
    config: DegradeConfig,
    mode: DegradeMode,
    demote_streak: u32,
    promote_streak: u32,
    transitions: u64,
}

impl DegradeController {
    /// Creates the controller at the `Full` rung.
    pub fn new(config: DegradeConfig) -> Self {
        assert!(
            config.demote_after >= 1 && config.promote_after >= 1,
            "hysteresis windows must be at least one epoch"
        );
        DegradeController {
            config,
            mode: DegradeMode::Full,
            demote_streak: 0,
            promote_streak: 0,
            transitions: 0,
        }
    }

    /// The rung the given health signals call for, ignoring hysteresis.
    /// Replay-covered corruption is *not* pressure: the loop only steps
    /// down when threads are flying blind (signatures expired or never
    /// established) or their predictions are quarantined.
    fn target_for(&self, health: &EpochHealth) -> DegradeMode {
        if health.blind_frac() >= self.config.blind_demote_frac {
            DegradeMode::LoadOnly
        } else if health.quarantined_frac() >= self.config.quarantine_demote_frac {
            DegradeMode::PredictFree
        } else {
            DegradeMode::Full
        }
    }

    /// Feeds one epoch of health signals; returns the mode to use for
    /// this epoch's balancing decision.
    pub fn step(&mut self, health: &EpochHealth) -> DegradeMode {
        let target = self.target_for(health);
        if target.rank() > self.mode.rank() {
            self.promote_streak = 0;
            self.demote_streak += 1;
            if self.demote_streak >= self.config.demote_after {
                // Fail fast: jump straight to the rung the signals
                // demand rather than degrading gradually.
                self.mode = target;
                self.transitions += 1;
                self.demote_streak = 0;
            }
        } else if target.rank() < self.mode.rank() {
            self.demote_streak = 0;
            self.promote_streak += 1;
            if self.promote_streak >= self.config.promote_after {
                // Recover cautiously: one rung per good streak.
                self.mode = DegradeMode::from_rank(self.mode.rank() - 1);
                self.transitions += 1;
                self.promote_streak = 0;
            }
        } else {
            self.demote_streak = 0;
            self.promote_streak = 0;
        }
        self.mode
    }

    /// Current rung.
    pub fn mode(&self) -> DegradeMode {
        self.mode
    }

    /// Total rung changes since construction (both directions).
    pub fn transitions(&self) -> u64 {
        self.transitions
    }
}

/// Per-thread EWMA of the relative identity-pair prediction residual.
///
/// For a fresh measurement of thread `i` on core type `r`, predicting
/// `ips` for the *same* type `r` from the thread's own signature
/// should approximately reproduce the measurement. A large sustained
/// residual means either the signature or the measurement is corrupt —
/// either way, cross-core predictions derived from it cannot be
/// trusted, so the thread is quarantined until the residual decays
/// below half the threshold.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QuarantineTracker {
    residuals: BTreeMap<TaskId, f64>,
    quarantined: BTreeMap<TaskId, bool>,
}

impl QuarantineTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        QuarantineTracker::default()
    }

    /// Folds one epoch of senses into the residual EWMAs and updates
    /// the quarantine set; `ipc_rows` are the senses'
    /// [`crate::estimate::ipc_rows`], whose source-type entries are the
    /// identity predictions. Only fresh, positively-measured samples
    /// contribute; replayed or prior-backed senses leave the residual
    /// untouched. Threads absent from `senses` are forgotten.
    ///
    /// # Panics
    ///
    /// Panics if `ipc_rows` does not hold one row per sense.
    pub fn observe(
        &mut self,
        platform: &Platform,
        senses: &[ThreadSense],
        ipc_rows: &[Vec<f64>],
        config: &DegradeConfig,
    ) {
        assert_eq!(ipc_rows.len(), senses.len(), "one IPC row per sense");
        let alpha = config.residual_alpha.clamp(1e-3, 1.0);
        for (sense, row) in senses.iter().zip(ipc_rows) {
            if !sense.fresh || sense.measured_ips <= 0.0 {
                continue;
            }
            let src = platform.core_type(sense.core);
            let predicted_ips = row[src.0] * platform.type_config(src).freq_hz;
            let rel = (predicted_ips - sense.measured_ips).abs() / sense.measured_ips.max(1.0);
            let ewma = match self.residuals.get(&sense.task) {
                Some(&prev) => alpha * rel + (1.0 - alpha) * prev,
                None => rel,
            };
            self.residuals.insert(sense.task, ewma);
            let flagged = self.quarantined.entry(sense.task).or_insert(false);
            if ewma > config.quarantine_residual {
                *flagged = true;
            } else if ewma < config.quarantine_residual / 2.0 {
                *flagged = false;
            }
        }
        // Forget exited threads so the quarantine fraction tracks the
        // live population.
        let live: BTreeSet<TaskId> = senses.iter().map(|s| s.task).collect();
        self.residuals.retain(|t, _| live.contains(t));
        self.quarantined.retain(|t, _| live.contains(t));
    }

    /// Whether this thread's predictions are currently distrusted.
    pub fn is_quarantined(&self, task: TaskId) -> bool {
        self.quarantined.get(&task).copied().unwrap_or(false)
    }

    /// Number of threads currently under quarantine.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.values().filter(|&&q| q).count()
    }

    /// Quarantined thread ids, in ascending order.
    pub fn quarantined_tasks(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self
            .quarantined
            .iter()
            .filter(|(_, &q)| q)
            .map(|(&t, _)| t)
            .collect();
        ids.sort_unstable_by_key(|t| t.0);
        ids
    }
}

/// The `PredictFree` rung's allocator: deterministic
/// first-fit-decreasing packing onto the statically most
/// IPS-per-Watt-efficient online cores.
///
/// Threads are placed in descending utilization order (task id breaks
/// ties) onto the most efficient online, affinity-allowed core with
/// remaining utilization capacity; when nothing has room, onto the
/// online allowed core with the most remaining capacity; when no
/// online core is allowed at all, the thread stays put. Only actual
/// moves are emitted.
pub fn predict_free_greedy(
    platform: &Platform,
    senses: &[ThreadSense],
    online: &[bool],
) -> Option<Allocation> {
    let n = platform.num_cores();
    if senses.is_empty() || !(0..n).any(|j| online.get(j).copied().unwrap_or(true)) {
        return None;
    }
    let is_online = |j: usize| online.get(j).copied().unwrap_or(true);
    // Static per-core efficiency from the datasheet peaks; no
    // predictor involvement by construction.
    let efficiency: Vec<f64> = (0..n)
        .map(|j| {
            let cfg = platform.type_config(platform.core_type(CoreId(j)));
            cfg.peak_ips() / cfg.peak_power_w.max(1e-9)
        })
        .collect();
    // Cores from most to least efficient, index breaking ties.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        efficiency[b]
            .partial_cmp(&efficiency[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut by_demand: Vec<&ThreadSense> = senses.iter().collect();
    by_demand.sort_by(|a, b| {
        b.utilization
            .partial_cmp(&a.utilization)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.task.0.cmp(&b.task.0))
    });

    let mut capacity = vec![1.0f64; n];
    let mut alloc = Allocation::new();
    for sense in by_demand {
        let demand = sense.utilization.clamp(0.0, 1.0);
        let fits = order
            .iter()
            .copied()
            .filter(|&j| is_online(j) && mask_allows(sense.allowed, j))
            .find(|&j| capacity[j] >= demand);
        let target = fits.or_else(|| {
            (0..n)
                .filter(|&j| is_online(j) && mask_allows(sense.allowed, j))
                .max_by(|&a, &b| {
                    capacity[a]
                        .partial_cmp(&capacity[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.cmp(&a))
                })
        });
        let Some(j) = target else {
            continue; // no online core allowed: stay put
        };
        capacity[j] -= demand;
        if j != sense.core.0 {
            alloc.assign(sense.task, CoreId(j));
        }
    }

    if alloc.is_empty() {
        None
    } else {
        Some(alloc)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;
    use crate::estimate::ipc_rows;
    use crate::predict::PredictorSet;
    use crate::sense::Features;

    fn healthy() -> EpochHealth {
        EpochHealth {
            candidates: 10,
            invalid: 0,
            blind: 0,
            quarantined: 0,
        }
    }

    fn mostly_blind() -> EpochHealth {
        EpochHealth {
            candidates: 10,
            invalid: 6,
            blind: 6,
            quarantined: 0,
        }
    }

    fn mostly_quarantined() -> EpochHealth {
        EpochHealth {
            candidates: 10,
            invalid: 0,
            blind: 0,
            quarantined: 5,
        }
    }

    #[test]
    fn healthy_stream_stays_full() {
        let mut c = DegradeController::new(DegradeConfig::default());
        for _ in 0..50 {
            assert_eq!(c.step(&healthy()), DegradeMode::Full);
        }
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn invalid_storm_demotes_straight_to_load_only() {
        let cfg = DegradeConfig::default();
        let mut c = DegradeController::new(cfg);
        // demote_after - 1 bad epochs: still Full.
        for _ in 0..cfg.demote_after - 1 {
            assert_eq!(c.step(&mostly_blind()), DegradeMode::Full);
        }
        // One more: jump straight past PredictFree.
        assert_eq!(c.step(&mostly_blind()), DegradeMode::LoadOnly);
        assert_eq!(c.transitions(), 1);
    }

    #[test]
    fn quarantine_pressure_demotes_one_rung() {
        let cfg = DegradeConfig::default();
        let mut c = DegradeController::new(cfg);
        for _ in 0..cfg.demote_after {
            c.step(&mostly_quarantined());
        }
        assert_eq!(c.mode(), DegradeMode::PredictFree);
    }

    #[test]
    fn recovery_climbs_one_rung_per_good_streak() {
        let cfg = DegradeConfig::default();
        let mut c = DegradeController::new(cfg);
        for _ in 0..cfg.demote_after {
            c.step(&mostly_blind());
        }
        assert_eq!(c.mode(), DegradeMode::LoadOnly);
        // First good streak: only one rung up, not straight to Full.
        for _ in 0..cfg.promote_after - 1 {
            assert_eq!(c.step(&healthy()), DegradeMode::LoadOnly);
        }
        assert_eq!(c.step(&healthy()), DegradeMode::PredictFree);
        // Second good streak completes the recovery.
        for _ in 0..cfg.promote_after - 1 {
            assert_eq!(c.step(&healthy()), DegradeMode::PredictFree);
        }
        assert_eq!(c.step(&healthy()), DegradeMode::Full);
        assert_eq!(c.transitions(), 3);
    }

    #[test]
    fn promotion_climbs_exactly_one_rung_per_streak_for_every_window() {
        // Property sweep over the hysteresis windows: from LoadOnly, a
        // healthy stream must spend exactly `promote_after` epochs on
        // each rung, pass through PredictFree exactly once (never
        // LoadOnly → Full directly), and then hold Full forever.
        for promote_after in 1..=8u32 {
            for demote_after in 1..=4u32 {
                let cfg = DegradeConfig {
                    promote_after,
                    demote_after,
                    ..DegradeConfig::default()
                };
                let mut c = DegradeController::new(cfg);
                for _ in 0..demote_after {
                    c.step(&mostly_blind());
                }
                assert_eq!(c.mode(), DegradeMode::LoadOnly);
                let before = c.transitions();

                let ladder: Vec<DegradeMode> = (0..promote_after * 2 + 16)
                    .map(|_| c.step(&healthy()))
                    .collect();
                // Each step climbs at most one rank — PredictFree is
                // never skipped on the way back up.
                let mut prev = DegradeMode::LoadOnly.rank();
                for mode in &ladder {
                    assert!(
                        mode.rank() <= prev && prev - mode.rank() <= 1,
                        "promotion skipped a rung: {prev} -> {} (promote_after {promote_after})",
                        mode.rank()
                    );
                    prev = mode.rank();
                }
                // Exactly promote_after epochs on each intermediate
                // rung, then Full for the rest of the stream.
                let on_load_only = ladder
                    .iter()
                    .filter(|m| **m == DegradeMode::LoadOnly)
                    .count();
                let on_predict_free = ladder
                    .iter()
                    .filter(|m| **m == DegradeMode::PredictFree)
                    .count();
                // promote_after - 1 epochs still LoadOnly; the
                // promote_after-th step returns PredictFree.
                assert_eq!(on_load_only, (promote_after - 1) as usize);
                assert_eq!(on_predict_free, promote_after as usize);
                assert_eq!(ladder.last(), Some(&DegradeMode::Full));
                assert_eq!(c.transitions() - before, 2, "exactly two promotions");
            }
        }
    }

    #[test]
    fn flapping_health_does_not_thrash() {
        let cfg = DegradeConfig::default();
        let mut c = DegradeController::new(cfg);
        // Alternating good/bad epochs never complete either streak.
        for _ in 0..40 {
            c.step(&mostly_blind());
            c.step(&healthy());
        }
        assert_eq!(c.mode(), DegradeMode::Full);
        assert_eq!(c.transitions(), 0);
    }

    #[test]
    fn empty_epoch_is_neutral() {
        let h = EpochHealth::default();
        assert_eq!(h.invalid_frac(), 0.0);
        assert_eq!(h.quarantined_frac(), 0.0);
        let mut c = DegradeController::new(DegradeConfig::default());
        assert_eq!(c.step(&h), DegradeMode::Full);
    }

    fn sense(task: usize, core: usize, util: f64) -> ThreadSense {
        // A plausible balanced-thread signature (cf. the sensing
        // stage's neutral prior) so identity predictions are sane.
        let features: Features = [
            2.0, 0.01, 0.05, 0.30, 0.15, 0.05, 0.001, 0.005, 1.0, 1.0, 0.05,
        ];
        ThreadSense {
            task: TaskId(task),
            core: CoreId(core),
            features,
            measured_ips: 1e9,
            measured_power_w: 1.0,
            utilization: util,
            weight: 1024,
            kernel_thread: false,
            allowed: u64::MAX,
            fresh: true,
        }
    }

    #[test]
    fn greedy_prefers_efficient_online_cores() {
        let platform = Platform::quad_heterogeneous();
        // In the quad platform the little cores are the most
        // IPS/Watt-efficient; a lone small thread on a big core should
        // be pulled there.
        let effs: Vec<f64> = (0..platform.num_cores())
            .map(|j| {
                let cfg = platform.type_config(platform.core_type(CoreId(j)));
                cfg.peak_ips() / cfg.peak_power_w
            })
            .collect();
        let best = (0..platform.num_cores())
            .max_by(|&a, &b| effs[a].partial_cmp(&effs[b]).unwrap())
            .unwrap();
        let src = (best + 1) % platform.num_cores();
        let senses = vec![sense(0, src, 0.5)];
        let alloc =
            predict_free_greedy(&platform, &senses, &vec![true; platform.num_cores()]).unwrap();
        assert_eq!(alloc.core_of(TaskId(0)), Some(CoreId(best)));
    }

    #[test]
    fn greedy_never_targets_offline_cores() {
        let platform = Platform::quad_heterogeneous();
        let n = platform.num_cores();
        let mut online = vec![true; n];
        // Everything offline except core 2.
        for (j, o) in online.iter_mut().enumerate() {
            *o = j == 2;
        }
        let senses: Vec<ThreadSense> = (0..4).map(|i| sense(i, 0, 0.9)).collect();
        let alloc = predict_free_greedy(&platform, &senses, &online).unwrap();
        for (_, core) in alloc.iter() {
            assert_eq!(core, CoreId(2));
        }
    }

    #[test]
    fn greedy_respects_affinity() {
        let platform = Platform::quad_heterogeneous();
        let mut s = sense(0, 1, 0.5);
        s.allowed = 0b0010; // pinned to core 1
        let alloc = predict_free_greedy(&platform, &[s], &vec![true; platform.num_cores()]);
        assert!(alloc.is_none(), "pinned thread already home: no moves");
    }

    #[test]
    fn greedy_with_no_online_allowed_core_stays_put() {
        let platform = Platform::quad_heterogeneous();
        let mut s = sense(0, 1, 0.5);
        s.allowed = 0b0010;
        let mut online = vec![true; platform.num_cores()];
        online[1] = false; // the only allowed core is offline
        assert!(predict_free_greedy(&platform, &[s], &online).is_none());
    }

    #[test]
    fn quarantine_tracks_identity_residual() {
        let platform = Platform::quad_heterogeneous();
        let predictors = PredictorSet::train(&platform, 150, 0xDAC_2015);
        let cfg = DegradeConfig::default();
        let mut q = QuarantineTracker::new();
        let observe = |q: &mut QuarantineTracker, senses: &[ThreadSense]| {
            q.observe(
                &platform,
                senses,
                &ipc_rows(&platform, senses, &predictors),
                &cfg,
            );
        };
        // The identity prediction: the sense's own row at its own type.
        let identity_ips = |s: &ThreadSense| {
            let src = platform.core_type(s.core);
            let row = &ipc_rows(&platform, std::slice::from_ref(s), &predictors)[0];
            row[src.0] * platform.type_config(src).freq_hz
        };

        // A self-consistent sense: measured ips equals the identity
        // prediction, residual ~0 → never quarantined.
        let mut good = sense(0, 0, 0.5);
        good.measured_ips = identity_ips(&good);

        // A corrupted sense: measurement wildly off the prediction.
        let mut bad = sense(1, 1, 0.5);
        bad.measured_ips = 1e3;

        for _ in 0..4 {
            observe(&mut q, &[good, bad]);
        }
        assert!(!q.is_quarantined(TaskId(0)));
        assert!(q.is_quarantined(TaskId(1)));
        assert_eq!(q.quarantined_count(), 1);
        assert_eq!(q.quarantined_tasks(), vec![TaskId(1)]);

        // Healing: the bad thread starts measuring consistently; the
        // EWMA decays and the quarantine releases.
        bad.measured_ips = identity_ips(&bad);
        // The EWMA halves each epoch (alpha 0.5); decaying a ~1e6
        // relative residual below the release threshold takes a while.
        for _ in 0..40 {
            observe(&mut q, &[good, bad]);
        }
        assert!(!q.is_quarantined(TaskId(1)), "residual decayed below half");

        // Exited threads are forgotten.
        observe(&mut q, &[good]);
        assert_eq!(q.quarantined_count(), 0);
        assert!(!q.is_quarantined(TaskId(1)));
    }

    #[test]
    fn mode_names_and_ranks_are_stable() {
        assert_eq!(DegradeMode::Full.name(), "full");
        assert_eq!(DegradeMode::PredictFree.name(), "predict-free");
        assert_eq!(DegradeMode::LoadOnly.name(), "load-only");
        assert!(DegradeMode::Full.rank() < DegradeMode::PredictFree.rank());
        assert!(DegradeMode::PredictFree.rank() < DegradeMode::LoadOnly.rank());
    }
}
