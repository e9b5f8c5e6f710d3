//! The hierarchical sharded balancer: per-cluster annealers in
//! parallel plus a global exchange stage, for 256–4096-core platforms.
//!
//! Flat [`SmartBalance`] rebuilds an `m × n` dense problem every epoch
//! and anneals over all cores at once — fine at 4–32 cores, painful at
//! 1024. [`ShardedBalancer`] reuses the exact same sensing front half
//! ([`SmartBalance::preamble`]), then:
//!
//! 1. partitions the sensed threads by the cluster of their current
//!    core ([`kernelsim::Topology`]),
//! 2. anneals each cluster independently — an `m_c × n_c` problem over
//!    cluster-local matrices — on a deterministic scoped worker pool
//!    (per-cluster splitmix64 seeds, index-ordered collection: results
//!    never depend on the worker count),
//! 3. runs a global *exchange* stage that moves the top-K most
//!    misplaced threads per cluster toward the least-loaded core of a
//!    better cluster, each candidate evaluated as an O(1) incremental
//!    objective patch ([`crate::shard::ExchangeState`]) — never a full
//!    re-evaluation.
//!
//! With sharding disabled (`config.shard == None` the policy layer
//! never constructs this type), the flat path is untouched and remains
//! bit-identical to every previous release.

use archsim::{CoreId, CoreTypeId, Platform};
use kernelsim::{Allocation, ClusterId, EpochReport, LoadBalancer, Topology};
use mcpat::CorePowerModel;
use telemetry::TelemetryHandle;

use crate::anneal::{anneal, AnnealOutcome, AnnealParams};
use crate::balance::smart::{migrations, PreambleOutcome, SmartBalance};
use crate::config::SmartBalanceConfig;
use crate::estimate::{rate_matrices, TypeRates};
use crate::objective::Objective;
use crate::sense::ThreadSense;
use crate::shard::{mask_allows, ExchangeState, ShardConfig};
use crate::suite::{default_workers, parallel_indexed, splitmix64};

/// One cluster's self-contained anneal problem: partitioned serially,
/// its matrices built and solved on the worker pool.
struct ClusterProblem {
    /// Cluster index in the topology.
    cluster: usize,
    /// Global core ids backing the local columns (online cores only).
    columns: Vec<CoreId>,
    /// `(sense index, cluster-local affinity mask)` of each local row.
    rows: Vec<(usize, u64)>,
    /// Local initial allocation (current column of each row).
    initial: Vec<usize>,
    params: AnnealParams,
    seed: u32,
    /// Cluster-local slice of the global per-core weights, if any.
    weights: Option<Vec<f64>>,
}

/// SmartBalance behind a cluster decomposition: Algorithm 1 per
/// cluster, in parallel, then a sublinear cross-cluster exchange.
///
/// Constructed by the policy layer when
/// [`SmartBalanceConfig::shard`] is `Some(..)`; behaves exactly like
/// [`SmartBalance`] through the degradation ladder (LoadOnly /
/// PredictFree epochs take the same shared fallback paths).
pub struct ShardedBalancer {
    inner: SmartBalance,
    shard: ShardConfig,
    topology: Topology,
    /// Per-core sleep power, cached once (identical to what
    /// [`crate::estimate::build_matrices`] computes every epoch).
    sleep_power_w: Vec<f64>,
}

impl ShardedBalancer {
    /// Creates a sharded balancer with default configuration for the
    /// given platform.
    pub fn new(platform: &Platform) -> Self {
        Self::with_config(platform, SmartBalanceConfig::default())
    }

    /// Creates a sharded balancer with explicit configuration
    /// (`config.shard` of `None` just means [`ShardConfig::default`]).
    pub fn with_config(platform: &Platform, config: SmartBalanceConfig) -> Self {
        let shard = config.shard.unwrap_or_default();
        let topology = Topology::from_platform(platform);
        let sleep_power_w = platform
            .cores()
            .map(|c| CorePowerModel::calibrated(platform.core_config(c)).sleep_power_w())
            .collect();
        ShardedBalancer {
            inner: SmartBalance::with_config(platform, config),
            shard,
            topology,
            sleep_power_w,
        }
    }

    /// The wrapped flat balancer (sensing, degradation and prediction
    /// state live there).
    pub fn inner(&self) -> &SmartBalance {
        &self.inner
    }

    /// The shard configuration in effect.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.shard
    }

    /// The cluster topology the balancer shards over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The hierarchical back half: per-cluster anneal fan-out plus the
    /// global exchange stage.
    fn sharded_balance(
        &mut self,
        platform: &Platform,
        senses: &[ThreadSense],
        ipc_rows: &[Vec<f64>],
        online: &[bool],
    ) -> Option<Allocation> {
        let goal = self.inner.config().goal;
        let m = senses.len();
        let n = platform.num_cores();

        // Compact per-type characterization rows: O(m·q) memory where
        // the flat path's dense matrices are O(m·n).
        let rates: Vec<TypeRates> = senses
            .iter()
            .zip(ipc_rows)
            .map(|(s, row)| TypeRates::build(platform, s, row, self.inner.predictors()))
            .collect();
        // The exact clamp CharacterizationMatrices applies.
        let util: Vec<f64> = senses
            .iter()
            .map(|s| s.utilization.clamp(1.0e-3, 1.0))
            .collect();
        let types: Vec<CoreTypeId> = platform.cores().map(|c| platform.core_type(c)).collect();

        // --- Partition threads by the cluster of their current core --
        let clusters = self.topology.num_clusters();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); clusters];
        let mut movable = vec![false; m];
        for (i, s) in senses.iter().enumerate() {
            if s.core.0 >= n || !online[s.core.0] {
                // A thread stranded on an offline (or phantom) core is
                // left alone this epoch; the kernel will re-home it.
                continue;
            }
            groups[self.topology.cluster_of(s.core).0].push(i);
            movable[i] = !self.inner.is_quarantined(s.task);
        }

        // --- Partition into one anneal problem per non-empty cluster --
        let epoch_seed = self.inner.next_epoch_seed();
        let global_weights = self.inner.effective_core_weights(platform);
        let mut col_of = vec![usize::MAX; n];
        let mut problems: Vec<ClusterProblem> = Vec::new();
        for (c, rows) in groups.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let columns: Vec<CoreId> = self
                .topology
                .cores_of(ClusterId(c))
                .iter()
                .copied()
                .filter(|&core| online[core.0])
                .collect();
            // Rows only exist for threads whose current core is online
            // and in this cluster, so `columns` cannot be empty.
            for (j, &core) in columns.iter().enumerate() {
                col_of[core.0] = j;
            }
            let wide = columns.len() > 64;
            // Translate each thread's global affinity mask into the
            // cluster-local column space (same bit semantics as the
            // dense matrices); threads whose constraint cannot be
            // expressed locally are pinned or skipped.
            let mut kept: Vec<(usize, u64)> = Vec::new();
            for &i in rows {
                let cur = col_of[senses[i].core.0];
                let mask = if !wide {
                    let mut mk = 0u64;
                    if movable[i] {
                        for (j, &core) in columns.iter().enumerate() {
                            if mask_allows(senses[i].allowed, core.0) {
                                mk |= 1 << j;
                            }
                        }
                    }
                    // The current column is always representable —
                    // the same never-empty discipline the flat mask
                    // constriction applies.
                    mk | (1 << cur)
                } else if movable[i] && senses[i].allowed == u64::MAX {
                    u64::MAX
                } else if cur < 64 {
                    1 << cur
                } else {
                    // Quarantined/affine thread beyond bit 63 of a
                    // >64-core cluster: no expressible pin, leave it be.
                    continue;
                };
                kept.push((i, mask));
            }
            if kept.is_empty() {
                continue;
            }
            let initial = kept
                .iter()
                .map(|&(i, _)| col_of[senses[i].core.0])
                .collect();
            let params = self
                .inner
                .config()
                .anneal
                .unwrap_or_else(|| AnnealParams::scaled_for(columns.len(), kept.len()));
            // Per-cluster seed derived from the epoch seed: identical
            // regardless of which worker solves which cluster.
            let seed = splitmix64((u64::from(epoch_seed) << 32) | c as u64) as u32;
            let weights = global_weights
                .as_ref()
                .map(|w| columns.iter().map(|&core| w[core.0]).collect());
            problems.push(ClusterProblem {
                cluster: c,
                columns,
                rows: kept,
                initial,
                params,
                seed,
                weights,
            });
        }

        if problems.is_empty() {
            self.inner.set_last_outcome(None);
            return None;
        }

        // --- Parallel per-cluster matrices and anneal ------------------
        let workers = if self.shard.workers == 0 {
            default_workers()
        } else {
            self.shard.workers
        };
        let outcomes: Vec<AnnealOutcome> = parallel_indexed(problems.len(), workers, |idx| {
            let p = &problems[idx];
            let sleep_w = &self.sleep_power_w;
            let matrices = rate_matrices(platform, &p.columns, sleep_w, &p.rows, senses, &rates);
            let mut objective = Objective::new(&matrices, goal);
            if let Some(w) = &p.weights {
                objective = objective.with_weights(w.clone());
            }
            anneal(&objective, &p.initial, p.params, p.seed)
        });

        // --- Global exchange stage ------------------------------------
        // Replay the per-cluster results onto an incrementally
        // maintained *global* objective, then move the most misplaced
        // threads across cluster boundaries while each move pays.
        let current: Vec<usize> = senses.iter().map(|s| s.core.0).collect();
        let ones = vec![1.0; n];
        let mut state = ExchangeState::new(
            goal,
            &rates,
            &util,
            &types,
            &self.sleep_power_w,
            global_weights.as_deref().unwrap_or(&ones),
            &current,
        );
        let initial_total = state.value();
        // Replay each cluster's annealed allocation onto the global
        // objective, keeping it only when it pays globally: under the
        // ratio goals a locally better cluster can still drag the
        // system aggregate down, and the contract is that sharding
        // never regresses the objective it reports.
        for (p, out) in problems.iter().zip(&outcomes) {
            let mut applied: Vec<(usize, usize)> = Vec::new();
            let mut net = 0.0;
            for (r, &(i, _)) in p.rows.iter().enumerate() {
                let dest = p.columns[out.allocation[r]].0;
                let from = state.core_of(i);
                if dest != from {
                    net += state.commit_move(i, dest);
                    applied.push((i, from));
                }
            }
            if net < 0.0 {
                for &(i, from) in applied.iter().rev() {
                    state.commit_move(i, from);
                }
            }
        }

        // Least-loaded online core per cluster (deterministic: strict
        // load-then-index ordering), refreshed after each commit.
        let least_loaded = |state: &ExchangeState<'_>, c: usize| -> Option<CoreId> {
            self.topology
                .cores_of(ClusterId(c))
                .iter()
                .copied()
                .filter(|&core| online[core.0])
                .min_by(|a, b| {
                    state
                        .load_of(a.0)
                        .total_cmp(&state.load_of(b.0))
                        .then(a.0.cmp(&b.0))
                })
        };
        let mut least: Vec<Option<CoreId>> =
            (0..clusters).map(|c| least_loaded(&state, c)).collect();
        // Thread i's cluster and its best hop: the foreign cluster's
        // least-loaded allowed core with the largest delta (the first on
        // a tie), the thread lifted off its core once for the scan.
        let best_hop = |state: &ExchangeState<'_>, least: &[Option<CoreId>], i: usize| {
            let from = self.topology.cluster_of(CoreId(state.core_of(i))).0;
            let lifted = state.lift(i);
            let mut best: Option<(f64, CoreId)> = None;
            for (c, dest) in least.iter().enumerate() {
                let Some(dest) = *dest else { continue };
                if c == from || !mask_allows(senses[i].allowed, dest.0) {
                    continue;
                }
                let delta = state.delta_onto(&lifted, dest.0);
                if best.is_none_or(|(bd, _)| delta > bd) {
                    best = Some((delta, dest));
                }
            }
            (from, best.filter(|&(delta, _)| delta > self.shard.min_gain))
        };

        // Exchange stage: up to `exchange_rounds` rounds, each picking
        // per cluster the top-K threads by the aggregate-objective gain
        // of hopping to a foreign cluster's least-loaded core —
        // delta-GIPS/W per candidate, each an O(1) incremental patch
        // (never a full re-evaluation). This scores both type mismatch
        // ("compute work stuck on little cores") and overload relief
        // ("a saturated cluster next to an idle one") with the same
        // number the annealer optimizes. The stage stops early the
        // first round nothing pays.
        let mut exchange_moves: u64 = 0;
        let mut exchange_candidates: u64 = 0;
        for _round in 0..self.shard.exchange_rounds {
            // Selection against each thread's *current* cluster (it
            // may have hopped in an earlier round).
            let mut per_cluster: Vec<Vec<(f64, usize)>> = vec![Vec::new(); clusters];
            for i in (0..m).filter(|&i| movable[i]) {
                if let (c, Some((gain, _))) = best_hop(&state, &least, i) {
                    per_cluster[c].push((gain, i));
                }
            }
            let mut candidates: Vec<(f64, usize)> = Vec::new();
            for scored in &mut per_cluster {
                scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                scored.truncate(self.shard.exchange_top_k);
                candidates.extend(scored.iter().copied());
            }
            if candidates.is_empty() {
                break;
            }
            candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            exchange_candidates += candidates.len() as u64;

            let mut round_moves: u64 = 0;
            for &(_, i) in &candidates {
                if let (from_cluster, Some((_, dest))) = best_hop(&state, &least, i) {
                    let to_cluster = self.topology.cluster_of(dest).0;
                    state.commit_move(i, dest.0);
                    round_moves += 1;
                    // Only the two touched clusters' load minima moved.
                    least[from_cluster] = least_loaded(&state, from_cluster);
                    least[to_cluster] = least_loaded(&state, to_cluster);
                }
            }
            exchange_moves += round_moves;
            if round_moves == 0 {
                break;
            }
        }

        // --- Emit the diff and the books ------------------------------
        let final_alloc: Vec<usize> = (0..m).map(|i| state.core_of(i)).collect();
        let final_total = state.value();
        let total_iterations: u64 = outcomes.iter().map(|o| u64::from(o.iterations)).sum();
        let total_accepted: u64 = outcomes
            .iter()
            .map(|o| u64::from(o.accepted_moves))
            .sum::<u64>()
            + exchange_moves;
        if let Some(tel) = self.inner.telemetry_handle() {
            let mut tel = tel.borrow_mut();
            // Predict-stage work = per-cluster matrix cells actually
            // materialized: Σ rows × columns over the solved problems.
            let predict_cells: u64 = problems
                .iter()
                .map(|p| (p.rows.len() * p.columns.len()) as u64)
                .sum();
            tel.record_stage("predict", predict_cells);
            tel.record_anneal(total_iterations, total_accepted, initial_total, final_total);
            for (p, out) in problems.iter().zip(&outcomes) {
                tel.record_shard_anneal(
                    p.cluster as u64,
                    u64::from(out.iterations),
                    u64::from(out.accepted_moves),
                    out.objective,
                );
            }
            tel.record_shard_exchange(problems.len() as u64, exchange_candidates, exchange_moves);
            // Forecast next epoch from the compact rows.
            for (i, sense) in senses.iter().enumerate() {
                let t = types[final_alloc[i]];
                tel.record_prediction(
                    sense.task.0 as u64,
                    final_alloc[i] as u64,
                    rates[i].ips(t),
                    rates[i].power_w(t),
                );
            }
        }
        let moves = migrations(senses, &final_alloc);
        self.inner.set_last_outcome(Some(AnnealOutcome {
            allocation: final_alloc,
            objective: final_total,
            initial_objective: initial_total,
            // Sums fit u32 comfortably (≤4000 iterations × 64 clusters)
            // but saturate defensively.
            iterations: u32::try_from(total_iterations).unwrap_or(u32::MAX),
            accepted_moves: u32::try_from(total_accepted).unwrap_or(u32::MAX),
        }));
        moves
    }
}

impl LoadBalancer for ShardedBalancer {
    fn name(&self) -> &str {
        "smartbalance-sharded"
    }

    fn attach_telemetry(&mut self, handle: &TelemetryHandle) {
        self.inner.set_telemetry_handle(handle);
    }

    fn rebalance(&mut self, platform: &Platform, report: &EpochReport) -> Option<Allocation> {
        match self.inner.preamble(platform, report) {
            PreambleOutcome::Skip(alloc) => alloc,
            PreambleOutcome::Proceed {
                senses,
                ipc_rows,
                online,
            } => self.sharded_balance(platform, &senses, &ipc_rows, &online),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::WorkloadCharacteristics;
    use kernelsim::{System, SystemConfig};
    use workloads::WorkloadProfile;

    fn mixed_system(platform: &Platform, tasks: usize) -> System {
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        for k in 0..tasks {
            let w = match k % 3 {
                0 => WorkloadCharacteristics::compute_bound(),
                1 => WorkloadCharacteristics::memory_bound(),
                _ => WorkloadCharacteristics::balanced(),
            };
            sys.spawn_on(
                WorkloadProfile::uniform(format!("t{k}"), w, u64::MAX / 8),
                CoreId(k % platform.num_cores()),
            );
        }
        sys
    }

    /// The sharded balancer runs end-to-end on a clustered platform
    /// and improves achieved efficiency over the initial scatter.
    #[test]
    fn sharded_balancer_runs_on_clustered_platform() {
        let platform = Platform::clustered_heterogeneous(8, 8);
        let mut sys = mixed_system(&platform, 96);
        let mut policy = ShardedBalancer::new(&platform);
        for _ in 0..6 {
            sys.run_epoch(&mut policy);
        }
        let outcome = policy.inner().last_outcome().expect("annealed");
        assert!(outcome.iterations > 0);
        assert!(
            outcome.objective >= outcome.initial_objective,
            "anneal + exchange never regress the objective"
        );
        assert!(sys.stats().migrations > 0, "work actually moved");
    }

    /// Exchange moves exist and cross cluster boundaries when threads
    /// start in the wrong cluster for their character.
    #[test]
    fn exchange_crosses_cluster_boundaries() {
        let platform = Platform::clustered_heterogeneous(4, 4);
        let mut sys = System::new(platform.clone(), SystemConfig::default());
        // All compute-bound work dumped on the weakest (last) cluster.
        for k in 0..8 {
            sys.spawn_on(
                WorkloadProfile::uniform(
                    format!("c{k}"),
                    WorkloadCharacteristics::compute_bound(),
                    u64::MAX / 8,
                ),
                CoreId(12 + (k % 4)),
            );
        }
        let mut policy = ShardedBalancer::new(&platform);
        for _ in 0..8 {
            sys.run_epoch(&mut policy);
        }
        assert!(
            sys.stats().cross_cluster_migrations > 0,
            "misplaced compute work must escape the small cluster"
        );
    }

    /// The balancer shards over the platform's own cluster topology.
    /// (Quarantine pinning through the shards is covered by
    /// `quarantined_threads_never_migrate_sharded` in `tests/faults.rs`.)
    #[test]
    fn topology_is_cached_from_the_platform() {
        let platform = Platform::clustered_heterogeneous(4, 16);
        let policy = ShardedBalancer::new(&platform);
        assert_eq!(policy.topology().num_clusters(), 4);
        assert_eq!(policy.topology().num_cores(), 64);
        assert_eq!(policy.shard_config().exchange_top_k, 4);
    }
}
