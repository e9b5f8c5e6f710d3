//! Content-addressed campaign cells.
//!
//! A cell's identity is derived from what it *means* — the canonical
//! JSON of its spec, policy, execution overrides and seed — not from
//! where it sits in the grid. Reordering or extending a campaign
//! therefore never invalidates completed work: unchanged cells keep
//! their IDs and are skipped on resume.

use kernelsim::EngineKind;
use serde::{Deserialize, Serialize};
use smartbalance::{splitmix64, ExperimentSpec, Policy, ShardConfig, SuiteJob};

/// One campaign cell: an experiment spec bound to a policy, a
/// deterministic seed and optional engine/shard overrides, at a fixed
/// grid index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignJob {
    /// Position in the expanded grid; the seed's source and the
    /// report's ordering key.
    pub index: usize,
    /// The experiment to run.
    pub spec: ExperimentSpec,
    /// The balancing policy to run it under.
    pub policy: Policy,
    /// Deterministic seed (splitmix64 of the grid index by default) —
    /// part of the cell's identity, so retries replay the exact run.
    pub seed: u64,
    /// Slice-execution backend override, as in [`SuiteJob::engine`].
    pub engine: Option<EngineKind>,
    /// Hierarchical-sharding override, as in [`SuiteJob::shard`].
    pub shard: Option<ShardConfig>,
}

impl CampaignJob {
    /// Creates a cell at `index` with the suite's standard
    /// index-derived seed.
    pub fn new(index: usize, spec: ExperimentSpec, policy: Policy) -> Self {
        CampaignJob {
            index,
            spec,
            policy,
            seed: splitmix64(index as u64),
            engine: None,
            shard: None,
        }
    }

    /// Overrides the slice-execution backend (builder style).
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Enables hierarchical sharding (builder style).
    pub fn with_shard(mut self, shard: ShardConfig) -> Self {
        self.shard = Some(shard);
        self
    }

    /// The cell's content-addressed identity: 16 hex digits, stable
    /// across grid reordering, process restarts and machines.
    pub fn id(&self) -> String {
        job_id(&self.spec, self.policy, self.engine, self.shard, self.seed)
    }

    /// Lowers the cell to the suite's execution unit. Campaign cells
    /// run without traces or observability capture: those are
    /// per-investigation knobs, and keeping them out of the cell keeps
    /// journal entries small and identities stable.
    pub fn to_suite_job(&self) -> SuiteJob {
        SuiteJob {
            spec: self.spec.clone(),
            policy: self.policy,
            seed: self.seed,
            trace: None,
            observe: false,
            engine: self.engine,
            shard: self.shard,
        }
    }
}

/// Computes the content-addressed identity for a cell described by its
/// parts: FNV-1a 64 over the canonical JSON rendering, as 16 hex
/// digits. Serde derives emit fields in declaration order, so the
/// rendering — and therefore the hash — is deterministic.
pub fn job_id(
    spec: &ExperimentSpec,
    policy: Policy,
    engine: Option<EngineKind>,
    shard: Option<ShardConfig>,
    seed: u64,
) -> String {
    let canonical = format!(
        "{{\"spec\":{},\"policy\":{},\"engine\":{},\"shard\":{},\"seed\":{seed}}}",
        canonical_json(spec),
        canonical_json(&policy),
        canonical_json(&engine),
        canonical_json(&shard),
    );
    format!("{:016x}", fnv1a64(canonical.as_bytes()))
}

#[expect(
    clippy::expect_used,
    reason = "serializing in-memory plain-data structs cannot fail"
)]
fn canonical_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("plain data serializes")
}

/// FNV-1a, 64-bit: tiny, dependency-free and stable across platforms —
/// exactly what a content address needs (this is an identity, not a
/// defense against adversarial collisions).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use archsim::{Platform, WorkloadCharacteristics};
    use workloads::WorkloadProfile;

    fn spec(name: &str) -> ExperimentSpec {
        ExperimentSpec::new(
            name,
            Platform::quad_heterogeneous(),
            vec![WorkloadProfile::uniform(
                "t0",
                WorkloadCharacteristics::balanced(),
                1_000_000,
            )],
        )
        .with_max_epochs(20)
    }

    #[test]
    fn identity_is_stable_and_content_driven() {
        let a = CampaignJob::new(0, spec("x"), Policy::Vanilla);
        let b = CampaignJob::new(0, spec("x"), Policy::Vanilla);
        assert_eq!(a.id(), b.id(), "same content, same id");
        assert_eq!(a.id().len(), 16);
        assert!(a.id().chars().all(|c| c.is_ascii_hexdigit()));

        let other_policy = CampaignJob::new(0, spec("x"), Policy::Smart);
        assert_ne!(a.id(), other_policy.id(), "policy is part of identity");
        let other_spec = CampaignJob::new(0, spec("y"), Policy::Vanilla);
        assert_ne!(a.id(), other_spec.id(), "spec is part of identity");
        let other_seed = CampaignJob::new(1, spec("x"), Policy::Vanilla);
        assert_ne!(a.id(), other_seed.id(), "seed is part of identity");
        let other_engine =
            CampaignJob::new(0, spec("x"), Policy::Vanilla).with_engine(EngineKind::Batched);
        assert_ne!(a.id(), other_engine.id(), "engine is part of identity");
    }

    #[test]
    fn identity_ignores_grid_position() {
        // Same content at a different index but with the seed pinned:
        // the id must not change, which is what lets a reordered or
        // extended grid keep its completed cells on resume.
        let a = CampaignJob::new(3, spec("x"), Policy::Vanilla);
        let mut moved = CampaignJob::new(9, spec("x"), Policy::Vanilla);
        moved.seed = a.seed;
        assert_eq!(a.id(), moved.id());
    }

    #[test]
    fn fnv_vector() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
