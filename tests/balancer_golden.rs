//! Golden decision digests for the production SmartBalance passes.
//!
//! Each test runs a fixed workload under one balancer and folds every
//! epoch report's serialized bytes, then the final energy bits, into a
//! 64-bit FNV-1a digest. The constants pin the exact decisions: any
//! change to sensing, prediction, the objective arithmetic or the
//! optimizers that moves a single migration or a single bit of energy
//! changes the digest. A refactor that claims bit-identical behaviour
//! must leave both constants alone; a deliberate behaviour change
//! updates them in the same commit.

use archsim::Platform;
use kernelsim::{LoadBalancer, System, SystemConfig};
use smartbalance::{ShardConfig, ShardedBalancer, SmartBalance, SmartBalanceConfig};
use workloads::{SyntheticGenerator, WorkloadProfile};

/// Digest of the flat run below.
const FLAT_QUAD_DIGEST: u64 = 0x4f70_8df6_eaee_7464;
/// Digest of the sharded run below.
const SHARDED_CLUSTER_DIGEST: u64 = 0x1dbc_cd9f_04c1_ce55;

/// 64-bit FNV-1a.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Mixed synthetic tasks with staggered budgets, so threads exit
/// throughout the run and the balancer sees a changing population.
fn profiles(count: usize, seed: u64) -> Vec<WorkloadProfile> {
    let mut gen = SyntheticGenerator::new(seed);
    (0..count)
        .map(|i| {
            let budget = 1_000_000_000 * (1 + (i as u64 % 8));
            gen.profile(format!("t{i}"), 3, budget, i % 3 == 0)
        })
        .collect()
}

/// Runs `epochs` epochs and returns the digest of every report's JSON
/// bytes followed by the final `total_energy_j` bits.
fn digest_run(
    platform: &Platform,
    tasks: &[WorkloadProfile],
    balancer: &mut dyn LoadBalancer,
    epochs: usize,
) -> u64 {
    let mut sys = System::new(platform.clone(), SystemConfig::default());
    for p in tasks {
        sys.spawn(p.clone());
    }
    let mut h = Fnv64::new();
    for _ in 0..epochs {
        let report = sys.run_epoch(balancer);
        let json = serde_json::to_string(&report).expect("epoch report serializes");
        h.write(json.as_bytes());
    }
    h.write(&sys.stats().total_energy_j.to_bits().to_le_bytes());
    h.0
}

#[test]
fn flat_smartbalance_decisions_match_the_golden_digest() {
    let platform = Platform::quad_heterogeneous();
    let mut policy = SmartBalance::new(&platform);
    let digest = digest_run(&platform, &profiles(24, 0x601D), &mut policy, 200);
    assert_eq!(
        digest, FLAT_QUAD_DIGEST,
        "flat decisions changed: digest {digest:#018x}"
    );
}

#[test]
fn sharded_smartbalance_decisions_match_the_golden_digest() {
    let platform = Platform::clustered_heterogeneous(4, 16);
    let config = SmartBalanceConfig {
        shard: Some(ShardConfig {
            workers: 2,
            ..ShardConfig::default()
        }),
        ..SmartBalanceConfig::default()
    };
    let mut policy = ShardedBalancer::with_config(&platform, config);
    let digest = digest_run(&platform, &profiles(96, 0x5EED), &mut policy, 24);
    assert_eq!(
        digest, SHARDED_CLUSTER_DIGEST,
        "sharded decisions changed: digest {digest:#018x}"
    );
}
