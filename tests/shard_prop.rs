//! Property guard for the conservative-lookahead invariant.
//!
//! The sharded runner is safe because a message created at a barrier `T`
//! is delivered at `T + latency`, and the synchronisation window never
//! exceeds the inter-pool latency — so no shard can receive an
//! event from another shard's not-yet-simulated past. The property: for
//! *any* window that respects the lookahead bound, the merged trace is a
//! pure function of the inputs — worker thread count never reorders it —
//! and a one-pool topology reproduces the classic serial runner bit for
//! bit.
//!
//! The vendored proptest stub does not shrink, so the minimal interesting
//! configuration (two pools, window exactly equal to the latency) is also
//! pinned as an explicit deterministic test.

use condor::prelude::*;
use proptest::prelude::*;

fn workload(n: u64, stations: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            image_bytes: 300_000,
            ..JobSpec::new(
                JobId(i),
                UserId((i % 3) as u32),
                NodeId::new((i % stations) as u32),
                SimTime::from_secs(900 * i),
                SimDuration::from_hours(3),
            )
        })
        .collect()
}

fn sharded_trace(
    pools: usize,
    window_secs: u64,
    latency_secs: u64,
    threads: usize,
    seed: u64,
) -> Vec<TraceEvent> {
    sharded_policy_trace(pools, window_secs, latency_secs, threads, seed, PolicyKind::default())
}

fn sharded_policy_trace(
    pools: usize,
    window_secs: u64,
    latency_secs: u64,
    threads: usize,
    seed: u64,
    policy: PolicyKind,
) -> Vec<TraceEvent> {
    let config = ClusterConfig {
        stations: 8,
        seed,
        policy,
        topology: Some(PoolTopology {
            pools,
            latency: SimDuration::from_secs(latency_secs),
            window: Some(SimDuration::from_secs(window_secs)),
            max_forwards_per_window: 2,
        }),
        ..ClusterConfig::default()
    };
    let out =
        Run::new(config)
            .specs(workload(12, 8))
            .horizon(SimDuration::from_days(2))
            .threads(threads)
            .execute();
    out.trace.events().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any pool count and any window within the lookahead bound, the
    /// parallel run's merged trace equals the single-threaded run's — the
    /// conservative window means thread scheduling can never reorder it.
    #[test]
    fn windows_within_the_lookahead_are_thread_invariant(
        pools in 1usize..=4,
        latency_secs in 60u64..600,
        divisor in 1u64..=4,
        seed in 0u64..1_000,
    ) {
        let window_secs = (latency_secs / divisor).max(1);
        let serial = sharded_trace(pools, window_secs, latency_secs, 1, seed);
        let parallel = sharded_trace(pools, window_secs, latency_secs, 4, seed);
        prop_assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            prop_assert_eq!(a, b);
        }
    }

    /// A one-pool topology must not merely be self-consistent — it must
    /// reproduce the classic monolithic runner exactly, windowed
    /// `run_until` calls and all.
    #[test]
    fn one_pool_topology_equals_the_serial_runner(
        latency_secs in 60u64..600,
        seed in 0u64..1_000,
    ) {
        let legacy = {
            let config = ClusterConfig { stations: 8, seed, ..ClusterConfig::default() };
            Run::new(config).specs(workload(12, 8)).horizon(SimDuration::from_days(2)).execute()
        };
        let sharded = sharded_trace(1, latency_secs, latency_secs, 4, seed);
        prop_assert_eq!(legacy.trace.len(), sharded.len());
        for (a, b) in legacy.trace.events().iter().zip(&sharded) {
            prop_assert_eq!(a, b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The replica lifecycle (spawn, arrival, cancel-on-first-finish,
    /// demand reclaim) rides the same event grid as everything else, so an
    /// armed redundancy policy must stay thread-invariant through the
    /// sharded runner: worker count changes how many shards advance
    /// concurrently, never what any shard computes.
    #[test]
    fn redundancy_armed_shards_are_thread_invariant(
        pools in 1usize..=3,
        latency_secs in 60u64..600,
        seed in 0u64..1_000,
    ) {
        let policy = PolicyKind::Redundant;
        let serial =
            sharded_policy_trace(pools, latency_secs, latency_secs, 1, seed, policy);
        let parallel = sharded_policy_trace(pools, latency_secs, latency_secs, 4, seed, policy);
        prop_assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            prop_assert_eq!(a, b);
        }
    }
}

/// The minimal interesting configuration, pinned deterministically: two
/// pools, window exactly at the lookahead bound (the tightest legal
/// window), forwarding enabled. This is what a shrinker would converge to
/// if the conservative invariant ever broke.
#[test]
fn two_pools_at_the_exact_lookahead_bound_stay_deterministic() {
    let mut reference: Option<Vec<TraceEvent>> = None;
    for threads in [1usize, 2] {
        let trace = sharded_trace(2, 300, 300, threads, 1988);
        assert!(!trace.is_empty());
        match &reference {
            None => reference = Some(trace),
            Some(r) => assert_eq!(&trace, r, "two-pool trace diverged at {threads} threads"),
        }
    }
}
