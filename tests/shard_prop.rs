//! Property guard for the conservative-lookahead invariant.
//!
//! The sharded runner is safe because a message created at a barrier `T`
//! is delivered at `T + latency`, and the synchronisation window never
//! exceeds the inter-pool latency — so no shard can receive an
//! event from another shard's not-yet-simulated past. The property: for
//! *any* window that respects the lookahead bound, the merged trace is a
//! pure function of the inputs — worker thread count never reorders it —
//! and a one-pool topology reproduces the classic serial runner bit for
//! bit, its whole output included.
//!
//! The recorded trace and attached sinks read one merged stream, so a
//! sink on a pooled run sees exactly the trace's events.
//!
//! The vendored proptest stub does not shrink, so the minimal interesting
//! configuration (two pools, window exactly equal to the latency) is also
//! pinned as an explicit deterministic test.

use condor::prelude::*;
use condor::workload::scenarios::paper_month;
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
    let config = pooled_config(pools, window_secs, latency_secs, seed, policy);
    let out =
        Run::new(config)
            .specs(workload(12, 8))
            .horizon(SimDuration::from_days(2))
            .threads(threads)
            .execute();
    out.trace.events().to_vec()
}

fn pooled_config(
    pools: usize,
    window_secs: u64,
    latency_secs: u64,
    seed: u64,
    policy: PolicyKind,
) -> ClusterConfig {
    ClusterConfig {
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
    }
}

/// Where two values' pretty-printed `Debug` texts first part, if they do:
/// a failure message that names the first differing line instead of
/// printing two whole runs.
fn first_difference<T: std::fmt::Debug + ?Sized>(a: &T, b: &T) -> Option<String> {
    let (a, b) = (format!("{a:#?}"), format!("{b:#?}"));
    let (mut a, mut b) = (a.lines(), b.lines());
    let mut line = 0;
    loop {
        line += 1;
        match (a.next(), b.next()) {
            (None, None) => return None,
            (x, y) if x != y => return Some(format!("line {line}: {x:?} vs {y:?}")),
            _ => {}
        }
    }
}

/// Executes `run` with a [`VecSink`] attached, returning the output and
/// what the sink received.
fn run_with_sink(run: Run) -> (RunOutput, Vec<TraceEvent>) {
    let sink = SharedSink::new(VecSink::new());
    let out = run.sink(Box::new(sink.clone())).execute();
    let seen = sink.with(|s| s.events().to_vec());
    (out, seen)
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
    /// `run_until` calls, the merge and all: the whole output (its `Debug`
    /// text), traced or not, with or without a sink, and what the sink saw.
    #[test]
    fn one_pool_topology_equals_the_serial_runner(
        latency_secs in 60u64..600,
        seed in 0u64..1_000,
    ) {
        for record_trace in [true, false] {
            let pooled = pooled_config(1, latency_secs, latency_secs, seed, PolicyKind::default());
            let pooled = ClusterConfig { record_trace, ..pooled };
            let serial = ClusterConfig { topology: None, ..pooled.clone() };
            let days_2 = |config: &ClusterConfig| {
                Run::new(config.clone()).specs(workload(12, 8)).horizon(SimDuration::from_days(2))
            };
            let serial_run = || days_2(&serial);
            let sharded_run = || days_2(&pooled).threads(4);
            let (serial, sharded) = (serial_run().execute(), sharded_run().execute());
            prop_assert_eq!(first_difference(&serial, &sharded), None);
            let (serial, serial_seen) = run_with_sink(serial_run());
            let (sharded, sharded_seen) = run_with_sink(sharded_run());
            prop_assert_eq!(first_difference(&serial, &sharded), None);
            prop_assert_eq!(first_difference(&serial_seen, &sharded_seen), None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The recorded trace is one consumer of the per-window merge and an
    /// attached sink another, so at any pool count, under Up-Down and
    /// under replicas, at one thread or two, the sink receives exactly
    /// `out.trace.events()` — barrier-instant and horizon events included —
    /// and as many events as the run's telemetry counted.
    #[test]
    fn a_pooled_sink_sees_exactly_the_recorded_trace(
        latency_secs in 60u64..600,
        seed in 0u64..1_000,
    ) {
        for pools in 1..=4 {
            for policy in [PolicyKind::UpDown, PolicyKind::Redundant] {
                for threads in [1, 2] {
                    let config = pooled_config(pools, latency_secs, latency_secs, seed, policy);
                    let run = Run::new(config)
                        .specs(workload(12, 8))
                        .horizon(SimDuration::from_days(2))
                        .threads(threads);
                    let (out, seen) = run_with_sink(run);
                    let at = format!("{pools} pools, {policy:?}, {threads} threads");
                    let trace = out.trace.events();
                    prop_assert!(seen == trace, "{at}: {:?}", first_difference(&seen[..], trace));
                    prop_assert_eq!(seen.len() as u64, out.telemetry.events_total, "{}", at);
                }
            }
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

/// The paper month in four pools over three days at 2 threads, where the
/// sink stream and the trace once parted: under replicas the trace ends
/// with the two `ReplicaCancelled` events the horizon emits, and under
/// Up-Down a `JobForwarded` stamped at a barrier instant follows another
/// pool's placement and poll at that millisecond, which ran in the next
/// window. The sink must see both exactly as the trace records them.
#[test]
fn a_pooled_month_hands_its_sinks_the_recorded_trace() {
    let run = |policy| {
        let mut s = paper_month(7);
        s.config.policy = policy;
        s.config.topology = Some(PoolTopology::uniform(4, SimDuration::from_secs(300)));
        let run = Run::new(s.config).specs(s.jobs).horizon(SimDuration::from_days(3));
        run_with_sink(run.threads(2))
    };
    let horizon = SimTime::ZERO + SimDuration::from_days(3);

    let (out, seen) = run(PolicyKind::Redundant);
    let trace = out.trace.events();
    assert_eq!((trace.len(), out.telemetry.events_total), (11_502, 11_502));
    for ev in &trace[11_500..] {
        assert!(matches!(ev.kind, TraceKind::ReplicaCancelled { .. }), "{ev:?}");
        assert_eq!(ev.at, horizon);
    }
    assert!(seen == trace, "replicas: {:?}", first_difference(&seen[..], trace));

    let (out, seen) = run(PolicyKind::UpDown);
    let trace = out.trace.events();
    assert_eq!((trace.len(), out.telemetry.events_total), (11_345, 11_345));
    let (placed, forwarded) = (trace[10_977], trace[10_980]);
    assert!(matches!(placed.kind, TraceKind::PlacementStarted { .. }), "{placed:?}");
    assert!(matches!(forwarded.kind, TraceKind::JobForwarded { .. }), "{forwarded:?}");
    assert_eq!(placed.at, forwarded.at, "no longer a barrier instant");
    assert!(seen == trace, "Up-Down: {:?}", first_difference(&seen[..], trace));
}
