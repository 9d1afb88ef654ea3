//! Determinism properties of the replication harness.
//!
//! The parallel path must be indistinguishable from the serial one — not
//! "statistically equivalent", but bit-for-bit: thread scheduling may not
//! leak into any reported digit. And the simulation itself must be a pure
//! function of (config, jobs, horizon): running it twice gives identical
//! results, which is what makes seed-order aggregation sufficient for
//! reproducibility.

use condor_core::cluster::Run;
use condor_core::config::ClusterConfig;
use condor_core::job::{JobId, JobSpec, UserId};
use condor_metrics::replicate::{par_map, replicate, replicate_par, MeanCi};
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// A small but non-trivial cluster run: enough jobs and machines for
/// preemptions and migrations to occur within a short horizon.
fn run_small(seed: u64) -> condor_core::cluster::RunOutput {
    let jobs: Vec<JobSpec> = (0..12)
        .map(|i| JobSpec {
            image_bytes: 400_000,
            ..JobSpec::new(
                JobId(i),
                UserId((i % 3) as u32),
                NodeId::new((i % 4) as u32),
                SimTime::ZERO + SimDuration::from_minutes(i * 17),
                SimDuration::from_hours(1 + i % 5),
            )
        })
        .collect();
    let config = ClusterConfig {
        stations: 4,
        seed,
        ..ClusterConfig::default()
    };
    Run::new(config).specs(jobs).horizon(SimDuration::from_days(2)).execute()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// replicate_par over real cluster runs is bit-identical to the serial
    /// replicate: same mean, same half-width, same n.
    #[test]
    fn parallel_replication_matches_serial(
        raw_seeds in prop::collection::vec(0u64..1_000_000, 1..6),
    ) {
        let metric = |seed: u64| {
            let out = run_small(seed);
            out.totals.migrations as f64 + out.totals.preemptions_owner as f64 * 0.25
        };
        let serial = replicate(&raw_seeds, metric);
        let parallel = replicate_par(&raw_seeds, metric);
        prop_assert_eq!(serial.mean.to_bits(), parallel.mean.to_bits());
        prop_assert_eq!(serial.half_width.to_bits(), parallel.half_width.to_bits());
        prop_assert_eq!(serial.n, parallel.n);
    }

    /// par_map preserves item order no matter how items land on workers.
    #[test]
    fn par_map_is_order_preserving(xs in prop::collection::vec(any::<u64>(), 0..64)) {
        let doubled = par_map(&xs, |&x| x.wrapping_mul(2));
        prop_assert_eq!(doubled, xs.iter().map(|x| x.wrapping_mul(2)).collect::<Vec<_>>());
    }

    /// The simulation is a pure function of its inputs: the same seed run
    /// twice yields identical aggregate counters and event counts.
    #[test]
    fn cluster_run_is_deterministic(seed in 0u64..100_000) {
        let a = run_small(seed);
        let b = run_small(seed);
        prop_assert_eq!(a.totals, b.totals);
        prop_assert_eq!(a.events_dispatched, b.events_dispatched);
        prop_assert_eq!(a.bus_bytes_moved, b.bus_bytes_moved);
        prop_assert_eq!(a.jobs.len(), b.jobs.len());
        for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
            prop_assert_eq!(ja.state, jb.state);
            prop_assert_eq!(ja.completed_at, jb.completed_at);
        }
    }
}

#[test]
fn mean_ci_display_is_stable() {
    let ci = MeanCi::from_values(&[2.0, 4.0, 6.0, 8.0]);
    assert_eq!(ci.n, 4);
    assert!(format!("{ci}").starts_with("5.00 ± "));
}
