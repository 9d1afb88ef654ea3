//! Property-based tests over randomly generated workloads and owner
//! behaviours: conservation laws and determinism must hold for *any*
//! configuration, not just the paper's.

use condor::prelude::*;
use condor_model::diurnal::DiurnalProfile;
use condor_model::owner::OwnerConfig;
use proptest::prelude::*;

fn arb_jobs(max_jobs: usize, stations: u32) -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            0u32..5,               // user
            0u32..stations,        // home
            0u64..72,              // arrival hour
            1u64..20,              // demand hours
            100_000u64..2_000_000, // image bytes
            0.0f64..5.0,           // syscall rate
        ),
        1..max_jobs,
    )
    .prop_map(|raw| {
        let mut jobs: Vec<JobSpec> = raw
            .into_iter()
            .map(|(user, home, arr, demand, image, rate)| JobSpec {
                image_bytes: image,
                syscalls_per_cpu_sec: rate,
                ..JobSpec::new(
                    JobId(0), // assigned below
                    UserId(user),
                    NodeId::new(home),
                    SimTime::from_hours(arr),
                    SimDuration::from_hours(demand),
                )
            })
            .collect();
        jobs.sort_by_key(|j| j.arrival);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = JobId(i as u64);
        }
        jobs
    })
}

fn config(seed: u64, stations: usize, activity: f64) -> ClusterConfig {
    ClusterConfig {
        stations,
        seed,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(activity),
            ..OwnerConfig::default()
        },
        ..ClusterConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: completed jobs did exactly their demand; gross remote
    /// consumption covers net work; leverage and wait ratios are sane.
    #[test]
    fn conservation_laws_hold(
        jobs in arb_jobs(20, 4),
        seed in 0u64..1_000,
        activity in 0.05f64..0.6,
    ) {
        let out = Run::new(config(seed, 4, activity))
            .specs(jobs)
            .horizon(SimDuration::from_days(14))
            .execute();
        for j in &out.jobs {
            prop_assert!(j.remote_cpu >= j.work_done.saturating_sub(SimDuration::MILLISECOND));
            if j.state == JobState::Completed {
                prop_assert_eq!(j.work_done, j.spec.demand);
                let turnaround = j.turnaround().unwrap();
                prop_assert!(turnaround >= j.spec.demand);
                if let Some(w) = j.wait_ratio() {
                    prop_assert!(w >= 0.0);
                }
                if let Some(l) = j.leverage() {
                    prop_assert!(l > 0.0);
                }
                prop_assert!(j.placements >= 1);
            }
            // Grace strategy never loses work.
            prop_assert_eq!(j.work_lost, SimDuration::ZERO);
        }
    }

    /// Capacity accounting: consumed remote CPU never exceeds available
    /// idle capacity; utilizations stay in [0, 1].
    #[test]
    fn capacity_is_never_overdrawn(
        jobs in arb_jobs(16, 3),
        seed in 0u64..1_000,
    ) {
        let out = Run::new(config(seed, 3, 0.3))
            .specs(jobs)
            .horizon(SimDuration::from_days(10))
            .execute();
        prop_assert!(out.consumed_cpu_hours() <= out.available_station_hours() + 1e-6);
        let sys = out.mean_system_utilization();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&sys));
        for u in out.system_utilization_hourly() {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
        }
    }

    /// Determinism: identical inputs give byte-identical outcomes.
    #[test]
    fn runs_are_reproducible(
        jobs in arb_jobs(10, 3),
        seed in 0u64..1_000,
    ) {
        let a = Run::new(config(seed, 3, 0.25))
            .specs(jobs.clone())
            .horizon(SimDuration::from_days(5))
            .execute();
        let b = Run::new(config(seed, 3, 0.25))
            .specs(jobs)
            .horizon(SimDuration::from_days(5))
            .execute();
        prop_assert_eq!(a.totals, b.totals);
        prop_assert_eq!(a.trace.len(), b.trace.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            prop_assert_eq!(x.state, y.state);
            prop_assert_eq!(x.work_done, y.work_done);
            prop_assert_eq!(x.support_us, y.support_us);
            prop_assert_eq!(x.checkpoints, y.checkpoints);
        }
    }

    /// Streaming sinks observe exactly the buffered trace, event for
    /// event, and the JSONL codec round-trips the whole stream.
    #[test]
    fn sinks_mirror_the_trace(
        jobs in arb_jobs(12, 3),
        seed in 0u64..1_000,
    ) {
        let sink = SharedSink::new(VecSink::new());
        let streamed = Run::new(config(seed, 3, 0.25))
            .specs(jobs.clone())
            .horizon(SimDuration::from_days(5))
            .sink(Box::new(sink.clone()))
            .execute();
        let buffered = Run::new(config(seed, 3, 0.25))
            .specs(jobs)
            .horizon(SimDuration::from_days(5))
            .execute();
        let events = sink.try_into_inner().unwrap().into_events();
        prop_assert_eq!(&events, buffered.trace.events());
        prop_assert_eq!(streamed.telemetry.events_total as usize, events.len());
        let text = condor::metrics::export::events_to_jsonl(&events);
        let back = condor::metrics::export::events_from_jsonl(&text).unwrap();
        prop_assert_eq!(back, events);
    }

    /// Every policy serves every admitted job eventually when owners are
    /// mostly idle and there is enough time.
    #[test]
    fn all_policies_drain_the_queue(
        jobs in arb_jobs(8, 3),
        policy_idx in 0usize..4,
    ) {
        let policy = match policy_idx {
            0 => PolicyKind::UpDown,
            1 => PolicyKind::Fifo,
            2 => PolicyKind::RoundRobin,
            _ => PolicyKind::Random,
        };
        let cfg = ClusterConfig {
            policy,
            ..config(9, 3, 0.05)
        };
        let total_demand_h: f64 = jobs.iter().map(|j| j.demand.as_hours_f64()).sum();
        // Horizon with generous slack for queueing on 3 stations.
        let days = (total_demand_h / 24.0 + 10.0).ceil() as u64;
        let out = Run::new(cfg).specs(jobs).horizon(SimDuration::from_days(days)).execute();
        let admitted = out.jobs.iter().filter(|j| !j.rejected).count();
        let done = out.completed_jobs().count();
        prop_assert_eq!(done, admitted, "policy {} left work behind", out.policy_name);
    }
}

/// Regression: owner flickers shorter than the detection interval used to
/// double-count the machine (locally busy *and* remotely busy), pushing an
/// hourly bucket over 100% (found by `capacity_is_never_overdrawn`).
#[test]
fn owner_flicker_never_overdraws_a_bucket() {
    let mk = |id: u64, arr: u64, dem: u64| JobSpec {
        image_bytes: 100_000,
        syscalls_per_cpu_sec: 0.0,
        ..JobSpec::new(
            JobId(id),
            UserId(0),
            NodeId::new(0),
            SimTime::from_millis(arr),
            SimDuration::from_millis(dem),
        )
    };
    let jobs = vec![mk(0, 79_200_000, 39_600_000), mk(1, 82_800_000, 43_200_000)];
    let cfg = ClusterConfig {
        stations: 3,
        seed: 688,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.3),
            ..OwnerConfig::default()
        },
        ..ClusterConfig::default()
    };
    let out = Run::new(cfg).specs(jobs).horizon(SimDuration::from_days(10)).execute();
    for u in out.system_utilization_hourly() {
        assert!(u <= 1.0 + 1e-9, "hourly utilization {u} over capacity");
    }
}
