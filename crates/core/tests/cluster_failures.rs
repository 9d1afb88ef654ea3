//! Station crashes: jobs roll back to their last checkpoint and still
//! complete, a coordinator-host crash stalls only allocation, and
//! crash/transfer races are harmless.

mod common;
use common::*;
use condor_core::config::FailureConfig;

fn crashy_config(stations: usize, mtbf_h: u64, mttr_h: u64) -> ClusterConfig {
    ClusterConfig {
        stations,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.05),
            ..OwnerConfig::default()
        },
        failures: Some(FailureConfig {
            mtbf: SimDuration::from_hours(mtbf_h),
            mttr: SimDuration::from_hours(mttr_h),
        }),
        ..ClusterConfig::default()
    }
}

#[test]
fn jobs_survive_station_crashes() {
    // Frequent crashes: MTBF 12 h per station over a 20-day run.
    let jobs: Vec<JobSpec> = (0..8).map(|i| spec(i, 0, (i % 2) as u32, 1, 6)).collect();
    let out = Run::new(crashy_config(5, 12, 1))
        .specs(jobs)
        .horizon(SimDuration::from_days(20))
        .execute();
    assert!(out.totals.station_failures > 10, "{:?}", out.totals);
    assert_eq!(
        out.completed_jobs().count(),
        8,
        "every job must complete despite crashes: {:?}",
        out.totals
    );
    for j in out.completed_jobs() {
        assert_eq!(j.work_done, j.spec.demand);
    }
}

#[test]
fn crashes_roll_back_to_last_checkpoint() {
    let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0, 0, 1, 10)).collect();
    let out = Run::new(crashy_config(4, 8, 1))
        .specs(jobs)
        .horizon(SimDuration::from_days(25))
        .execute();
    assert!(out.totals.crash_rollbacks > 0, "{:?}", out.totals);
    // Rollbacks redo work: gross consumption exceeds net for some job.
    let lost: f64 = out.jobs.iter().map(|j| j.work_lost.as_hours_f64()).sum();
    assert!(lost > 0.0, "crashes must lose un-checkpointed work");
    // But the guarantee holds.
    assert_eq!(out.completed_jobs().count(), 6);
}

#[test]
fn coordinator_host_crash_stalls_allocation_only() {
    // Deterministic scripted crash via direct model driving.
    let cfg = ClusterConfig {
        stations: 4,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.02),
            ..OwnerConfig::default()
        },
        ..ClusterConfig::default()
    };
    let jobs = vec![spec(0, 0, 1, 1, 4), spec(1, 0, 1, 1, 4), spec(2, 0, 1, 1, 4)];
    let cluster = Cluster::new(cfg, jobs);
    let mut engine = Engine::new(cluster);
    Cluster::prime(&mut engine);
    // Let one job start.
    engine.run_until(SimTime::from_hours(2));
    let placements_before = engine.model().totals().placements;
    assert!(placements_before >= 1);
    // Crash the coordinator host.
    engine
        .scheduler()
        .immediately(Event::StationCrash { station: 0 });
    engine.run_until(SimTime::from_hours(2) + SimDuration::from_secs(1));
    // For the next 6 hours no new placements may start, but running
    // jobs keep finishing.
    engine.run_until(SimTime::from_hours(8));
    let placements_during = engine.model().totals().placements;
    assert_eq!(
        placements_during, placements_before,
        "no allocation while the coordinator host is down"
    );
    let finished: usize = engine
        .model()
        .jobs()
        .iter()
        .filter(|j| j.state == JobState::Completed)
        .count();
    assert!(finished >= 1, "running jobs complete during the outage");
    // Recover and drain.
    engine
        .scheduler()
        .immediately(Event::StationRecover { station: 0 });
    engine.run_until(SimTime::from_hours(40));
    assert!(engine
        .model()
        .jobs()
        .iter()
        .all(|j| j.state == JobState::Completed));
}

#[test]
fn checkpoint_server_lifts_home_disk_limit() {
    // Tiny home disks: without a server most submissions bounce;
    // with the §4 checkpoint server everything is admitted.
    let base = ClusterConfig {
        disk_capacity: 600_000,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.02),
            ..OwnerConfig::default()
        },
        stations: 4,
        ..ClusterConfig::default()
    };
    let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0, 0, 1, 1)).collect();
    let without = Run::new(base.clone())
        .specs(jobs.clone())
        .horizon(SimDuration::from_days(2))
        .execute();
    assert!(without.totals.submit_rejections > 0);
    let with = Run::new(ClusterConfig { checkpoint_server: true, ..base })
        .specs(jobs)
        .horizon(SimDuration::from_days(2))
        .execute();
    assert_eq!(with.totals.submit_rejections, 0, "server absorbs the images");
    assert_eq!(with.completed_jobs().count(), 6);
}

#[test]
fn crash_and_transfer_race_is_harmless() {
    // Pathological setup: constant crashing with long repairs while
    // transfers are slow (tiny bandwidth). Exercises the stale
    // transfer-sequence guards; the run must neither panic nor violate
    // conservation.
    let mut cfg = crashy_config(3, 4, 2);
    cfg.bus = condor_net::BusConfig { bandwidth_bytes_per_sec: 20_000 }; // 25 s per image
    let jobs: Vec<JobSpec> = (0..5).map(|i| spec(i, 0, (i % 3) as u32, 1, 3)).collect();
    let out = Run::new(cfg).specs(jobs).horizon(SimDuration::from_days(30)).execute();
    for j in &out.jobs {
        assert!(j.work_done <= j.spec.demand);
        assert!(j.remote_cpu >= j.work_done);
        if j.state == JobState::Completed {
            assert_eq!(j.work_done, j.spec.demand);
        }
    }
}
