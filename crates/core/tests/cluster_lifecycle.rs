//! The base job lifecycle through the public API: placement, the §4
//! throttle, owner eviction under both strategies, Up-Down fairness,
//! coordinator failure isolation, disk limits, and the accounting and
//! protocol invariants every run must satisfy.

mod common;
use common::*;

#[test]
fn single_job_completes_with_correct_accounting() {
    let out = Run::new(quiet_config(4))
        .specs(vec![spec(0, 0, 0, 1, 3)])
        .horizon(SimDuration::from_days(1))
        .execute();
    let j = &out.jobs[0];
    assert_eq!(j.state, JobState::Completed, "job should finish: {j:?}");
    assert!(j.work_done >= j.spec.demand);
    assert!(j.placements >= 1);
    let wr = j.wait_ratio().unwrap();
    assert!(wr < 0.5, "quiet cluster wait ratio {wr}");
    let lev = j.leverage().unwrap();
    // 3 h at 1 syscall/s → 108 s syscall support + 2.5 s/move.
    assert!(lev > 50.0 && lev < 200.0, "leverage {lev}");
    assert_eq!(out.totals.placements, u64::from(j.placements));
}

#[test]
fn all_jobs_eventually_complete_under_load() {
    let jobs: Vec<JobSpec> = (0..12).map(|i| spec(i, 0, 0, 1, 2)).collect();
    let out = Run::new(quiet_config(6)).specs(jobs).horizon(SimDuration::from_days(4)).execute();
    let done = out.completed_jobs().count();
    assert_eq!(done, 12, "totals: {:?}", out.totals);
    // Guaranteed-completion property: no work lost under grace strategy.
    for j in &out.jobs {
        assert_eq!(j.work_lost, SimDuration::ZERO);
    }
}

#[test]
fn placement_throttle_spaces_placements() {
    let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0, 0, 0, 10)).collect();
    let out = Run::new(quiet_config(8))
        .specs(jobs)
        .horizon(SimDuration::from_hours(2))
        .execute();
    // One placement per 2-minute poll at most.
    let starts: Vec<SimTime> = out
        .trace
        .filtered(|k| matches!(k, TraceKind::PlacementStarted { .. }))
        .map(|e| e.at)
        .collect();
    assert!(starts.len() >= 5, "expected several placements, got {}", starts.len());
    for w in starts.windows(2) {
        assert!(
            w[1].since(w[0]) >= SimDuration::from_minutes(2),
            "placements {} and {} too close",
            w[0],
            w[1]
        );
    }
}

#[test]
fn owner_return_suspends_then_checkpoints_and_job_survives() {
    // One station hosts; owners are extremely busy so preemption is
    // guaranteed, but the job still completes thanks to checkpointing.
    let cfg = ClusterConfig {
        stations: 3,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.6),
            mean_active_period: SimDuration::from_minutes(20),
        },
        ..ClusterConfig::default()
    };
    let out = Run::new(cfg)
        .specs(vec![spec(0, 0, 0, 0, 8)])
        .horizon(SimDuration::from_days(6))
        .execute();
    let j = &out.jobs[0];
    assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
    assert!(
        out.totals.preemptions_owner > 0,
        "busy owners must preempt at least once: {:?}",
        out.totals
    );
    assert_eq!(j.work_lost, SimDuration::ZERO, "grace strategy never loses work");
    assert_eq!(j.work_done, j.spec.demand);
}

#[test]
fn immediate_kill_loses_work_but_completes() {
    let cfg = ClusterConfig {
        eviction: EvictionStrategy::ImmediateKill {
            checkpoint_every: SimDuration::from_minutes(30),
        },
        ..stormy_config(3)
    };
    let out = Run::new(cfg)
        .specs(vec![spec(0, 0, 0, 0, 6)])
        .horizon(SimDuration::from_days(10))
        .execute();
    let j = &out.jobs[0];
    if out.totals.kills > 0 {
        assert!(
            j.remote_cpu >= j.work_done,
            "gross consumption must cover redone work"
        );
    }
    assert_eq!(j.state, JobState::Completed, "{:?}", out.totals);
    assert!(out.totals.periodic_checkpoints > 0 || out.totals.kills == 0);
}

#[test]
fn heavy_user_cannot_starve_light_user() {
    // Heavy user floods from station 0; light user submits one batch
    // from station 1 much later. Up-Down must serve the light user
    // promptly.
    let mut jobs: Vec<JobSpec> = (0..30).map(|i| spec(i, 0, 0, 0, 12)).collect();
    for k in 0..3 {
        jobs.push(spec(30 + k, 1, 1, 48, 1));
    }
    let out = Run::new(quiet_config(6)).specs(jobs).horizon(SimDuration::from_days(7)).execute();
    let light_done: Vec<&Job> = out
        .jobs
        .iter()
        .filter(|j| j.spec.user == UserId(1) && j.state == JobState::Completed)
        .collect();
    assert_eq!(light_done.len(), 3, "light user's batch must complete");
    for j in &light_done {
        let wr = j.wait_ratio().unwrap();
        assert!(wr < 3.0, "light user wait ratio {wr} too high");
    }
}

#[test]
fn updown_preempts_for_light_user() {
    // Saturate: as many heavy jobs as stations, then a light request.
    let mut jobs: Vec<JobSpec> = (0..8).map(|i| spec(i, 0, 0, 0, 200)).collect();
    jobs.push(spec(8, 1, 1, 24, 1));
    let out = Run::new(quiet_config(4)).specs(jobs).horizon(SimDuration::from_days(3)).execute();
    assert!(
        out.totals.preemptions_priority > 0,
        "light user should trigger a priority preemption: {:?}",
        out.totals
    );
    let light = &out.jobs[8];
    assert_eq!(light.state, JobState::Completed);
}

#[test]
fn coordinator_failure_leaves_running_jobs_alone() {
    let cfg = quiet_config(4);
    let jobs = vec![spec(0, 0, 0, 0, 4), spec(1, 0, 0, 0, 4)];
    let cluster = Cluster::new(cfg, jobs);
    let mut engine = Engine::new(cluster);
    Cluster::prime(&mut engine);
    // Let the first job get placed and start running.
    engine.run_until(SimTime::from_hours(1));
    let running_before: Vec<JobState> =
        engine.model().jobs().iter().map(|j| j.state).collect();
    assert!(
        running_before.iter().any(|s| matches!(s, JobState::Running { .. })),
        "setup: at least one job should be running, got {running_before:?}"
    );
    // Coordinator dies for 10 hours.
    engine.model_mut().set_coordinator_down(true);
    engine.run_until(SimTime::from_hours(11));
    // The running job kept running (and likely finished); no *new*
    // placements happened while the coordinator was down.
    let placements_during = engine
        .model()
        .trace()
        .filtered(|k| matches!(k, TraceKind::PlacementStarted { .. }))
        .filter(|e| e.at > SimTime::from_hours(1))
        .count();
    assert_eq!(placements_during, 0, "no placements while coordinator down");
    let j0 = &engine.model().jobs()[0];
    assert!(
        j0.state == JobState::Completed || matches!(j0.state, JobState::Running { .. }),
        "running job unaffected by coordinator failure: {:?}",
        j0.state
    );
    // Recovery: bring it back, the queued job gets served.
    engine.model_mut().set_coordinator_down(false);
    engine.run_until(SimTime::from_hours(40));
    assert!(
        engine.model().jobs().iter().all(|j| j.state == JobState::Completed),
        "after recovery all jobs complete: {:?}",
        engine.model().jobs().iter().map(|j| j.state).collect::<Vec<_>>()
    );
}

#[test]
fn disk_full_blocks_placement_but_not_forever() {
    // Tiny disks: only one foreign image fits per station.
    let cfg = ClusterConfig {
        disk_capacity: 600_000,
        ..quiet_config(3)
    };
    let jobs: Vec<JobSpec> = (0..4).map(|i| spec(i, 0, 0, 0, 1)).collect();
    let out = Run::new(cfg).specs(jobs).horizon(SimDuration::from_days(2)).execute();
    // Home station 0 holds 4 × 0.5 MB of checkpoint files — more than
    // 0.6 MB of disk — so some submissions are rejected outright.
    assert!(
        out.totals.submit_rejections > 0,
        "tiny home disk must reject some submissions: {:?}",
        out.totals
    );
    let admitted = out.jobs.iter().filter(|j| !j.rejected).count();
    let done = out.completed_jobs().count();
    assert_eq!(done, admitted, "all admitted jobs complete");
}

#[test]
fn conservation_work_done_equals_demand_for_completed() {
    let jobs: Vec<JobSpec> = (0..10).map(|i| spec(i, (i % 3) as u32, (i % 4) as u32, i, 3)).collect();
    let out = Run::new(stormy_config(4))
        .specs(jobs)
        .horizon(SimDuration::from_days(10))
        .execute();
    for j in out.completed_jobs() {
        assert_eq!(j.work_done, j.spec.demand, "exact completion for {}", j.spec.id);
        assert!(j.remote_cpu >= j.work_done);
        assert!(j.completed_at.unwrap() >= j.spec.arrival + j.spec.demand);
    }
}

#[test]
fn trace_protocol_invariants() {
    let jobs: Vec<JobSpec> = (0..8).map(|i| spec(i, 0, (i % 3) as u32, i, 2)).collect();
    let out = Run::new(stormy_config(3))
        .specs(jobs)
        .horizon(SimDuration::from_days(8))
        .execute();
    // Every job: arrivals == 1; starts >= placements related events...
    for j in 0..8u64 {
        let arr = out.trace.count(
            |k| matches!(k, TraceKind::JobArrived { job } if *job == JobId(j)),
        );
        assert_eq!(arr, 1, "job {j} must arrive exactly once");
        let completed = out.trace.count(
            |k| matches!(k, TraceKind::JobCompleted { job, .. } if *job == JobId(j)),
        );
        assert!(completed <= 1);
    }
    // Placement starts equal placement totals + disk rejections traced
    // separately.
    let starts = out
        .trace
        .count(|k| matches!(k, TraceKind::PlacementStarted { .. }));
    assert_eq!(starts as u64, out.totals.placements);
    // Checkpoint starts match completions (no transfer is lost).
    let ck_start = out
        .trace
        .count(|k| matches!(k, TraceKind::CheckpointStarted { .. }));
    let ck_done = out
        .trace
        .count(|k| matches!(k, TraceKind::CheckpointCompleted { .. }));
    assert_eq!(ck_start, ck_done);
    assert_eq!(ck_done as u64, out.totals.migrations);
}

#[test]
fn queue_series_returns_to_zero_when_all_done() {
    let jobs: Vec<JobSpec> = (0..5).map(|i| spec(i, 0, 0, 0, 1)).collect();
    let out = Run::new(quiet_config(4)).specs(jobs).horizon(SimDuration::from_days(2)).execute();
    assert_eq!(out.completed_jobs().count(), 5);
    assert_eq!(out.queue_total.value_at_end(), 0.0);
    let user_q = out.queue_by_user.get(&UserId(0)).unwrap();
    assert_eq!(user_q.value_at_end(), 0.0);
    // Peak queue was 5 right after the batch arrived.
    assert_eq!(out.queue_total.max_in(SimTime::ZERO, out.horizon), 5.0);
}

#[test]
fn identical_seeds_identical_runs() {
    let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, 0, (i % 2) as u32, i, 2)).collect();
    let a = Run::new(stormy_config(4))
        .specs(jobs.clone())
        .horizon(SimDuration::from_days(3))
        .execute();
    let b = Run::new(stormy_config(4))
        .specs(jobs.clone())
        .horizon(SimDuration::from_days(3))
        .execute();
    assert_eq!(a.totals, b.totals);
    assert_eq!(a.trace.len(), b.trace.len());
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.state, y.state);
        assert_eq!(x.work_done, y.work_done);
        assert_eq!(x.support_us, y.support_us);
    }
    // Different seed → different trace (statistically certain).
    let mut cfg2 = stormy_config(4);
    cfg2.seed = 777;
    let c = Run::new(cfg2).specs(jobs).horizon(SimDuration::from_days(3)).execute();
    assert_ne!(a.trace.len(), c.trace.len());
}

#[test]
fn utilization_accounting_is_bounded() {
    let jobs: Vec<JobSpec> = (0..10).map(|i| spec(i, 0, 0, 0, 5)).collect();
    let out = Run::new(stormy_config(5))
        .specs(jobs)
        .horizon(SimDuration::from_days(5))
        .execute();
    let local = out.mean_local_utilization();
    let system = out.mean_system_utilization();
    assert!((0.0..=1.0).contains(&local), "local {local}");
    assert!(system >= local, "system {system} >= local {local}");
    assert!(system <= 1.0 + 1e-9, "system {system}");
    for u in out.system_utilization_hourly() {
        assert!((0.0..=1.0 + 1e-9).contains(&u), "hourly {u}");
    }
    assert!(out.available_station_hours() > 0.0);
    assert!(out.consumed_cpu_hours() > 0.0);
}

#[test]
fn history_aware_placement_runs_and_differs() {
    let jobs: Vec<JobSpec> = (0..10).map(|i| spec(i, 0, 0, 0, 4)).collect();
    let base = stormy_config(6);
    let aware = ClusterConfig {
        history_aware_placement: true,
        ..base.clone()
    };
    let a = Run::new(base).specs(jobs.clone()).horizon(SimDuration::from_days(4)).execute();
    let b = Run::new(aware).specs(jobs).horizon(SimDuration::from_days(4)).execute();
    // Both make progress; the placement order differs at some point.
    assert!(a.completed_jobs().count() > 0);
    assert!(b.completed_jobs().count() > 0);
}

#[test]
fn baseline_policies_run_to_completion() {
    for policy in [PolicyKind::Fifo, PolicyKind::RoundRobin, PolicyKind::Random] {
        let cfg = ClusterConfig {
            policy,
            ..quiet_config(4)
        };
        let jobs: Vec<JobSpec> = (0..6).map(|i| spec(i, (i % 2) as u32, (i % 2) as u32, 0, 1)).collect();
        let out = Run::new(cfg).specs(jobs).horizon(SimDuration::from_days(2)).execute();
        assert_eq!(out.completed_jobs().count(), 6, "policy {policy:?}");
        assert_eq!(out.totals.preemptions_priority, 0, "baselines never preempt");
    }
}

#[test]
fn resume_in_place_happens_with_short_owner_bursts() {
    // Owners with very short active bursts (well under the 5-minute
    // grace): suspended jobs should frequently resume in place.
    let cfg = ClusterConfig {
        stations: 3,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.3),
            mean_active_period: SimDuration::from_secs(90),
        },
        ..ClusterConfig::default()
    };
    let out = Run::new(cfg)
        .specs(vec![spec(0, 0, 0, 0, 20)])
        .horizon(SimDuration::from_days(6))
        .execute();
    assert!(
        out.totals.resumes_in_place > 0,
        "short bursts should produce in-place resumes: {:?}",
        out.totals
    );
    assert!(
        out.totals.resumes_in_place + out.totals.migrations >= out.totals.preemptions_owner,
        "every owner preemption resolves via resume or migration"
    );
}

#[test]
fn interference_is_bounded_by_detection_latency() {
    let out = Run::new(stormy_config(4))
        .specs((0..6).map(|i| spec(i, 0, 0, 0, 10)).collect())
        .horizon(SimDuration::from_days(4))
        .execute();
    // Each owner preemption can contribute at most one detection
    // interval (30 s) of interference.
    let bound = out.totals.preemptions_owner * 30_000;
    assert!(
        out.totals.interference_ms <= bound,
        "interference {} > bound {}",
        out.totals.interference_ms,
        bound
    );
}
