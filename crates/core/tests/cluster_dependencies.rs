//! Dependency DAGs (paper §5(2) pipelines): held jobs release in order
//! as their parents complete.

mod common;
use common::*;

fn spec_dep(id: u64, arrival_h: u64, demand_h: u64, deps: Vec<u64>) -> JobSpec {
    JobSpec {
        syscalls_per_cpu_sec: 0.5,
        depends_on: deps.into_iter().map(JobId).collect(),
        ..spec(id, 0, 0, arrival_h, demand_h)
    }
}

#[test]
fn pipeline_runs_in_order() {
    // A → B → C, all submitted at once on a big idle cluster.
    let jobs = vec![
        spec_dep(0, 0, 2, vec![]),
        spec_dep(1, 0, 2, vec![0]),
        spec_dep(2, 0, 2, vec![1]),
    ];
    let out = Run::new(quiet_config(6)).specs(jobs).horizon(SimDuration::from_days(2)).execute();
    assert_eq!(out.completed_jobs().count(), 3);
    let done: Vec<SimTime> = out.jobs.iter().map(|j| j.completed_at.unwrap()).collect();
    assert!(done[0] < done[1] && done[1] < done[2], "{done:?}");
    // B could not start before A finished.
    let b_start = out
        .trace
        .filtered(|k| matches!(k, TraceKind::JobStarted { job, .. } if *job == JobId(1)))
        .next()
        .unwrap()
        .at;
    assert!(b_start >= done[0], "B started {b_start} before A finished {}", done[0]);
}

#[test]
fn diamond_joins_wait_for_both_parents() {
    //   0
    //  / \
    // 1   2   (1 is short, 2 is long)
    //  \ /
    //   3
    let jobs = vec![
        spec_dep(0, 0, 1, vec![]),
        spec_dep(1, 0, 1, vec![0]),
        spec_dep(2, 0, 6, vec![0]),
        spec_dep(3, 0, 1, vec![1, 2]),
    ];
    let out = Run::new(quiet_config(6)).specs(jobs).horizon(SimDuration::from_days(2)).execute();
    assert_eq!(out.completed_jobs().count(), 4);
    let done_2 = out.jobs[2].completed_at.unwrap();
    let start_3 = out
        .trace
        .filtered(|k| matches!(k, TraceKind::JobStarted { job, .. } if *job == JobId(3)))
        .next()
        .unwrap()
        .at;
    assert!(start_3 >= done_2, "join started before the slow parent finished");
}

#[test]
fn dependency_completed_before_arrival_does_not_hold() {
    // Parent at t=0 (1 h); child arrives at t=30 h, long after.
    let jobs = vec![spec_dep(0, 0, 1, vec![]), spec_dep(1, 30, 1, vec![0])];
    let out = Run::new(quiet_config(4)).specs(jobs).horizon(SimDuration::from_days(3)).execute();
    assert_eq!(out.completed_jobs().count(), 2);
    let child = &out.jobs[1];
    // Served promptly: wait ratio near zero.
    assert!(child.wait_ratio().unwrap() < 0.5, "{:?}", child.wait_ratio());
}

#[test]
fn held_jobs_count_in_the_queue_but_never_place() {
    let jobs = vec![spec_dep(0, 0, 4, vec![]), spec_dep(1, 0, 1, vec![0])];
    let cluster = Cluster::new(quiet_config(4), jobs);
    let mut engine = Engine::new(cluster);
    Cluster::prime(&mut engine);
    engine.run_until(SimTime::from_hours(2));
    let m = engine.model();
    assert_eq!(m.jobs()[1].state, JobState::Held);
    // No placement of the held job yet.
    let placed = m
        .trace()
        .count(|k| matches!(k, TraceKind::PlacementStarted { job, .. } if *job == JobId(1)));
    assert_eq!(placed, 0);
    engine.run_until(SimTime::from_hours(30));
    assert_eq!(engine.model().jobs()[1].state, JobState::Completed);
}

#[test]
#[should_panic(expected = "dependencies must reference lower ids")]
fn forward_dependencies_rejected() {
    let jobs = vec![spec_dep(0, 0, 1, vec![1]), spec_dep(1, 0, 1, vec![])];
    Cluster::new(quiet_config(2), jobs);
}
