//! Feature-composition soak test: every extension enabled at once.
//!
//! The individual features (failures, reservations, mixed architectures,
//! gangs, job dependencies, checkpoint server, history-aware placement)
//! each have focused tests; this one turns them ALL on in a single long
//! run and checks the global invariants still hold. Interactions between
//! features are where schedulers rot.

use condor::core::config::{FailureConfig, Reservation};
use condor::core::trace::TraceKind;
use condor::model::station::{Arch, ArchSet, ResourceVec};
use condor::prelude::*;

fn build_everything() -> (ClusterConfig, Vec<JobSpec>) {
    let config = ClusterConfig {
        stations: 12,
        seed: 4242,
        arch_pattern: vec![Arch::Vax, Arch::Sun],
        history_aware_placement: true,
        checkpoint_server: true,
        failures: Some(FailureConfig {
            mtbf: SimDuration::from_days(4),
            mttr: SimDuration::from_hours(2),
        }),
        reservations: vec![Reservation {
            holder: NodeId::new(1),
            machines: 2,
            from: SimTime::from_hours(72),
            until: SimTime::from_hours(84),
        }],
        ..ClusterConfig::default()
    };

    let mut jobs: Vec<JobSpec> = Vec::new();
    // A flood of ordinary jobs, mixed binaries.
    for i in 0..30u64 {
        jobs.push(JobSpec {
            image_bytes: 300_000 + (i % 5) * 150_000,
            syscalls_per_cpu_sec: 0.5 + (i % 3) as f64,
            binaries: if i % 3 == 0 { ArchSet::both() } else { ArchSet::vax_only() },
            ..JobSpec::new(
                JobId(i),
                UserId(0),
                NodeId::new(0),
                SimTime::from_hours(i % 48),
                SimDuration::from_hours(2 + i % 6),
            )
        });
    }
    // The reservation holder's batch, timed for its window.
    for k in 0..4u64 {
        jobs.push(JobSpec {
            image_bytes: 400_000,
            binaries: ArchSet::both(),
            ..JobSpec::new(
                JobId(30 + k),
                UserId(1),
                NodeId::new(1),
                SimTime::from_hours(72),
                SimDuration::from_hours(2),
            )
        });
    }
    // A workflow with a gang in the middle (prep → width-3 gang → report),
    // dual-binary so the mixed fleet can host it.
    let stage = |id: u64, demand: SimDuration| {
        JobSpec::new(JobId(id), UserId(2), NodeId::new(2), SimTime::from_hours(5), demand)
    };
    jobs.extend([
        JobSpec {
            syscalls_per_cpu_sec: 0.5,
            binaries: ArchSet::both(),
            ..stage(34, SimDuration::HOUR)
        },
        JobSpec {
            syscalls_per_cpu_sec: 0.5,
            binaries: ArchSet::both(),
            depends_on: vec![JobId(34)],
            width: 3,
            ..stage(35, SimDuration::from_hours(5))
        },
        JobSpec {
            syscalls_per_cpu_sec: 0.5,
            binaries: ArchSet::both(),
            depends_on: vec![JobId(35)],
            ..stage(36, SimDuration::HOUR)
        },
    ]);
    (config, jobs)
}

#[test]
fn everything_on_at_once_still_upholds_the_guarantees() {
    let (config, jobs) = build_everything();
    let n = jobs.len();
    let out = Run::new(config).specs(jobs).horizon(SimDuration::from_days(30)).execute();

    // 1. The §1 guarantee: every admitted job completes (30 days is ample
    //    slack for ~120 h of work on 12 machines).
    let admitted = out.jobs.iter().filter(|j| !j.rejected).count();
    assert_eq!(admitted, n, "checkpoint server means nothing bounces");
    assert_eq!(
        out.completed_jobs().count(),
        n,
        "incomplete: {:?} (totals {:?})",
        out.jobs
            .iter()
            .filter(|j| j.state != JobState::Completed)
            .map(|j| (j.spec.id, j.state))
            .collect::<Vec<_>>(),
        out.totals
    );

    // 2. Exact work conservation, everywhere.
    for j in &out.jobs {
        assert_eq!(j.work_done, j.spec.demand, "{}", j.spec.id);
        assert!(j.remote_cpu >= j.work_done, "{}", j.spec.id);
    }

    // 3. The workflow ran in order, and the gang consumed 3× its work.
    let t = |id: u64| out.jobs[id as usize].completed_at.unwrap();
    assert!(t(34) < t(35) && t(35) < t(36), "workflow order");
    let gang = &out.jobs[35];
    assert_eq!(gang.remote_cpu, gang.work_done * 3);

    // 4. VAX-only jobs never started on SUN machines (odd indices).
    for ev in out.trace.events() {
        if let TraceKind::JobStarted { job, on } = ev.kind {
            if !out.jobs[job.0 as usize].spec.binaries.supports(Arch::Sun) {
                assert_eq!(on.index() % 2, 0, "{job} on SUN station {on}");
            }
        }
    }

    // 5. The reserved batch finished within its window.
    for k in 30..34u64 {
        let done = out.jobs[k as usize].completed_at.unwrap();
        assert!(
            done <= SimTime::from_hours(84),
            "reserved job {k} finished at {done}"
        );
    }

    // 6. Crashes happened and were survived.
    assert!(out.totals.station_failures > 0, "{:?}", out.totals);

    // 7. Utilization ledgers never overdraw a machine.
    for u in out.system_utilization_hourly() {
        assert!(u <= 1.0 + 1e-9, "hourly utilization {u}");
    }

    // 8. Determinism with everything on.
    let (config2, jobs2) = build_everything();
    let out2 = Run::new(config2).specs(jobs2).horizon(SimDuration::from_days(30)).execute();
    assert_eq!(out.totals, out2.totals);
    assert_eq!(out.trace.len(), out2.trace.len());
}

/// Every placement policy — the paper's Up-Down, the three baselines, the
/// capacity-aware packer, and both flavors of the replication family —
/// drives one fractional workload on a heterogeneous-capacity fleet, and
/// each recorded trace replays through the capacity-armed [`AuditSink`]
/// with zero violations. Policies differ in *which* station they pick;
/// none may ever overdraw one.
#[test]
fn every_policy_survives_the_capacity_armed_auditor() {
    let policies: Vec<(&str, PolicyKind)> = vec![
        ("up-down", PolicyKind::default()),
        ("fifo", PolicyKind::Fifo),
        ("round-robin", PolicyKind::RoundRobin),
        ("random", PolicyKind::Random),
        ("frac", PolicyKind::Frac),
        ("redundant k=2", PolicyKind::Redundant),
    ];
    // Alternating whole machines and half-capacity stations.
    let profiles = vec![ResourceVec::WHOLE, ResourceVec::new(500, 500)];
    let stations = 8usize;
    for (name, policy) in policies {
        let config = ClusterConfig {
            stations,
            seed: 1988,
            policy,
            capacity_profiles: profiles.clone(),
            ..ClusterConfig::default()
        };
        // Whole-machine jobs interleaved with quarter- and half-share
        // jobs, spread across homes so queues form and drain.
        let shares = [1000u32, 250, 500, 1000, 250];
        let jobs: Vec<JobSpec> = (0..24u64)
            .map(|i| JobSpec {
                image_bytes: 250_000,
                syscalls_per_cpu_sec: 0.5,
                resources: ResourceVec::share(shares[i as usize % shares.len()]),
                ..JobSpec::new(
                    JobId(i),
                    UserId((i % 3) as u32),
                    NodeId::new((i % stations as u64) as u32),
                    SimTime::from_secs(i * 1800),
                    SimDuration::from_hours(1 + i % 4),
                )
            })
            .collect();
        let out = Run::new(config)
            .specs(jobs)
            .horizon(SimDuration::from_days(4))
            .execute();
        let capacities: Vec<ResourceVec> =
            (0..stations).map(|i| profiles[i % profiles.len()]).collect();
        let mut audit = AuditSink::new().with_capacities(capacities);
        for ev in out.trace.events() {
            audit.record(ev);
        }
        audit.finish(out.horizon);
        assert!(
            audit.is_clean(),
            "policy {name}: audit violations {:?}",
            audit.violations()
        );
        assert!(out.totals.placements > 0, "policy {name} placed nothing");
    }
}
