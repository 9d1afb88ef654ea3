//! Acceptance + property tests for fractional capacity scheduling.
//!
//! * **Exact slowdown**: two half-CPU jobs packed on one station must each
//!   finish in exactly twice their solo whole-machine burst time — grants
//!   are fixed shares, so progress scales deterministically with the
//!   granted CPU fraction.
//! * **Capacity conservation** (property): replaying any seeded fractional
//!   run through [`AuditSink::with_capacities`] must show per-dimension
//!   granted capacity never exceeding the station's capacity vector at any
//!   event time.

use condor::core::audit::AuditSink;
use condor::core::telemetry::TraceSink;
use condor::core::trace::TraceKind;
use condor::prelude::*;
use condor_model::diurnal::DiurnalProfile;
use condor_model::owner::OwnerConfig;
use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Owners that never reclaim their machines: flat zero activity (clamped
/// to a floor) with decade-long dwells, plus zero heterogeneity so every
/// station runs at the reference speed.
fn quiet_config(stations: usize) -> ClusterConfig {
    ClusterConfig {
        stations,
        seed: 7,
        policy: PolicyKind::Frac,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.0),
            mean_active_period: SimDuration::from_days(3_650),
        },
        owner_heterogeneity: 0.0,
        ..ClusterConfig::default()
    }
}

fn job(id: u64, resources: ResourceVec) -> JobSpec {
    JobSpec {
        image_bytes: 1_000,
        syscalls_per_cpu_sec: 0.0,
        resources,
        ..JobSpec::new(
            JobId(id),
            UserId(0),
            NodeId::new(0),
            SimTime::ZERO,
            SimDuration::from_hours(1),
        )
    }
}

/// JobStarted → JobCompleted wall time per job, from the trace.
fn bursts(out: &RunOutput) -> std::collections::HashMap<JobId, SimDuration> {
    let mut started = std::collections::HashMap::new();
    let mut burst = std::collections::HashMap::new();
    for ev in out.trace.events() {
        match ev.kind {
            TraceKind::JobStarted { job, .. } => {
                started.insert(job, ev.at);
            }
            TraceKind::JobCompleted { job, .. } => {
                burst.insert(job, ev.at.since(started[&job]));
            }
            _ => {}
        }
    }
    burst
}

/// A half-CPU pair sharing one station runs each job at exactly half
/// speed: the 1-hour demand takes exactly 2 hours of wall clock, twice
/// the solo whole-machine burst.
#[test]
fn half_cpu_pair_finishes_in_exactly_twice_solo_burst() {
    // Solo baseline: one whole-machine job, burst == demand exactly.
    let solo = Run::new(quiet_config(1))
        .specs(vec![job(0, ResourceVec::WHOLE)])
        .horizon(SimDuration::from_days(1))
        .execute();
    let solo_burst = bursts(&solo)[&JobId(0)];
    assert_eq!(solo_burst, SimDuration::from_hours(1), "solo burst is the demand");

    // The pair: two half-CPU jobs on the single station.
    let out = Run::new(quiet_config(1))
        .specs(vec![job(0, ResourceVec::share(500)), job(1, ResourceVec::share(500))])
        .horizon(SimDuration::from_days(1))
        .execute();
    assert!(
        out.jobs.iter().all(|j| j.state == JobState::Completed),
        "both residents complete"
    );
    let b = bursts(&out);
    for id in [JobId(0), JobId(1)] {
        assert_eq!(
            b[&id],
            SimDuration::from_hours(2),
            "half-CPU burst is exactly 2x the solo burst (job {id:?})"
        );
    }
    // And they genuinely co-resided: both started before either finished.
    let granted: Vec<_> = out
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::JobGranted { cpu_milli: 500, .. }))
        .collect();
    assert_eq!(granted.len(), 2, "both jobs got half-CPU grants");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Capacity conservation: replay every event of a seeded fractional
    /// run through an [`AuditSink`] armed with the per-station capacity
    /// vectors; at no event time may the sum of granted shares exceed the
    /// station's capacity in any dimension.
    #[test]
    fn granted_capacity_never_exceeds_station_capacity(
        seed in 0u64..500,
        stations in 2usize..6,
        njobs in 4usize..16,
        cpu_choices in proptest::collection::vec(0usize..4, 16),
        hetero_caps in any::<bool>(),
    ) {
        let shares = [250u32, 500, 750, 1000];
        let profiles = if hetero_caps {
            vec![ResourceVec::WHOLE, ResourceVec::new(500, 500)]
        } else {
            vec![ResourceVec::WHOLE]
        };
        let config = ClusterConfig {
            stations,
            seed,
            policy: PolicyKind::Frac,
            capacity_profiles: profiles.clone(),
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.1),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        };
        let jobs: Vec<JobSpec> = (0..njobs as u64)
            .map(|i| {
                let milli = shares[cpu_choices[i as usize % cpu_choices.len()]];
                JobSpec {
                    image_bytes: 10_000,
                    syscalls_per_cpu_sec: 0.1,
                    resources: ResourceVec::share(milli),
                    ..JobSpec::new(
                        JobId(i),
                        UserId((i % 3) as u32),
                        NodeId::new((i % stations as u64) as u32),
                        SimTime::from_secs(i * 600),
                        SimDuration::from_hours(1 + i % 3),
                    )
                }
            })
            .collect();
        let out = Run::new(config)
            .specs(jobs)
            .horizon(SimDuration::from_days(2))
            .execute();

        // Replay the recorded trace through a capacity-armed auditor.
        let capacities: Vec<ResourceVec> =
            (0..stations).map(|i| profiles[i % profiles.len()]).collect();
        let mut audit = AuditSink::new().with_capacities(capacities);
        for ev in out.trace.events() {
            audit.record(ev);
        }
        audit.finish(out.horizon);
        let capacity_violations: Vec<_> = audit
            .violations()
            .iter()
            .filter(|v| {
                matches!(
                    v.kind,
                    condor::core::audit::AuditViolationKind::CapacityExceeded { .. }
                        | condor::core::audit::AuditViolationKind::DoubleOccupancy { .. }
                )
            })
            .collect();
        prop_assert!(
            capacity_violations.is_empty(),
            "capacity conservation violated: {capacity_violations:?}"
        );
        prop_assert!(audit.is_clean(), "audit violations: {:?}", audit.violations());
    }
}
