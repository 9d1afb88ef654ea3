//! Unit-level checks of the [`AuditSink`] state machine on hand-built
//! event streams: each protocol invariant is violated in isolation and
//! must be flagged, and each legal corner must pass.

use condor_core::audit::{AuditSink, AuditViolationKind};
use condor_core::job::{JobId, PreemptReason};
use condor_model::station::ResourceVec;
use condor_core::telemetry::TraceSink;
use condor_core::trace::{TraceEvent, TraceKind};
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

fn ev(secs: u64, kind: TraceKind) -> TraceEvent {
    TraceEvent { at: SimTime::from_secs(secs), kind }
}

fn audit(events: &[TraceEvent]) -> AuditSink {
    let mut sink = AuditSink::new();
    for e in events {
        sink.record(e);
    }
    sink.finish(events.last().map_or(SimTime::ZERO, |e| e.at));
    sink
}

#[test]
fn clean_lifecycle_passes() {
    let job = JobId(0);
    let on = NodeId::new(1);
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job }),
        ev(120, TraceKind::PlacementStarted { job, target: on }),
        ev(130, TraceKind::JobStarted { job, on }),
        ev(400, TraceKind::JobCompleted { job, on }),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
    assert_eq!(sink.events_seen(), 4);
}

#[test]
fn start_before_placement_is_flagged() {
    let job = JobId(0);
    let on = NodeId::new(1);
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job }),
        ev(10, TraceKind::JobStarted { job, on }),
    ]);
    assert_eq!(sink.total_violations(), 1);
    assert!(matches!(
        sink.violations()[0].kind,
        AuditViolationKind::IllegalTransition { event: "job_started", .. }
    ));
}

#[test]
fn double_occupancy_is_flagged() {
    let (j0, j1) = (JobId(0), JobId(1));
    let on = NodeId::new(2);
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job: j0 }),
        ev(0, TraceKind::JobArrived { job: j1 }),
        ev(120, TraceKind::PlacementStarted { job: j0, target: on }),
        ev(240, TraceKind::PlacementStarted { job: j1, target: on }),
    ]);
    assert!(sink
        .violations()
        .iter()
        .any(|v| matches!(v.kind, AuditViolationKind::DoubleOccupancy { .. })));
}

#[test]
fn events_after_completion_are_flagged() {
    let job = JobId(0);
    let on = NodeId::new(0);
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job }),
        ev(120, TraceKind::PlacementStarted { job, target: on }),
        ev(121, TraceKind::JobStarted { job, on }),
        ev(200, TraceKind::JobCompleted { job, on }),
        ev(201, TraceKind::JobSuspended { job, on }),
    ]);
    assert!(sink.violations().iter().any(|v| matches!(
        v.kind,
        AuditViolationKind::EventAfterTerminal { event: "job_suspended", .. }
    )));
}

#[test]
fn lost_checkpoint_transfer_is_flagged_at_finish() {
    let job = JobId(0);
    let on = NodeId::new(0);
    let mut sink = AuditSink::new();
    for e in [
        ev(0, TraceKind::JobArrived { job }),
        ev(120, TraceKind::PlacementStarted { job, target: on }),
        ev(121, TraceKind::JobStarted { job, on }),
        ev(300, TraceKind::CheckpointStarted {
            job,
            from: on,
            reason: PreemptReason::OwnerReturned,
            bytes: 10,
        }),
        // Completion never arrives, and the job (illegally) restarts.
        ev(400, TraceKind::JobStarted { job, on }),
    ] {
        sink.record(&e);
    }
    sink.finish(SimTime::from_secs(1000));
    assert!(sink.violations().iter().any(|v| matches!(
        v.kind,
        AuditViolationKind::CheckpointImbalance { in_flight: 1, .. }
    )));
    // In-flight at the horizon while still checkpointing is fine:
    let mut ok = AuditSink::new();
    for e in [
        ev(0, TraceKind::JobArrived { job }),
        ev(120, TraceKind::PlacementStarted { job, target: on }),
        ev(121, TraceKind::JobStarted { job, on }),
        ev(300, TraceKind::CheckpointStarted {
            job,
            from: on,
            reason: PreemptReason::OwnerReturned,
            bytes: 10,
        }),
    ] {
        ok.record(&e);
    }
    ok.finish(SimTime::from_secs(1000));
    assert!(ok.is_clean(), "{:?}", ok.violations());
}

#[test]
fn owner_double_active_is_flagged() {
    let station = NodeId::new(3);
    let sink = audit(&[
        ev(10, TraceKind::OwnerActive { station }),
        ev(20, TraceKind::OwnerActive { station }),
    ]);
    assert_eq!(sink.total_violations(), 1);
}

#[test]
fn poll_cadence_allows_downtime_multiples_only() {
    let polled = TraceKind::CoordinatorPolled {
        free_machines: 0,
        waiting_jobs: 0,
        placements: 0,
        preemptions: 0,
    };
    // 120 s cadence with one 360 s downtime gap: clean.
    let sink = audit(&[
        ev(120, polled),
        ev(240, polled),
        ev(600, polled),
        ev(720, polled),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
    // An off-cadence poll: flagged.
    let sink = audit(&[
        ev(120, polled),
        ev(240, polled),
        ev(330, polled),
    ]);
    assert!(matches!(
        sink.violations()[0].kind,
        AuditViolationKind::PollCadenceBroken { .. }
    ));
    // First observed gap spans downtime; later true-cadence gaps
    // re-baseline instead of reporting.
    let sink = audit(&[
        ev(120, polled),
        ev(480, polled), // 360 s (down for two cycles)
        ev(600, polled), // 120 s — re-baseline
        ev(720, polled),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
}

#[test]
fn placement_throttle_uses_inferred_cadence() {
    let polled = TraceKind::CoordinatorPolled {
        free_machines: 1,
        waiting_jobs: 1,
        placements: 1,
        preemptions: 0,
    };
    let (j0, j1) = (JobId(0), JobId(1));
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job: j0 }),
        ev(0, TraceKind::JobArrived { job: j1 }),
        ev(120, polled),
        ev(240, polled),
        ev(240, TraceKind::PlacementStarted { job: j0, target: a }),
        // 30 s later: tighter than the 120 s cadence.
        ev(270, TraceKind::PlacementStarted { job: j1, target: b }),
    ]);
    assert!(sink.violations().iter().any(|v| matches!(
        v.kind,
        AuditViolationKind::PlacementThrottleBroken { .. }
    )));
}

#[test]
fn chaos_local_start_pairs_with_job_started() {
    let job = JobId(0);
    let on = NodeId::new(4);
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job }),
        ev(60, TraceKind::ChaosCoordDown),
        ev(90, TraceKind::ChaosLocalStart { job, on }),
        ev(90, TraceKind::JobStarted { job, on }),
        ev(200, TraceKind::ChaosCoordUp),
        ev(400, TraceKind::JobCompleted { job, on }),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
    // Without the paired marker, Queued → Running stays illegal.
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job }),
        ev(90, TraceKind::JobStarted { job, on }),
    ]);
    assert!(!sink.is_clean());
}

#[test]
fn chaos_recovery_without_fault_is_flagged() {
    let sink = audit(&[ev(10, TraceKind::ChaosCoordUp)]);
    assert!(matches!(
        sink.violations()[0].kind,
        AuditViolationKind::UnmatchedChaosRecovery { event: "chaos_coord_up" }
    ));
    let sink = audit(&[ev(10, TraceKind::ChaosLinkUp { station: NodeId::new(2) })]);
    assert!(matches!(
        sink.violations()[0].kind,
        AuditViolationKind::UnmatchedChaosRecovery { event: "chaos_link_up" }
    ));
    // Matched pairs are clean, including nested partitions.
    let s = NodeId::new(2);
    let sink = audit(&[
        ev(10, TraceKind::ChaosLinkDown { station: s }),
        ev(15, TraceKind::ChaosLinkDown { station: s }),
        ev(20, TraceKind::ChaosLinkUp { station: s }),
        ev(25, TraceKind::ChaosLinkUp { station: s }),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
}

#[test]
fn chaos_delayed_poll_is_cadence_exempt() {
    let polled = TraceKind::CoordinatorPolled {
        free_machines: 0,
        waiting_jobs: 0,
        placements: 0,
        preemptions: 0,
    };
    // An off-grid poll at 270 s is announced by the delay marker and
    // does not break the 120 s cadence or re-baseline it.
    let sink = audit(&[
        ev(120, polled),
        ev(240, polled),
        ev(270, TraceKind::ChaosPollDelayed { delay_ms: 30_000 }),
        ev(270, polled),
        ev(360, polled),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
    // The same off-grid poll without the marker is flagged (cadence
    // pinned: an inferring auditor would re-baseline to the divisor).
    let mut sink = AuditSink::new().with_poll_interval(SimDuration::from_secs(120));
    for e in [ev(120, polled), ev(240, polled), ev(270, polled)] {
        sink.record(&e);
    }
    sink.finish(SimTime::from_secs(270));
    assert!(!sink.is_clean());
}

#[test]
fn chaos_ckpt_corrupted_requires_checkpointing_phase() {
    let job = JobId(0);
    let on = NodeId::new(0);
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job }),
        ev(120, TraceKind::PlacementStarted { job, target: on }),
        ev(121, TraceKind::JobStarted { job, on }),
        ev(300, TraceKind::CheckpointStarted {
            job,
            from: on,
            reason: PreemptReason::OwnerReturned,
            bytes: 10,
        }),
        ev(310, TraceKind::ChaosCkptCorrupted { job, from: on, attempt: 1 }),
        ev(340, TraceKind::CheckpointCompleted { job, from: on, bytes: 10 }),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
    // Corruption outside a checkpoint is illegal.
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job }),
        ev(120, TraceKind::PlacementStarted { job, target: on }),
        ev(121, TraceKind::JobStarted { job, on }),
        ev(130, TraceKind::ChaosCkptCorrupted { job, from: on, attempt: 1 }),
    ]);
    assert!(matches!(
        sink.violations()[0].kind,
        AuditViolationKind::IllegalTransition { event: "chaos_ckpt_corrupted", .. }
    ));
}

#[test]
fn gang_fanout_at_same_instant_is_legal() {
    let job = JobId(0);
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job }),
        ev(120, TraceKind::PlacementStarted { job, target: a }),
        ev(120, TraceKind::PlacementStarted { job, target: b }),
        ev(130, TraceKind::JobStarted { job, on: a }),
        ev(300, TraceKind::CheckpointStarted {
            job,
            from: a,
            reason: PreemptReason::PriorityPreemption,
            bytes: 5,
        }),
        ev(300, TraceKind::CheckpointStarted {
            job,
            from: b,
            reason: PreemptReason::PriorityPreemption,
            bytes: 5,
        }),
        ev(310, TraceKind::CheckpointCompleted { job, from: a, bytes: 5 }),
        ev(330, TraceKind::CheckpointCompleted { job, from: b, bytes: 5 }),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
}

fn poll(free: u32) -> TraceKind {
    TraceKind::CoordinatorPolled {
        free_machines: free,
        waiting_jobs: 0,
        placements: 0,
        preemptions: 0,
    }
}

/// Regression: `with_pools` used to skip the cadence checks wholesale.
/// The skip is scoped to cross-pool *ties* (zero gaps); a merged
/// stream whose polls come from a single pool still has its nonzero
/// gaps held to the established cadence.
#[test]
fn single_pool_stream_through_with_pools_still_enforces_cadence() {
    let mut sink = AuditSink::new()
        .with_pools(2)
        .with_poll_interval(SimDuration::from_secs(120));
    for e in [
        ev(120, poll(3)),
        ev(240, poll(3)),
        ev(330, poll(3)), // 90 s gap: off-cadence, must be flagged
    ] {
        sink.record(&e);
    }
    sink.finish(SimTime::from_secs(400));
    assert!(sink.violations().iter().any(|v| matches!(
        v.kind,
        AuditViolationKind::PollCadenceBroken { .. }
    )));
}

/// Same-instant polls from sibling pools share one grid tick; the
/// zero gaps between them are exempt, and the nonzero gaps between
/// ticks still audit clean when they match the cadence.
#[test]
fn cross_pool_poll_ties_are_exempt_from_cadence() {
    let mut sink = AuditSink::new()
        .with_pools(2)
        .with_poll_interval(SimDuration::from_secs(120));
    for e in [
        ev(120, poll(2)),
        ev(120, poll(4)),
        ev(240, poll(2)),
        ev(240, poll(4)),
    ] {
        sink.record(&e);
    }
    sink.finish(SimTime::from_secs(300));
    assert!(sink.is_clean(), "{:?}", sink.violations());
}

/// Two half-CPU residents share one station: within capacity on every
/// dimension, so the capacity-conservation invariant holds.
#[test]
fn fractional_co_residency_within_capacity_is_clean() {
    let (j0, j1) = (JobId(0), JobId(1));
    let on = NodeId::new(2);
    let grant = |job| TraceKind::JobGranted { job, on, cpu_milli: 500, mem_milli: 400, tag_milli: 0 };
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job: j0 }),
        ev(0, TraceKind::JobArrived { job: j1 }),
        ev(120, grant(j0)),
        ev(120, TraceKind::PlacementStarted { job: j0, target: on }),
        ev(240, grant(j1)),
        ev(240, TraceKind::PlacementStarted { job: j1, target: on }),
        ev(250, TraceKind::JobStarted { job: j0, on }),
        ev(260, TraceKind::JobStarted { job: j1, on }),
        ev(900, TraceKind::JobCompleted { job: j0, on }),
        ev(950, TraceKind::JobCompleted { job: j1, on }),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
}

/// A second resident whose demand overflows the CPU dimension trips
/// `CapacityExceeded` naming the offending dimension.
#[test]
fn capacity_overcommit_is_flagged_per_dimension() {
    let (j0, j1) = (JobId(0), JobId(1));
    let on = NodeId::new(0);
    let grant = |job| TraceKind::JobGranted { job, on, cpu_milli: 600, mem_milli: 100, tag_milli: 0 };
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job: j0 }),
        ev(0, TraceKind::JobArrived { job: j1 }),
        ev(120, grant(j0)),
        ev(120, TraceKind::PlacementStarted { job: j0, target: on }),
        ev(240, grant(j1)),
        ev(240, TraceKind::PlacementStarted { job: j1, target: on }),
    ]);
    assert!(sink.violations().iter().any(|v| matches!(
        v.kind,
        AuditViolationKind::CapacityExceeded { dimension: "cpu", granted_milli: 1200, capacity_milli: 1000, .. }
    )), "{:?}", sink.violations());
}

/// Freed capacity is reusable: once the first resident completes, a
/// demand that would have overflowed alongside it fits cleanly.
#[test]
fn released_capacity_admits_new_residents() {
    let (j0, j1) = (JobId(0), JobId(1));
    let on = NodeId::new(0);
    let grant = |job| TraceKind::JobGranted { job, on, cpu_milli: 700, mem_milli: 700, tag_milli: 0 };
    let sink = audit(&[
        ev(0, TraceKind::JobArrived { job: j0 }),
        ev(0, TraceKind::JobArrived { job: j1 }),
        ev(120, grant(j0)),
        ev(120, TraceKind::PlacementStarted { job: j0, target: on }),
        ev(130, TraceKind::JobStarted { job: j0, on }),
        ev(300, TraceKind::JobCompleted { job: j0, on }),
        ev(360, grant(j1)),
        ev(360, TraceKind::PlacementStarted { job: j1, target: on }),
    ]);
    assert!(sink.is_clean(), "{:?}", sink.violations());
}

/// `with_capacities` audits against per-station capacity vectors, so
/// a grant that fits the default whole machine can still overflow a
/// smaller station.
#[test]
fn with_capacities_enforces_per_station_limits() {
    let job = JobId(0);
    let on = NodeId::new(1);
    let mut sink = AuditSink::new()
        .with_capacities(vec![ResourceVec::WHOLE, ResourceVec::new(400, 1000)]);
    for e in [
        ev(0, TraceKind::JobArrived { job }),
        ev(120, TraceKind::JobGranted { job, on, cpu_milli: 500, mem_milli: 200, tag_milli: 0 }),
        ev(120, TraceKind::PlacementStarted { job, target: on }),
    ] {
        sink.record(&e);
    }
    sink.finish(SimTime::from_secs(200));
    assert!(sink.violations().iter().any(|v| matches!(
        v.kind,
        AuditViolationKind::CapacityExceeded { dimension: "cpu", granted_milli: 500, capacity_milli: 400, .. }
    )), "{:?}", sink.violations());
}
