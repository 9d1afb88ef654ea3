//! Differential battery for the redundancy policy family.
//!
//! Speculative replication spends idle machines on purpose, so the thing
//! to test is not "does it help" in the abstract but *conservation*: every
//! spawned copy must be accounted for — cancelled (with its progress
//! priced into the wasted-work ledger) or converted into the job's
//! completion — no matter what chaos does to the cluster around it. Three
//! layers:
//!
//! 1. A property test folds the raw trace by hand (independently of the
//!    [`AuditSink`]) and checks spawn/cancel/win conservation and the
//!    wasted-work sum against [`Totals`](condor::core::cluster::Totals),
//!    with and without a generated fault schedule.
//! 2. The same runs stream through the auditor, whose own replica
//!    phase-machine must agree with both the hand fold and the simulator.
//! 3. A 25-seed coordinator-outage sweep runs identical workloads under
//!    plain Up-Down and `k = 2`: every run audit-clean, and plain Up-Down
//!    never replicates. Whether replication lowers the mean wait ratio
//!    there is not asserted — over paired seeds it is a coin flip.

use std::collections::HashSet;

use condor::core::chaos::{ChaosEntry, Fault};
use condor::core::cluster::RunOutput;
use condor::metrics::replicate::par_map;
use condor::prelude::*;
use condor_workload::scenarios::Scenario;
use proptest::prelude::*;

/// A 6-hour coordinator outage every 12 hours — the §4 "central machine
/// crashes" scenario, recurring. The regime replication targets: inside
/// each window no placements happen, so a job evicted mid-outage waits
/// for recovery unless a replica on a surviving idle station finishes it.
fn outage_schedule(horizon: SimDuration) -> ChaosSchedule {
    let mut entries = Vec::new();
    let mut at = SimTime::ZERO + SimDuration::from_hours(6);
    let end = SimTime::ZERO + horizon;
    while at < end {
        entries.push(ChaosEntry {
            at,
            fault: Fault::CoordinatorOutage { duration: SimDuration::from_hours(6) },
        });
        at += SimDuration::from_hours(12);
    }
    ChaosSchedule { entries }
}

/// Runs the one-week scenario under `policy` (and optional chaos) with an
/// attached auditor; returns the run plus the audit verdict.
fn audited_run(
    scenario: Scenario,
    policy: PolicyKind,
    chaos: Option<ChaosSchedule>,
) -> (RunOutput, Vec<String>, (u64, u64, u64)) {
    let mut config = scenario.config;
    config.policy = policy;
    config.chaos = chaos;
    // Chaos perturbs the poll grid; pin the audited cadence rather than
    // letting the sink infer it from the first (possibly stretched) gap.
    let audit = SharedSink::new(
        AuditSink::new().with_poll_interval(config.costs.coordinator_poll_interval),
    );
    let out = Run::new(config)
        .specs(scenario.jobs)
        .horizon(scenario.horizon)
        .sink(Box::new(audit.clone()))
        .execute();
    let violations = audit.with(|a| a.violations().iter().map(|v| v.to_string()).collect());
    let audited = audit.with(|a| a.replica_totals());
    (out, violations, audited)
}

/// Hand-rolled replica conservation fold over the raw trace — deliberately
/// independent of the [`AuditSink`] so the two implementations check each
/// other. Returns `(spawned, cancelled, wasted_ms)`.
fn fold_replica_ledger(out: &RunOutput) -> (u64, u64, u64) {
    let mut live: HashSet<(JobId, NodeId)> = HashSet::new();
    let (mut spawned, mut cancelled, mut wasted_ms, mut wins) = (0u64, 0u64, 0u64, 0u64);
    for ev in out.trace.events() {
        match ev.kind {
            TraceKind::ReplicaSpawned { job, on } => {
                assert!(live.insert((job, on)), "second live replica of {job:?} on {on}");
                spawned += 1;
            }
            TraceKind::ReplicaCancelled { job, on, wasted_ms: w } => {
                assert!(live.remove(&(job, on)), "cancel without a spawn: {job:?} on {on}");
                cancelled += 1;
                wasted_ms += w;
            }
            TraceKind::JobCompleted { job, on }
                // A completion on a station holding a live replica of the
                // same job is that replica winning the race.
                if live.remove(&(job, on)) => {
                    wins += 1;
                }
            _ => {}
        }
    }
    assert!(live.is_empty(), "replicas leaked past the end of the run: {live:?}");
    assert_eq!(
        spawned,
        cancelled + wins,
        "every spawn must end in exactly one cancellation or one completion"
    );
    (spawned, cancelled, wasted_ms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Replica conservation, calm and under fire: for any workload seed,
    /// the hand fold, the auditor, and the simulator's own ledger must
    /// agree on spawns, cancellations, and wasted work — with chaos
    /// injecting owner churn, poll loss, partitions, and outages on top.
    #[test]
    fn replica_ledger_is_conserved_with_and_without_chaos(
        seed in 0u64..1_000,
        chaos_seed in 0u64..1_000,
    ) {
        let policy = PolicyKind::Redundant;
        let horizon = one_week(seed).horizon;
        let schedules = [
            None,
            Some(ChaosSchedule::generate(
                chaos_seed,
                &ChaosGen { horizon, stations: 23, faults: 12 },
            )),
        ];
        for chaos in schedules {
            let under_chaos = chaos.is_some();
            let (out, violations, audited) =
                audited_run(one_week(seed), policy, chaos);
            prop_assert!(
                violations.is_empty(),
                "audit violations (seed {seed}, chaos {under_chaos}): {violations:?}"
            );
            let folded = fold_replica_ledger(&out);
            let ledger = (
                out.totals.replicas_spawned,
                out.totals.replicas_cancelled,
                out.totals.wasted_replica_work,
            );
            prop_assert_eq!(
                folded, ledger,
                "trace fold vs simulator ledger (seed {}, chaos {})", seed, under_chaos
            );
            prop_assert_eq!(
                audited, ledger,
                "auditor vs simulator ledger (seed {}, chaos {})", seed, under_chaos
            );
        }
    }
}

/// The battery must actually exercise the machinery: at the pinned seed,
/// the policy under a mixed fault schedule spawns real replicas, wins some
/// races, and prices the losers into the wasted-work ledger.
#[test]
fn the_pinned_seed_spawns_wins_and_prices_replicas() {
    let scenario = one_week(1988);
    let horizon = scenario.horizon;
    let policy = PolicyKind::Redundant;
    let chaos = ChaosSchedule::generate(
        1988,
        &ChaosGen { horizon, stations: 23, faults: 14 },
    );
    let (out, violations, audited) = audited_run(scenario, policy, Some(chaos));
    assert!(violations.is_empty(), "audit violations: {violations:?}");
    let (spawned, cancelled, wasted_ms) = fold_replica_ledger(&out);
    assert!(spawned > 0, "the pinned configuration never replicated");
    assert!(cancelled <= spawned);
    assert_eq!(audited, (spawned, cancelled, wasted_ms));
    if cancelled > 0 {
        assert!(
            wasted_ms > 0,
            "cancelled replicas accrued work, so the waste ledger cannot be empty"
        );
    }
}

/// 25 workload seeds through the coordinator-outage regime, plain Up-Down
/// and `k = 2` on each: every run must be audit-clean, and plain Up-Down
/// must never replicate.
#[test]
fn outage_sweep_is_audit_clean_and_up_down_never_replicates() {
    const SEEDS: u64 = 25;
    let horizon = one_week(1988).horizon;
    let grid: Vec<(u64, bool)> = (0..SEEDS)
        .flat_map(|i| [(1988 + i, false), (1988 + i, true)])
        .collect();
    par_map(&grid, |&(seed, redundant)| {
        let policy = if redundant { PolicyKind::Redundant } else { PolicyKind::UpDown };
        let (out, violations, _) =
            audited_run(one_week(seed), policy, Some(outage_schedule(horizon)));
        assert!(violations.is_empty(), "seed {seed} violations: {violations:?}");
        if !redundant {
            assert_eq!(
                out.totals.replicas_spawned, 0,
                "up-down must never spawn (seed {seed})"
            );
        }
    });
}
