//! Acceptance + property tests for lifecycle spans and online auditing.
//!
//! The ISSUE's bar:
//! * the online [`SpanSink`] must agree exactly with spans rebuilt from a
//!   JSONL round-tripped copy of the same trace (property, across seeds);
//! * every job's per-phase totals must sum to its wall clock;
//! * the [`AuditSink`] must report **zero** violations on seeded
//!   paper-month and stormy runs under every allocation policy.

use condor::core::audit::AuditSink;
use condor::core::config::FailureConfig;
use condor::core::spans::{SpanLog, SpanSink};
use condor::metrics::export::{events_from_jsonl, events_to_jsonl};
use condor::prelude::*;
use condor_model::diurnal::DiurnalProfile;
use condor_model::owner::OwnerConfig;
use proptest::prelude::*;

/// Runs a scenario with both observability sinks attached, returning the
/// run output, the online span log, and the audit verdict.
fn observed_run(
    config: ClusterConfig,
    jobs: Vec<JobSpec>,
    horizon: SimDuration,
) -> (RunOutput, SpanLog, Vec<String>) {
    let spans = SharedSink::new(SpanSink::new());
    let audit = SharedSink::new(AuditSink::new());
    let out = Run::new(config)
        .specs(jobs)
        .horizon(horizon)
        .sink(Box::new(spans.clone()))
        .sink(Box::new(audit.clone()))
        .execute();
    let log = spans.with(|s| s.log().clone());
    let violations = audit.with(|a| {
        a.violations()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
    });
    (out, log, violations)
}

/// Frequent owner churn plus stochastic crashes: the trace exercises
/// suspensions, checkpoint evictions, and rollback paths heavily.
fn stormy_config(seed: u64, policy: PolicyKind) -> ClusterConfig {
    ClusterConfig {
        stations: 8,
        seed,
        policy,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.5),
            mean_active_period: SimDuration::from_minutes(8),
        },
        failures: Some(FailureConfig {
            mtbf: SimDuration::from_days(4),
            mttr: SimDuration::from_hours(2),
        }),
        ..ClusterConfig::default()
    }
}

fn stormy_jobs(n: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            image_bytes: 200_000 + i * 10_000,
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(i),
                UserId((i % 4) as u32),
                NodeId::new((i % 8) as u32),
                SimTime::from_secs(i * 37 * 60),
                SimDuration::from_hours(1 + i % 5),
            )
        })
        .collect()
}

/// Every policy, stormy weather: the auditor stays silent and every job's
/// phase totals tile its wall clock exactly.
#[test]
fn audit_is_clean_and_spans_are_gapless_under_every_policy() {
    let policies = [
        PolicyKind::UpDown,
        PolicyKind::Fifo,
        PolicyKind::RoundRobin,
        PolicyKind::Random,
    ];
    for policy in policies {
        let name = format!("{policy:?}");
        let (out, log, violations) = observed_run(
            stormy_config(99, policy),
            stormy_jobs(40),
            SimDuration::from_days(7),
        );
        assert!(
            violations.is_empty(),
            "[{name}] audit violations: {violations:#?}"
        );
        assert!(!log.jobs.is_empty(), "[{name}] no spans folded");
        for (job, js) in &log.jobs {
            let wall = js.wall(log.finished_at);
            let total = js
                .phase_totals()
                .iter()
                .fold(SimDuration::ZERO, |acc, d| acc + *d);
            assert_eq!(total, wall, "[{name}] phase totals != wall for {job:?}");
            // Spans tile [arrival, completion-or-horizon] without gaps.
            let mut cursor = js.arrived;
            for s in &js.spans {
                assert_eq!(s.from, cursor, "[{name}] span gap for {job:?}");
                cursor = s.until;
            }
        }
        // Station occupancies never overlap.
        for (station, occ) in &log.stations {
            for w in occ.windows(2) {
                assert!(
                    w[0].until <= w[1].from,
                    "[{name}] {station} hosts two jobs at once: {w:?}"
                );
            }
        }
        drop(out);
    }
}

/// The paper month itself (the repo's flagship scenario) audits clean.
#[test]
fn paper_month_audits_clean() {
    let scenario = paper_month(42);
    let (out, log, violations) = observed_run(scenario.config, scenario.jobs, scenario.horizon);
    assert!(violations.is_empty(), "audit violations: {violations:#?}");
    assert!(out.totals.placements > 0);
    // Aggregate breakdown is self-consistent: per-phase time sums to the
    // total wall clock across all jobs.
    let b = log.breakdown();
    let agg = b
        .aggregate
        .iter()
        .fold(SimDuration::ZERO, |acc, d| acc + *d);
    assert_eq!(agg, b.total_wall);
    assert!(b.critical.is_some());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The online fold and a fold of the JSONL round-tripped trace agree
    /// exactly — spans carry no information the portable trace lacks.
    #[test]
    fn online_spans_match_jsonl_replay(seed in 0u64..500) {
        let (out, online, _) = observed_run(
            stormy_config(seed, PolicyKind::UpDown),
            stormy_jobs(16),
            SimDuration::from_days(3),
        );
        let text = events_to_jsonl(out.trace.events());
        let replayed = events_from_jsonl(&text).expect("trace round-trips");
        prop_assert_eq!(replayed.len(), out.trace.len());
        let refold = SpanSink::fold(&replayed, out.horizon);
        prop_assert_eq!(&refold, &online);
    }
}
