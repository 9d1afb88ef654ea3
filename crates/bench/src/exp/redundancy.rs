//! Speculative replication and opportunistic checkpointing under fire.
//!
//! Condor's guarantee machinery (checkpointing, rollback) makes failures
//! survivable; the redundancy policy family tries to make them *cheap*.
//! This experiment races three policies — plain Up-Down, Up-Down plus
//! `k = 2` speculative replicas (cancel-on-first-finish), and the same
//! with the hazard-driven opportunistic checkpoint timer — across three
//! fault regimes: a calm cluster, a mixed chaos schedule, and repeated
//! coordinator outages. Every run streams through the [`AuditSink`], so
//! the numbers below are conservation-checked: each spawned replica is
//! matched by exactly one cancellation or one completion, and the wasted
//! work column is the audited sum of the cancelled copies' progress.
//!
//! The headline claim (asserted at the bottom): under coordinator
//! outages, replication buys back wait ratio — a replica on a surviving
//! idle station finishes the job even when the primary is evicted at a
//! moment the coordinator cannot re-place it.
//!
//! `--quick` shrinks the month to the one-week close-up for CI.

use condor_core::audit::AuditSink;
use condor_core::chaos::{ChaosEntry, ChaosGen, ChaosSchedule, Fault};
use condor_core::cluster::{Run, RunOutput};
use condor_core::config::PolicyKind;
use condor_core::redundancy::{CkptTiming, RedundancyConfig};
use condor_core::telemetry::SharedSink;
use condor_metrics::replicate::par_map;
use condor_metrics::summary::{summarize, RunSummary};
use condor_metrics::table::{num, Align, Table};
use condor_sim::time::{SimDuration, SimTime};
use condor_workload::scenarios::{one_week, paper_month, Scenario};

use super::Ctx;
use crate::EXPERIMENT_SEED;

/// A 6-hour coordinator outage every 12 hours — the §4 "central machine
/// crashes" scenario, recurring. Placements stop inside each window;
/// owners keep returning; evicted jobs wait for recovery.
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

fn policies() -> Vec<(&'static str, PolicyKind)> {
    vec![
        ("up-down", PolicyKind::default()),
        (
            "redundant k=2",
            PolicyKind::Redundant(RedundancyConfig::default()),
        ),
        (
            "redundant k=2 + opp-ckpt",
            PolicyKind::Redundant(RedundancyConfig {
                checkpointing: CkptTiming::Opportunistic {
                    check_every: SimDuration::from_minutes(10),
                    hazard_threshold: 1.0,
                },
                ..RedundancyConfig::default()
            }),
        ),
    ]
}

struct Case {
    regime: &'static str,
    policy: &'static str,
    out: RunOutput,
    summary: RunSummary,
    violations: Vec<String>,
    audited: (u64, u64, u64),
}

fn run_case(
    scenario: Scenario,
    policy: PolicyKind,
    chaos: Option<ChaosSchedule>,
) -> (RunOutput, Vec<String>, (u64, u64, u64)) {
    let mut config = scenario.config;
    config.policy = policy;
    config.chaos = chaos;
    // Chaos perturbs the poll grid, so pin the audited cadence instead of
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

pub(super) fn run(ctx: &Ctx) {
    let quick = ctx.quick;
    let scenario = |seed| if quick { one_week(seed) } else { paper_month(seed) };
    let horizon = scenario(EXPERIMENT_SEED).horizon;
    let faults = if quick { 14 } else { 60 };
    let regimes: Vec<(&'static str, Option<ChaosSchedule>)> = vec![
        ("calm", None),
        (
            "mixed faults",
            Some(ChaosSchedule::generate(
                EXPERIMENT_SEED,
                &ChaosGen { horizon, stations: 23, faults },
            )),
        ),
        ("coord outages", Some(outage_schedule(horizon))),
    ];

    let grid: Vec<(usize, usize)> = (0..regimes.len())
        .flat_map(|r| (0..policies().len()).map(move |p| (r, p)))
        .collect();
    let cases: Vec<Case> = par_map(&grid, |&(r, p)| {
        let (regime, chaos) = &regimes[r];
        let (policy, kind) = &policies()[p];
        let (out, violations, audited) =
            run_case(scenario(EXPERIMENT_SEED), *kind, chaos.clone());
        let summary = summarize(&out);
        Case { regime, policy, out, summary, violations, audited }
    });

    println!(
        "== redundancy policy family, {} ==",
        if quick { "one week (--quick)" } else { "paper month" }
    );
    let mut t = Table::new(
        vec![
            "Regime",
            "Policy",
            "Done",
            "Mean wait ratio",
            "Leverage",
            "Replicas",
            "Wins",
            "Wasted (h)",
        ],
        vec![
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );
    for c in &cases {
        let s = &c.summary;
        let wins = s.replicas_spawned - s.replicas_cancelled;
        t.row(vec![
            c.regime.into(),
            c.policy.into(),
            format!("{}/{}", s.jobs_completed, s.jobs_submitted),
            num(s.mean_wait_ratio, 2),
            num(s.mean_leverage, 1),
            s.replicas_spawned.to_string(),
            wins.to_string(),
            num(s.wasted_replica_hours, 1),
        ]);
    }
    println!("{}", t.render());
    println!("a replica 'win' is a job whose speculative copy finished before the primary;");
    println!("'wasted' prices every cancelled copy's progress — the cost of the insurance.\n");

    // Every cell above is conservation-checked.
    for c in &cases {
        assert!(
            c.violations.is_empty(),
            "audit violations under {} / {}: {:?}",
            c.regime,
            c.policy,
            c.violations
        );
        let (spawned, cancelled, wasted_ms) = c.audited;
        assert_eq!(spawned, c.out.totals.replicas_spawned, "{}/{}", c.regime, c.policy);
        assert_eq!(cancelled, c.out.totals.replicas_cancelled, "{}/{}", c.regime, c.policy);
        assert_eq!(
            wasted_ms, c.out.totals.wasted_replica_work,
            "audited wasted work must match the simulator's own ledger ({}/{})",
            c.regime, c.policy
        );
        if matches!(
            (c.policy, c.regime),
            ("up-down", _)
        ) {
            assert_eq!(spawned, 0, "up-down must never replicate");
        }
    }

    // One seed is one anecdote; the verdict is a workload-seed sweep over
    // the outage regime, replication off vs on, paired per seed.
    let sweep_seeds = if quick { 8 } else { 12 };
    let sweep: Vec<(u64, bool)> = (0..sweep_seeds)
        .flat_map(|i| [(EXPERIMENT_SEED + i, false), (EXPERIMENT_SEED + i, true)])
        .collect();
    let sweep_waits: Vec<f64> = par_map(&sweep, |&(seed, redundant)| {
        let sc = scenario(seed);
        let policy = if redundant {
            PolicyKind::Redundant(RedundancyConfig::default())
        } else {
            PolicyKind::default()
        };
        let (out, violations, _) = run_case(sc, policy, Some(outage_schedule(horizon)));
        assert!(violations.is_empty(), "sweep seed {seed} violations: {violations:?}");
        summarize(&out).mean_wait_ratio
    });
    let (mut plain, mut redundant, mut seeds_won) = (0.0, 0.0, 0u64);
    for pair in sweep_waits.chunks(2) {
        plain += pair[0];
        redundant += pair[1];
        if pair[1] <= pair[0] {
            seeds_won += 1;
        }
    }
    plain /= sweep_seeds as f64;
    redundant /= sweep_seeds as f64;
    println!(
        "coordinator-outage sweep over {sweep_seeds} workload seeds: mean wait ratio \
         {} (up-down) -> {} (redundant k=2), better-or-equal on {seeds_won}/{sweep_seeds} seeds",
        num(plain, 3),
        num(redundant, 3)
    );
    assert!(
        redundant < plain,
        "replication must buy back mean wait ratio under coordinator outages \
         (up-down {plain:.3} vs redundant {redundant:.3})"
    );
    let spawned: u64 = cases.iter().map(|c| c.summary.replicas_spawned).sum();
    assert!(spawned > 0, "the redundant runs must actually replicate");
}
