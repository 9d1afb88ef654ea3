//! Speculative replication under fire and in the regime it is built for.
//!
//! Condor's guarantee machinery (checkpointing, rollback) makes failures
//! survivable; speculative replicas try to make them *cheap*. This
//! experiment races plain Up-Down against Up-Down plus `k = 2` replicas
//! (cancel-on-first-finish) across three fault regimes: a calm cluster,
//! a mixed chaos schedule, and repeated coordinator outages. Every run
//! streams through the [`AuditSink`], so the numbers below are
//! conservation-checked: each spawned replica is matched by exactly one
//! cancellation or one completion, and the wasted work column is the
//! audited sum of the cancelled copies' progress.
//!
//! Two paired workload-seed sweeps close the report. The fair regime of
//! Xu et al. (arXiv:1707.01655) — high job-size variance on an
//! under-loaded fleet — is the asserted claim: replication wins on at
//! least 10 of its 12 seeds. The coordinator-outage sweep is printed, not
//! asserted: a replica on a surviving idle station can finish a job whose
//! primary was evicted while the coordinator could not re-place it, but
//! over 12 seeds that wins on 7, and the mean gap is seed noise.
//!
//! `--quick` shrinks the fault regimes to the one-week close-up for CI;
//! the fair regime is cheap and always runs at full size.

use condor_core::audit::AuditSink;
use condor_core::chaos::{ChaosEntry, ChaosGen, ChaosSchedule, Fault};
use condor_core::cluster::{Run, RunOutput};
use condor_core::config::{ClusterConfig, PolicyKind};
use condor_core::job::UserId;
use condor_core::telemetry::SharedSink;
use condor_metrics::replicate::par_map;
use condor_metrics::summary::{summarize, RunSummary};
use condor_metrics::table::{num, Align, Table};
use condor_net::NodeId;
use condor_sim::dist::Hyperexponential;
use condor_sim::rng::SimRng;
use condor_sim::time::{SimDuration, SimTime};
use condor_workload::scenarios::{one_week, paper_month, Scenario, PAPER_USERS};
use condor_workload::trace::merge_users;
use condor_workload::user::UserProfile;

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

const POLICIES: [(&str, PolicyKind); 2] =
    [("up-down", PolicyKind::UpDown), ("redundant k=2", PolicyKind::Redundant)];

/// The regime Xu et al. say redundancy pays in: the paper month's five
/// users at 5 % of Table 1's job counts (at least one job each) on the
/// same 23 stations, calm, with a high-variance demand — 95 % of jobs
/// need a tenth of the user's mean, and the rest carry the mean.
fn fair_regime(seed: u64) -> Scenario {
    let horizon = SimDuration::from_days(30);
    let root = SimRng::seed_from(seed);
    let mut per_user = Vec::new();
    let mut first_id = 0u64;
    for (u, jobs, mean_h) in PAPER_USERS {
        let count = ((jobs as f64) * 0.05).round().max(1.0) as usize;
        let mut profile =
            UserProfile::with_mean_demand(UserId(u), NodeId::new(u), count, mean_h);
        // p·(m/10) + (1−p)·L = m with p = 0.95.
        let short = mean_h / 10.0;
        let long = (mean_h - 0.95 * short) / 0.05;
        profile.demand_hours = Hyperexponential::new(vec![(0.95, short), (0.05, long)]);
        if u == 0 {
            profile.mean_batch_size = 12.0;
        }
        let mut rng = root.substream(seed, &format!("fair-user-{u}"));
        let generated = profile.generate(horizon, &mut rng, first_id);
        first_id += generated.len() as u64;
        per_user.push(generated);
    }
    Scenario {
        name: "fair-regime",
        config: ClusterConfig { stations: 23, seed, ..ClusterConfig::default() },
        jobs: merge_users(per_user),
        horizon,
    }
}

/// Mean wait ratio of up-down and of `k = 2` over `seeds` paired
/// workload seeds from [`EXPERIMENT_SEED`], and the number of seeds on
/// which replication was better.
fn paired_sweep(
    seeds: u64,
    scenario: impl Fn(u64) -> Scenario + Sync,
    chaos: Option<ChaosSchedule>,
) -> (f64, f64, u64) {
    let sweep: Vec<(u64, PolicyKind)> = (EXPERIMENT_SEED..EXPERIMENT_SEED + seeds)
        .flat_map(|seed| POLICIES.map(|(_, kind)| (seed, kind)))
        .collect();
    let waits: Vec<f64> = par_map(&sweep, |&(seed, policy)| {
        let (out, violations, _) = run_case(scenario(seed), policy, chaos.clone());
        assert!(violations.is_empty(), "sweep seed {seed} violations: {violations:?}");
        summarize(&out).mean_wait_ratio
    });
    let (mut plain, mut redundant, mut won) = (0.0, 0.0, 0u64);
    for pair in waits.chunks(2) {
        plain += pair[0];
        redundant += pair[1];
        if pair[1] < pair[0] {
            won += 1;
        }
    }
    (plain / seeds as f64, redundant / seeds as f64, won)
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
        .flat_map(|r| (0..POLICIES.len()).map(move |p| (r, p)))
        .collect();
    let cases: Vec<Case> = par_map(&grid, |&(r, p)| {
        let (regime, chaos) = &regimes[r];
        let (policy, kind) = &POLICIES[p];
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
        if c.policy == "up-down" {
            assert_eq!(spawned, 0, "up-down must never replicate");
        }
    }

    // One seed is one anecdote; each verdict is a workload-seed sweep,
    // replication off vs on, paired per seed.
    let sweep_seeds = if quick { 8 } else { 12 };
    let (plain, redundant, seeds_won) =
        paired_sweep(sweep_seeds, scenario, Some(outage_schedule(horizon)));
    println!(
        "coordinator-outage sweep over {sweep_seeds} workload seeds: mean wait ratio \
         {} (up-down) -> {} (redundant k=2), better on {seeds_won}/{sweep_seeds} seeds",
        num(plain, 3),
        num(redundant, 3)
    );

    let (plain, redundant, seeds_won) = paired_sweep(12, fair_regime, None);
    println!(
        "fair regime (5 % of Table 1's jobs, 95 % at a tenth of the mean) over 12 workload \
         seeds: mean wait ratio {} (up-down) -> {} (redundant k=2), better on {seeds_won}/12 seeds",
        num(plain, 3),
        num(redundant, 3)
    );
    assert!(
        seeds_won >= 10,
        "replication must pay where Xu et al. say it does: better on {seeds_won}/12 seeds"
    );
    let spawned: u64 = cases.iter().map(|c| c.summary.replicas_spawned).sum();
    assert!(spawned > 0, "the redundant runs must actually replicate");
}
