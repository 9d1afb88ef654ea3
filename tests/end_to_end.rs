//! End-to-end integration tests over the full stack: workload generation →
//! cluster simulation → metrics, on the paper's own scenarios.

use condor::metrics::summary::{heavy_users, mean_leverage, mean_wait_ratio, summarize};
use condor::prelude::*;
use condor::workload::scenarios::{one_week, paper_month};
use condor::workload::trace::table1_rows;

/// The flagship: the paper-month scenario lands inside the paper's
/// measured envelope on every headline number.
#[test]
fn paper_month_reproduces_section3_numbers() {
    let scenario = paper_month(1988);
    let out = Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute();
    let s = summarize(&out);

    assert_eq!(s.jobs_submitted, 918, "Table 1 job count");
    assert_eq!(s.jobs_completed, 918, "everything finishes within the month");
    // Paper: 12438 available hours, 4771 consumed, ~75% availability,
    // ~25% local utilization, leverage ~1300. Allow ±15% envelopes.
    assert!(
        (10_500.0..=14_500.0).contains(&s.available_hours),
        "available hours {}",
        s.available_hours
    );
    assert!(
        (3_800.0..=5_500.0).contains(&s.consumed_hours),
        "consumed hours {}",
        s.consumed_hours
    );
    assert!((0.65..=0.85).contains(&s.availability), "availability {}", s.availability);
    assert!(
        (0.18..=0.32).contains(&s.local_utilization),
        "local utilization {}",
        s.local_utilization
    );
    assert!(
        (900.0..=1_800.0).contains(&s.mean_leverage),
        "mean leverage {}",
        s.mean_leverage
    );
    // Consumed capacity cannot exceed what was available.
    assert!(s.consumed_hours <= s.available_hours);
}

/// Fig. 4's fairness split: light users wait far less than the heavy user.
#[test]
fn light_users_wait_less_than_the_heavy_user() {
    let scenario = paper_month(1988);
    let out = Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute();
    let heavy = heavy_users(&out.jobs, 0.5);
    assert_eq!(heavy.len(), 1, "user A dominates demand");
    let light_wait = mean_wait_ratio(&out.jobs, |j| !heavy.contains(&j.spec.user)).unwrap();
    let heavy_wait = mean_wait_ratio(&out.jobs, |j| heavy.contains(&j.spec.user)).unwrap();
    assert!(
        heavy_wait > 2.0 * light_wait,
        "Up-Down shield: heavy {heavy_wait:.2} vs light {light_wait:.2}"
    );
}

/// Fig. 9's leverage ordering: longer jobs leverage higher; overall mean in
/// the paper's regime.
#[test]
fn leverage_grows_with_demand() {
    let scenario = paper_month(1988);
    let out = Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute();
    let short = mean_leverage(&out.jobs, |j| j.spec.demand.as_hours_f64() < 2.0).unwrap();
    let long = mean_leverage(&out.jobs, |j| j.spec.demand.as_hours_f64() >= 6.0).unwrap();
    assert!(long > 2.0 * short, "long {long:.0} vs short {short:.0}");
}

/// Fig. 8's shape: short jobs move more often per demand-hour.
#[test]
fn short_jobs_checkpoint_more_per_hour() {
    let scenario = paper_month(1988);
    let out = Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute();
    let rate = |lo: f64, hi: f64| {
        let jobs: Vec<_> = out
            .completed_jobs()
            .filter(|j| {
                let h = j.spec.demand.as_hours_f64();
                h >= lo && h < hi
            })
            .collect();
        jobs.iter().map(|j| j.checkpoint_rate_per_hour()).sum::<f64>() / jobs.len().max(1) as f64
    };
    let short = rate(0.0, 2.0);
    let long = rate(6.0, f64::INFINITY);
    assert!(short > long, "short {short:.2}/h vs long {long:.2}/h");
}

/// Table 1 regenerates from the workload generator.
#[test]
fn table1_counts_are_exact() {
    let rows = table1_rows(&paper_month(1988).jobs);
    let counts: Vec<usize> = rows.iter().map(|r| r.jobs).collect();
    assert_eq!(counts, vec![690, 138, 39, 40, 11]);
    assert!(rows[0].pct_demand > 80.0, "A's share {}", rows[0].pct_demand);
}

/// The week close-up shows the diurnal pattern of Fig. 6: weekday
/// afternoons busier than nights.
#[test]
fn week_shows_diurnal_local_activity() {
    let scenario = one_week(1988);
    let out = Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute();
    let local = out.local_utilization_hourly();
    assert_eq!(local.len(), 168);
    let mut afternoons = Vec::new();
    let mut nights = Vec::new();
    for (h, &u) in local.iter().enumerate() {
        let (day, hour) = (h / 24, h % 24);
        if day < 5 {
            if (12..=16).contains(&hour) {
                afternoons.push(u);
            } else if !(8..=21).contains(&hour) {
                nights.push(u);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&afternoons) > mean(&nights) + 0.1,
        "afternoon {:.2} vs night {:.2}",
        mean(&afternoons),
        mean(&nights)
    );
}

/// Whole-pipeline determinism: scenario → simulation → summary is a pure
/// function of the seed.
#[test]
fn pipeline_is_deterministic() {
    let run = |seed| {
        let s = paper_month(seed);
        let out = Run::new(s.config).specs(s.jobs).horizon(s.horizon).execute();
        let sum = summarize(&out);
        (
            out.totals,
            out.trace.len(),
            sum.consumed_hours.to_bits(),
            sum.mean_leverage.to_bits(),
        )
    };
    assert_eq!(run(1988), run(1988));
    assert_ne!(run(1988), run(1989));
}

/// Up-Down never loses work under the default (grace) strategy, even at
/// month scale with thousands of preemptions.
#[test]
fn no_work_is_ever_lost_under_grace() {
    let scenario = paper_month(2024);
    let out = Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute();
    assert!(out.totals.preemptions_owner > 100, "plenty of preemptions happened");
    for j in &out.jobs {
        assert_eq!(
            j.work_lost,
            SimDuration::ZERO,
            "job {} lost work under the grace strategy",
            j.spec.id
        );
    }
}
