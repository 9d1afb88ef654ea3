//! Ready-made experiment scenarios.
//!
//! Each scenario bundles a cluster configuration, a job trace, and a run
//! horizon — everything a [`condor_core::cluster::Run`] needs. The
//! flagship is [`paper_month`], calibrated to Table 1 of the paper: five
//! users (heavy A, light B–E), 918 jobs, ≈ 4771 CPU-hours of demand over a
//! 30-day month on 23 workstations.

use condor_core::config::{ClusterConfig, PoolTopology};
use condor_core::job::{JobSpec, SpeedupCurve, UserId};
use condor_model::station::{Arch, ArchSet};
use condor_net::NodeId;
use condor_sim::rng::SimRng;
use condor_sim::time::SimDuration;

use crate::trace::merge_users;
use crate::user::UserProfile;

/// A fully specified experiment input.
#[derive(Debug)]
pub struct Scenario {
    /// Human-readable name.
    pub name: &'static str,
    /// Cluster configuration.
    pub config: ClusterConfig,
    /// The complete job trace.
    pub jobs: Vec<JobSpec>,
    /// Observation window.
    pub horizon: SimDuration,
}

/// The paper's Table 1 user mix: `(letter index, jobs, mean demand hours)`.
pub const PAPER_USERS: [(u32, usize, f64); 5] = [
    (0, 690, 6.2), // A — the heavy user
    (1, 138, 2.5), // B
    (2, 39, 2.6),  // C
    (3, 40, 0.7),  // D
    (4, 11, 1.7),  // E
];

/// The paper's one-month observation: 23 VAXstation-class machines, five
/// users with Table 1's job counts and demands, batch arrivals, diurnal
/// owner activity.
///
/// The heavy user's jobs are spread through the month in large batches so a
/// standing queue of ≈ 30 jobs forms (paper Fig. 3); light users submit a
/// handful of ≈ 5-job batches.
pub fn paper_month(seed: u64) -> Scenario {
    let horizon = SimDuration::from_days(30);
    let config = ClusterConfig {
        stations: 23,
        seed,
        ..ClusterConfig::default()
    };
    let root = SimRng::seed_from(seed);
    let mut per_user = Vec::new();
    let mut first_id = 0u64;
    for (u, jobs, mean_h) in PAPER_USERS {
        let mut profile = UserProfile::with_mean_demand(
            UserId(u),
            NodeId::new(u), // each user submits from their own workstation
            jobs,
            mean_h,
        );
        if u == 0 {
            // The heavy user scripts large submission loops.
            profile.mean_batch_size = 12.0;
        }
        let mut rng = root.substream(seed, &format!("user-{u}"));
        let generated = profile.generate(horizon, &mut rng, first_id);
        first_id += generated.len() as u64;
        per_user.push(generated);
    }
    Scenario {
        name: "paper-month",
        config,
        jobs: merge_users(per_user),
        horizon,
    }
}

/// One working week (Monday–Sunday) with the same user mix scaled down
/// proportionally — the close-up of Figures 6 and 7.
pub fn one_week(seed: u64) -> Scenario {
    let horizon = SimDuration::from_days(7);
    let config = ClusterConfig {
        stations: 23,
        seed,
        ..ClusterConfig::default()
    };
    let root = SimRng::seed_from(seed);
    let mut per_user = Vec::new();
    let mut first_id = 0u64;
    for (u, jobs, mean_h) in PAPER_USERS {
        let scaled = ((jobs as f64) * 7.0 / 30.0).round().max(1.0) as usize;
        let mut profile =
            UserProfile::with_mean_demand(UserId(u), NodeId::new(u), scaled, mean_h);
        if u == 0 {
            profile.mean_batch_size = 12.0;
        }
        let mut rng = root.substream(seed, &format!("week-user-{u}"));
        let generated = profile.generate(horizon, &mut rng, first_id);
        first_id += generated.len() as u64;
        per_user.push(generated);
    }
    Scenario {
        name: "one-week",
        config,
        jobs: merge_users(per_user),
        horizon,
    }
}

/// A controlled fairness duel: one heavy user flooding the system from
/// station 0, one light user submitting a small batch every day from
/// station 1. Used by the policy-comparison experiment to reproduce the
/// paper's claim that Up-Down protects light users.
pub fn fairness_duel(seed: u64, stations: usize, days: u64) -> Scenario {
    let horizon = SimDuration::from_days(days);
    let config = ClusterConfig {
        stations,
        seed,
        ..ClusterConfig::default()
    };
    let root = SimRng::seed_from(seed);
    // Heavy user: enough 8-hour jobs to keep every machine busy all window.
    let heavy_jobs = (stations as f64 * days as f64 * 24.0 / 8.0 * 1.5) as usize;
    let mut heavy =
        UserProfile::with_mean_demand(UserId(0), NodeId::new(0), heavy_jobs, 8.0);
    heavy.mean_batch_size = 16.0;
    let mut rng_h = root.substream(seed, "duel-heavy");
    let heavy_list = heavy.generate(horizon, &mut rng_h, 0);

    // Light user: a 3-job batch of 1-hour jobs each day.
    let light = UserProfile::with_mean_demand(
        UserId(1),
        NodeId::new(1),
        (3 * days) as usize,
        1.0,
    );
    let mut rng_l = root.substream(seed, "duel-light");
    let light_list = light.generate(horizon, &mut rng_l, heavy_list.len() as u64);

    Scenario {
        name: "fairness-duel",
        config,
        jobs: merge_users(vec![heavy_list, light_list]),
        horizon,
    }
}

/// A fleet-scale throughput scenario: `stations` machines over `days`
/// days with a synthetic user population of about one submitting user per
/// six stations, homes spread evenly across the fleet. With `pools > 1`
/// the fleet is partitioned into equal pool shards joined by a uniform
/// 300-second link, which routes the run through the space-parallel
/// sharded simulation (see `condor_core::shard`); `pools == 1` keeps the
/// classic monolithic configuration. Tracing is disabled — this scenario
/// exists to measure simulation throughput (`cluster/stations/*` and
/// `cluster/par/*` bench rows), not to be inspected event by event.
pub fn fleet_scale(seed: u64, stations: usize, pools: usize, days: u64) -> Scenario {
    assert!(pools >= 1, "at least one pool");
    assert!(stations >= pools, "{stations} stations cannot fill {pools} pools");
    let horizon = SimDuration::from_days(days);
    let mut config = ClusterConfig {
        stations,
        seed,
        record_trace: false,
        ..ClusterConfig::default()
    };
    if pools > 1 {
        config.topology = Some(PoolTopology::uniform(pools, SimDuration::from_secs(300)));
    }
    let root = SimRng::seed_from(seed);
    let users = (stations / 6).max(1);
    let jobs_per_user = (days as usize * 3).max(1);
    let mut per_user = Vec::new();
    let mut first_id = 0u64;
    for u in 0..users {
        let home = NodeId::new((u * stations / users) as u32);
        let profile = UserProfile::with_mean_demand(
            UserId(u as u32),
            home,
            jobs_per_user,
            2.0,
        );
        let mut rng = root.substream(seed, &format!("fleet-user-{u}"));
        let generated = profile.generate(horizon, &mut rng, first_id);
        first_id += generated.len() as u64;
        per_user.push(generated);
    }
    Scenario {
        name: "fleet-scale",
        config,
        jobs: merge_users(per_user),
        horizon,
    }
}

/// Stamps a deterministic mix of speedup curves onto a job trace: a
/// `saturating` fraction of jobs become I/O-bound
/// ([`SpeedupCurve::Saturating`] with a knee drawn uniformly from
/// 400–900 milli-CPUs), a `thrashing` fraction get the quadratic
/// [`SpeedupCurve::Thrashing`] collapse, and the rest stay
/// [`SpeedupCurve::Linear`]. Whole-machine grants run at reference speed
/// under every curve, so scenarios that never split a station are
/// bit-identical with or without this call — the curves only matter to
/// fractional-capacity placements.
pub fn assign_speedup_mix(jobs: &mut [JobSpec], seed: u64, saturating: f64, thrashing: f64) {
    assert!(
        saturating >= 0.0 && thrashing >= 0.0 && saturating + thrashing <= 1.0,
        "fractions {saturating}+{thrashing} must fit in [0, 1]"
    );
    let mut rng = SimRng::seed_from(seed ^ 0x5bee_d0b5);
    for job in jobs.iter_mut() {
        let roll = rng.uniform_f64();
        job.speedup = if roll < saturating {
            SpeedupCurve::Saturating {
                knee_milli: rng.uniform_range_u64(400, 900) as u32,
            }
        } else if roll < saturating + thrashing {
            SpeedupCurve::Thrashing
        } else {
            SpeedupCurve::Linear
        };
    }
}

/// The §5(4) what-if: the department adds SUN workstations. Half the
/// fleet is SUN (alternating pattern); the given fraction of each user's
/// jobs is recompiled for both architectures, the rest stay VAX-only.
pub fn mixed_arch_month(seed: u64, dual_binary_fraction: f64) -> Scenario {
    assert!(
        (0.0..=1.0).contains(&dual_binary_fraction),
        "fraction {dual_binary_fraction} outside [0, 1]"
    );
    let mut scenario = paper_month(seed);
    scenario.name = "mixed-arch-month";
    scenario.config.arch_pattern = vec![Arch::Vax, Arch::Sun];
    let mut rng = SimRng::seed_from(seed ^ 0x5e5e);
    for job in &mut scenario.jobs {
        job.binaries = if rng.chance(dual_binary_fraction) {
            ArchSet::both()
        } else {
            ArchSet::vax_only()
        };
    }
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::table1_rows;

    #[test]
    fn paper_month_matches_table1_structure() {
        let s = paper_month(1988);
        assert_eq!(s.jobs.len(), 918);
        let rows = table1_rows(&s.jobs);
        assert_eq!(rows.len(), 5);
        // Job counts are exact.
        let counts: Vec<usize> = rows.iter().map(|r| r.jobs).collect();
        assert_eq!(counts, vec![690, 138, 39, 40, 11]);
        // Demand means are statistical; tolerance scales with sample size
        // (the hyperexponential has a coefficient of variation well above
        // 1, so 39- and 11-job users are noisy).
        for (row, (_, n, mean)) in rows.iter().zip(PAPER_USERS) {
            let rel = (row.mean_demand_hours - mean).abs() / mean;
            // ~2 standard errors for a CV≈2.5 hyperexponential; tight
            // enough to catch a mis-parameterised distribution, loose
            // enough not to depend on one particular RNG stream.
            let tol = (5.0 / (n as f64).sqrt()).max(0.15);
            assert!(
                rel < tol,
                "user {} mean {:.2} vs target {mean} (tol {tol:.2})",
                row.user,
                row.mean_demand_hours
            );
        }
        // Total demand in the right ballpark (paper: 4771 h).
        let total: f64 = rows.iter().map(|r| r.total_demand_hours).sum();
        assert!(
            (3_300.0..=6_300.0).contains(&total),
            "total demand {total} h"
        );
        // Heavy user dominates demand.
        assert!(rows[0].pct_demand > 75.0, "A holds {}%", rows[0].pct_demand);
    }

    #[test]
    fn paper_month_ids_are_dense_and_ordered() {
        let s = paper_month(7);
        for (i, j) in s.jobs.iter().enumerate() {
            assert_eq!(j.id.0 as usize, i);
        }
        for w in s.jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // All homes within the 23-station fleet.
        assert!(s.jobs.iter().all(|j| j.home.as_usize() < 23));
    }

    #[test]
    fn one_week_is_proportionally_smaller() {
        let s = one_week(3);
        let month = paper_month(3);
        assert!(s.jobs.len() * 3 < month.jobs.len());
        assert_eq!(s.horizon, SimDuration::from_days(7));
        assert!(!s.jobs.is_empty());
    }

    #[test]
    fn fairness_duel_shape() {
        let s = fairness_duel(5, 8, 4);
        let heavy = s.jobs.iter().filter(|j| j.user == UserId(0)).count();
        let light = s.jobs.iter().filter(|j| j.user == UserId(1)).count();
        assert_eq!(light, 12);
        assert!(heavy > 8 * 4 * 3, "heavy user must oversubscribe");
    }

    #[test]
    fn mixed_arch_month_splits_binaries() {
        let s = mixed_arch_month(9, 0.5);
        assert_eq!(s.config.arch_pattern, vec![Arch::Vax, Arch::Sun]);
        let dual = s.jobs.iter().filter(|j| j.binaries == ArchSet::both()).count();
        let frac = dual as f64 / s.jobs.len() as f64;
        assert!((frac - 0.5).abs() < 0.08, "dual fraction {frac}");
        let all_vax = mixed_arch_month(9, 0.0);
        assert!(all_vax.jobs.iter().all(|j| j.binaries == ArchSet::vax_only()));
    }

    #[test]
    fn fleet_scale_partitions_cleanly() {
        let s = fleet_scale(11, 120, 4, 7);
        assert_eq!(s.config.stations, 120);
        assert!(!s.config.record_trace);
        let topo = s.config.topology.as_ref().expect("pools > 1 sets a topology");
        assert_eq!(topo.pools, 4);
        // Dense ids in arrival order, homes inside the fleet, no deps —
        // the shape the shard partitioner requires.
        for (i, j) in s.jobs.iter().enumerate() {
            assert_eq!(j.id.0 as usize, i);
            assert!(j.home.as_usize() < 120);
            assert!(j.depends_on.is_empty());
        }
        for w in s.jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        // One pool keeps the monolithic configuration; the build stays
        // deterministic.
        assert!(fleet_scale(11, 120, 1, 7).config.topology.is_none());
        assert_eq!(fleet_scale(11, 120, 4, 7).jobs, s.jobs);
    }

    #[test]
    fn speedup_mix_is_deterministic_and_proportional() {
        let mut a = paper_month(4).jobs;
        let mut b = paper_month(4).jobs;
        assign_speedup_mix(&mut a, 77, 0.3, 0.2);
        assign_speedup_mix(&mut b, 77, 0.3, 0.2);
        assert_eq!(a, b);
        let sat = a
            .iter()
            .filter(|j| matches!(j.speedup, SpeedupCurve::Saturating { .. }))
            .count() as f64
            / a.len() as f64;
        let thrash = a
            .iter()
            .filter(|j| j.speedup == SpeedupCurve::Thrashing)
            .count() as f64
            / a.len() as f64;
        assert!((sat - 0.3).abs() < 0.07, "saturating fraction {sat}");
        assert!((thrash - 0.2).abs() < 0.07, "thrashing fraction {thrash}");
        for j in &a {
            if let SpeedupCurve::Saturating { knee_milli } = j.speedup {
                assert!((400..900).contains(&knee_milli));
            }
        }
        // Zero fractions leave the trace untouched.
        let mut c = paper_month(4).jobs;
        assign_speedup_mix(&mut c, 77, 0.0, 0.0);
        assert_eq!(c, paper_month(4).jobs);
    }

    #[test]
    fn scenarios_are_deterministic() {
        let a = paper_month(42);
        let b = paper_month(42);
        assert_eq!(a.jobs, b.jobs);
        let c = paper_month(43);
        assert_ne!(a.jobs, c.jobs);
    }
}
