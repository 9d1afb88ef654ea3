//! Shared by the integration tests that run the golden *family*: one
//! scenario per allocation policy and one Up-Down scenario per optional
//! feature (`golden_trace` pins their digests, `owner_fold` runs each
//! observed and unobserved) — and the digest `golden_trace` and
//! `experiments` pin with.
#![allow(dead_code)]

use condor_core::chaos::{ChaosGen, ChaosSchedule};
use condor_core::config::{
    EvictionStrategy, FailureConfig, PolicyKind, PoolTopology, Reservation,
};
use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};
use condor_workload::scenarios::{
    assign_speedup_mix, fairness_duel, one_week, paper_month, Scenario,
};

/// FNV-1a, 64-bit. Implemented inline so the guards have zero
/// dependencies and an auditable definition.
pub fn fnv1a64(data: &[u8], mut hash: u64) -> u64 {
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Where an FNV-1a digest starts.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The seed every pinned scenario is built from.
pub const GOLDEN_SEED: u64 = 1988;

/// A saturated 40-station fleet for five days: a heavy user flooding
/// from station 0 and a light user's daily batch from station 1, so
/// owner evictions, grace expiries, in-place resumes and Up-Down
/// priority preemptions all fire.
pub fn loaded() -> Scenario {
    fairness_duel(GOLDEN_SEED, 40, 5)
}

/// The paper's user mix over one week on 40 stations: queues drain
/// between batches, which is the regime replication needs.
pub fn light() -> Scenario {
    let mut s = one_week(GOLDEN_SEED);
    s.config.stations = 40;
    s
}

pub fn with_policy(policy: PolicyKind) -> Scenario {
    let mut s = loaded();
    s.config.policy = policy;
    s
}

/// Mixed station sizes and sub-whole job demands under non-linear
/// speedup curves.
pub fn fractional(policy: PolicyKind) -> Scenario {
    let mut s = with_policy(policy);
    s.config.capacity_profiles =
        vec![ResourceVec::WHOLE, ResourceVec::share(1500), ResourceVec::new(2000, 1000)];
    for j in &mut s.jobs {
        j.resources = ResourceVec::share(250 + 250 * (j.id.0 % 4) as u32);
    }
    assign_speedup_mix(&mut s.jobs, GOLDEN_SEED, 0.3, 0.2);
    s
}

pub fn redundant() -> Scenario {
    let mut s = light();
    s.config.policy = PolicyKind::Redundant;
    s
}

pub fn history_aware() -> Scenario {
    let mut s = loaded();
    s.config.history_aware_placement = true;
    s
}

pub fn chaos() -> Scenario {
    let mut s = loaded();
    let gen = ChaosGen { horizon: s.horizon, stations: 40, faults: 12 };
    s.config.chaos = Some(ChaosSchedule::generate(GOLDEN_SEED, &gen));
    s
}

pub fn gangs() -> Scenario {
    let mut s = light();
    for j in s.jobs.iter_mut().filter(|j| j.id.0 % 5 == 0) {
        j.width = 3;
    }
    s
}

pub fn reservations() -> Scenario {
    let mut s = loaded();
    s.config.reservations = vec![
        Reservation {
            holder: NodeId::new(1),
            machines: 6,
            from: SimTime::from_hours(20),
            until: SimTime::from_hours(44),
        },
        Reservation {
            holder: NodeId::new(0),
            machines: 3,
            from: SimTime::from_hours(70),
            until: SimTime::from_hours(82),
        },
    ];
    s
}

pub fn failures_with_kill() -> Scenario {
    let mut s = loaded();
    s.config.failures = Some(FailureConfig {
        mtbf: SimDuration::from_days(2),
        mttr: SimDuration::from_hours(3),
    });
    s.config.eviction =
        EvictionStrategy::ImmediateKill { checkpoint_every: SimDuration::from_minutes(30) };
    s
}

pub fn four_pool_month() -> Scenario {
    let mut s = paper_month(GOLDEN_SEED);
    s.config.topology = Some(PoolTopology::uniform(4, SimDuration::from_secs(300)));
    s
}

/// A family member: its pin name and its scenario.
pub type Member = (&'static str, fn() -> Scenario);

/// The family, in pin order.
pub const FAMILY: [Member; 13] = [
    ("policy/up-down", loaded),
    ("policy/fifo", || with_policy(PolicyKind::Fifo)),
    ("policy/round-robin", || with_policy(PolicyKind::RoundRobin)),
    ("policy/random", || with_policy(PolicyKind::Random)),
    ("policy/frac", || fractional(PolicyKind::Frac)),
    ("policy/redundant-k2", redundant),
    ("policy/history-aware", history_aware),
    ("feature/fractional", || fractional(PolicyKind::default())),
    ("feature/chaos-12", chaos),
    ("feature/gangs-3", gangs),
    ("feature/reservations", reservations),
    ("feature/failures-kill", failures_with_kill),
    ("feature/pools-4-month", four_pool_month),
];
