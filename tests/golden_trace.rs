//! Golden-trace regression guard.
//!
//! Runs the paper-month scenario at a pinned seed and hashes every JSONL
//! trace line. The digest below was captured before the hot-path
//! optimization work began; any change to it means an "optimization"
//! altered simulation behavior — bit-identical output is the contract that
//! makes aggressive hot-path work safe.
//!
//! If you *intentionally* change simulation semantics (new event kind, new
//! scheduling rule), re-pin the digest in the same commit and say so in the
//! commit message.

mod common;

use common::{fnv1a64, FNV_OFFSET, GOLDEN_SEED};
use condor_core::chaos::ChaosSchedule;
use condor_core::cluster::{Run, RunOutput};
use condor_core::config::PoolTopology;
use condor_sim::time::SimDuration;
use condor_workload::scenarios::{fleet_scale, paper_month, Scenario};

/// The pinned digest of the paper-month JSONL trace at seed 1988.
/// Captured from the pre-optimization simulator; see module docs.
const GOLDEN_DIGEST: u64 = 0xE7D7_8885_6DED_7AEA;
const GOLDEN_EVENTS: usize = 56_869;

fn digest(out: &RunOutput) -> (u64, usize) {
    let mut hash = FNV_OFFSET;
    let mut events = 0usize;
    for ev in out.trace.events() {
        hash = fnv1a64(ev.to_jsonl().as_bytes(), hash);
        hash = fnv1a64(b"\n", hash);
        events += 1;
    }
    (hash, events)
}

fn run(scenario: Scenario) -> RunOutput {
    Run::new(scenario.config).specs(scenario.jobs).horizon(scenario.horizon).execute()
}

fn run_on(scenario: Scenario, threads: usize) -> RunOutput {
    Run::new(scenario.config)
        .specs(scenario.jobs)
        .horizon(scenario.horizon)
        .threads(threads)
        .execute()
}

#[test]
fn paper_month_trace_digest_is_stable() {
    let scenario = paper_month(GOLDEN_SEED);
    let out = run(scenario);
    let (hash, events) = digest(&out);
    assert_eq!(
        events, GOLDEN_EVENTS,
        "paper-month event count changed — simulation behavior drifted"
    );
    assert_eq!(
        hash, GOLDEN_DIGEST,
        "paper-month JSONL trace digest changed (got {hash:#018X}) — \
         an optimization altered simulation behavior"
    );
}

/// Fleet-scale pin: 1,000 stations over two days at the same seed. The
/// 40-station paper month exercises every subsystem but touches only a
/// handful of coordinator-cache words; this digest pins the *scale* path —
/// bitset maintenance, truncated free lists, capacity indexes — where an
/// off-by-one would never perturb a small fleet. `fleet_scale` ships with
/// tracing off (it is a throughput scenario); the pin turns it back on.
const FLEET_GOLDEN_DIGEST: u64 = 0xB4B1_335B_8FE9_A915;
const FLEET_GOLDEN_EVENTS: usize = 61_415;

#[test]
fn fleet_scale_1000_station_trace_digest_is_stable() {
    let mut scenario = fleet_scale(GOLDEN_SEED, 1000, 1, 2);
    scenario.config.record_trace = true;
    let out = run(scenario);
    let (hash, events) = digest(&out);
    assert_eq!(
        events, FLEET_GOLDEN_EVENTS,
        "1,000-station event count changed — simulation behavior drifted"
    );
    assert_eq!(
        hash, FLEET_GOLDEN_DIGEST,
        "1,000-station JSONL trace digest changed (got {hash:#018X}) — \
         a fleet-scale optimization altered simulation behavior"
    );
}

/// A configured-but-empty chaos schedule must be invisible: fault
/// injection is pre-expanded schedule data, never a hot-path RNG draw, so
/// zero faults means zero perturbation — bit for bit.
#[test]
fn zero_fault_chaos_matches_the_golden_digest() {
    let mut scenario = paper_month(GOLDEN_SEED);
    scenario.config.chaos = Some(ChaosSchedule::default());
    let out = run(scenario);
    let (hash, events) = digest(&out);
    assert_eq!(events, GOLDEN_EVENTS, "an empty chaos schedule changed the event count");
    assert_eq!(
        hash, GOLDEN_DIGEST,
        "an empty chaos schedule perturbed the trace (got {hash:#018X})"
    );
}

/// A one-pool topology routes through the windowed sharded runner and its
/// general merge — its trace is recorded from the shard's log, drained
/// barrier by barrier, not by the shard itself — yet must stay
/// bit-identical to the classic serial run at every worker thread count.
/// This is the anchor that lets the parallel path share the serial path's
/// golden digest.
#[test]
fn one_pool_topology_matches_the_golden_digest_at_any_thread_count() {
    for threads in [1, 2, 4, 8] {
        let mut scenario = paper_month(GOLDEN_SEED);
        scenario.config.topology = Some(PoolTopology::uniform(1, SimDuration::from_secs(60)));
        let out = run_on(scenario, threads);
        let (hash, events) = digest(&out);
        assert_eq!(
            events, GOLDEN_EVENTS,
            "one-pool sharded run changed the event count at {threads} threads"
        );
        assert_eq!(
            hash, GOLDEN_DIGEST,
            "one-pool sharded run diverged from the golden digest at \
             {threads} threads (got {hash:#018X})"
        );
    }
    // With no pinned count, the sharded runner falls back to
    // `default_threads()`, which honors CONDOR_THREADS — the CI
    // determinism smoke sets it to 4 so a real multi-worker run flows
    // through this arm.
    let mut scenario = paper_month(GOLDEN_SEED);
    scenario.config.topology = Some(PoolTopology::uniform(1, SimDuration::from_secs(60)));
    let out = run(scenario);
    assert_eq!(
        digest(&out),
        (GOLDEN_DIGEST, GOLDEN_EVENTS),
        "one-pool sharded run diverged under default_threads()"
    );
}

/// The multi-pool partitioned simulation is a *different* model than the
/// monolithic one (per-pool coordinators, decorrelated owner streams), so
/// it has its own trace — but that trace must be bit-identical at every
/// worker thread count: threads only change how many shards advance
/// concurrently, never what any shard computes.
#[test]
fn multi_pool_trace_is_bit_identical_at_any_thread_count() {
    let mut reference: Option<(u64, usize)> = None;
    for threads in [1, 2, 4, 8] {
        let mut scenario = paper_month(GOLDEN_SEED);
        scenario.config.topology =
            Some(PoolTopology::uniform(4, SimDuration::from_secs(300)));
        let out = run_on(scenario, threads);
        let d = digest(&out);
        assert!(d.1 > 0, "multi-pool run produced an empty trace");
        match reference {
            None => reference = Some(d),
            Some(r) => assert_eq!(
                d, r,
                "multi-pool trace diverged between 1 and {threads} threads"
            ),
        }
    }
}

/// The golden *family*: one pin per allocation policy and one Up-Down pin
/// per optional feature, so a refactor of the resident transitions cannot
/// drift on a path the two headline scenarios never reach. Every member is
/// two hashes:
///
/// * the **trace** half — the JSONL digest above;
/// * the **ledger** half — [`ledger_digest`], over everything the trace
///   does not carry: `Totals`, each job's accounting, and the hourly
///   `local_busy`/`remote_busy` buckets. Accrual and utilization deposits
///   are invisible on the trace; only this half sees them move.
///
/// A ledger-only re-pin (trace halves untouched) is how an accounting fix
/// shows up here; name each moved member in the commit message.
mod family {
    use super::*;
    use crate::common::FAMILY;

    /// FNV-1a over the run's accounting state, rendered canonically:
    /// `Totals` through its `Debug` form (all integer counters), then one
    /// line per job, then the exact bit patterns of every hourly bucket.
    fn ledger_digest(out: &RunOutput) -> u64 {
        let mut hash = fnv1a64(format!("{:?}\n", out.totals).as_bytes(), FNV_OFFSET);
        for j in &out.jobs {
            let line = format!(
                "{} {} {} {} {} {:?} {} {}\n",
                j.spec.id.0,
                j.work_done.as_millis(),
                j.work_lost.as_millis(),
                j.checkpoints,
                j.placements,
                j.completed_at.map(|t| t.as_millis()),
                j.remote_cpu.as_millis(),
                j.support_us,
            );
            hash = fnv1a64(line.as_bytes(), hash);
        }
        let hours = (out.horizon.as_millis() / 3_600_000) as usize + 1;
        for acc in [&out.local_busy, &out.remote_busy] {
            for v in acc.bucket_totals(hours) {
                hash = fnv1a64(&v.to_bits().to_le_bytes(), hash);
            }
        }
        hash
    }

    /// `(name, trace digest, event count, ledger digest)`, parallel to
    /// [`FAMILY`], which holds each member's scenario.
    type Pin = (&'static str, u64, usize, u64);

    const PINS: [Pin; 13] = [
        ("policy/up-down", 0x42CD_55EE_B959_E713, 20_294, 0xD730_87C2_FE46_239E),
        ("policy/fifo", 0xFB2A_E380_A4EF_9D1E, 20_248, 0x22C3_856C_9C09_0A23),
        ("policy/round-robin", 0x7189_6877_A76A_13F8, 20_287, 0xB112_AE00_1728_7D54),
        ("policy/random", 0x5793_822E_DE7D_B7F2, 20_285, 0x6F98_E385_0E20_86B8),
        ("policy/frac", 0xBA13_3824_F76A_5406, 27_258, 0xDE4D_EBA2_30DD_A2EB),
        ("policy/redundant-k2", 0x50D8_B7A8_22C4_F5D3, 16_281, 0x42C0_81E5_23A1_58AD),
        ("policy/history-aware", 0x9108_2CE6_7886_A0DC, 19_847, 0xC971_949C_783F_81B1),
        ("feature/fractional", 0xC40C_12A5_3C56_9C81, 27_390, 0xAF42_9CE7_BA5C_EECC),
        ("feature/chaos-12", 0x3A83_2CF9_DB93_E717, 20_260, 0xBCF8_649E_DCB6_BD16),
        ("feature/gangs-3", 0xE72B_29B4_1E29_1966, 18_210, 0xC9CD_DE3B_F3C1_9361),
        ("feature/reservations", 0x5C8C_E9AB_76C4_C3B3, 20_070, 0x8A52_D341_3F80_BAA5),
        ("feature/failures-kill", 0xCAA7_3F03_4D53_907C, 20_634, 0x28C6_6A0F_A482_68CD),
        ("feature/pools-4-month", 0x6F51_2EF6_52E2_BB5B, 125_841, 0xE57C_3007_E89B_BB6A),
    ];

    /// Runs every member, then fails once with the full table — in
    /// paste-ready form — if any half of any pin moved.
    #[test]
    fn every_family_pin_is_stable() {
        let got: Vec<(u64, usize, u64)> = PINS
            .iter()
            .zip(&FAMILY)
            .map(|((pinned, ..), (name, build))| {
                assert_eq!(pinned, name, "PINS and FAMILY list the members in the same order");
                let out = run(build());
                let (trace, events) = digest(&out);
                (trace, events, ledger_digest(&out))
            })
            .collect();
        let mut moved = Vec::new();
        for ((name, trace, events, ledger), g) in PINS.iter().zip(&got) {
            if (g.0, g.1) != (*trace, *events) {
                moved.push(format!("{name}: trace half"));
            }
            if g.2 != *ledger {
                moved.push(format!("{name}: ledger half"));
            }
        }
        let table: Vec<String> = PINS
            .iter()
            .zip(&got)
            .map(|((name, ..), g)| format!("{name}: {:#018X}, {}, {:#018X}", g.0, g.1, g.2))
            .collect();
        assert!(
            moved.is_empty(),
            "golden family drifted — {moved:?}\ncurrent values:\n{}",
            table.join("\n")
        );
    }
}
