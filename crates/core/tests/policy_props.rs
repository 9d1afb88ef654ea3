//! Property-based tests for the allocation policies: whatever the
//! snapshot, every policy must emit only legal orders, and the Up-Down
//! index dynamics must stay sane.

use condor_core::policy::{
    decide_from_views, validate_orders, AllocationPolicy, FifoPolicy, Order, RandomPolicy,
    RoundRobinPolicy, StationView,
};
use condor_core::updown::{UpDown, UpDownConfig};
use condor_net::NodeId;
use condor_sim::time::SimTime;
use proptest::prelude::*;

mod updown_reference;
use updown_reference::ReferenceUpDown;

/// Arbitrary poll snapshots: per station, (can_host, hosting_for, waiting).
/// The station count is fixed within one generated sequence (a real fleet
/// does not change size between polls), but policies are additionally
/// hardened against shrinking fleets — see `fleet_shrinkage_is_tolerated`.
fn arb_views(stations: usize) -> impl Strategy<Value = Vec<StationView>> {
    prop::collection::vec(
        (any::<bool>(), prop::option::of(0u32..8), 0usize..6),
        stations..=stations,
    )
    .prop_map(|raw| {
        let n = raw.len() as u32;
        raw.into_iter()
            .enumerate()
            .map(|(i, (free, hosting, waiting))| {
                let hosting = hosting.map(|h| NodeId::new(h % n));
                StationView {
                    node: NodeId::new(i as u32),
                    // A station cannot both host and be free.
                    can_host: free && hosting.is_none(),
                    free_cpu_milli: if free && hosting.is_none() { 1000 } else { 0 },
                    hosting_for: hosting,
                    waiting_jobs: waiting,
                }
            })
            .collect()
    })
}

fn free_of(views: &[StationView]) -> Vec<NodeId> {
    views.iter().filter(|v| v.can_host).map(|v| v.node).collect()
}

proptest! {
    /// Every policy emits only valid orders and respects the placement
    /// budget, over arbitrary sequences of snapshots.
    #[test]
    fn all_policies_emit_legal_orders(
        snapshots in prop::collection::vec(arb_views(12), 1..20),
        budget in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut policies: Vec<Box<dyn AllocationPolicy>> = vec![
            Box::new(UpDown::new(UpDownConfig::default())),
            Box::new(FifoPolicy::new()),
            Box::new(RoundRobinPolicy::new()),
            Box::new(RandomPolicy::new(seed)),
        ];
        for views in &snapshots {
            let free = free_of(views);
            for p in &mut policies {
                let orders = decide_from_views(p.as_mut(), SimTime::ZERO, views, &free, budget);
                prop_assert!(
                    validate_orders(&orders, views).is_ok(),
                    "{} emitted invalid orders {orders:?} for {views:?}",
                    p.name()
                );
                let placements = orders
                    .iter()
                    .filter(|o| matches!(o, Order::Assign { .. }))
                    .count();
                prop_assert!(placements <= budget, "{} broke the budget", p.name());
                // Assignments only to genuinely free machines, each once.
                let mut used = std::collections::HashSet::new();
                for o in &orders {
                    if let Order::Assign { target, .. } = o {
                        prop_assert!(free.contains(target));
                        prop_assert!(used.insert(*target));
                    }
                }
            }
        }
    }

    /// Up-Down never self-preempts: no preemption order ever targets a
    /// machine hosting for a station that is itself requesting.
    #[test]
    fn updown_never_preempts_own_requester(
        snapshots in prop::collection::vec(arb_views(10), 1..30),
    ) {
        let mut p = UpDown::new(UpDownConfig {
            preemption_margin: 0.0, // most aggressive
            ..UpDownConfig::default()
        });
        for views in &snapshots {
            let free = free_of(views);
            let orders = decide_from_views(&mut p, SimTime::ZERO, views, &free, 1);
            for o in &orders {
                if let Order::Preempt { target } = o {
                    let victim_home = views[target.as_usize()].hosting_for.expect("validated");
                    // The victim's home must not be the top-priority
                    // requester that triggered the preemption. Weaker,
                    // always-checkable invariant: a preemption only fires
                    // when some OTHER station requests.
                    let some_other_requester = views
                        .iter()
                        .any(|v| v.waiting_jobs > 0 && v.node != victim_home);
                    prop_assert!(
                        some_other_requester,
                        "preempted {victim_home} with no competing demand"
                    );
                }
            }
        }
    }

    /// The Up-Down index stays bounded by cumulative activity: after any
    /// run it cannot exceed (polls × stations × up_rate) in magnitude, and
    /// with no usage and no demand it decays to zero.
    #[test]
    fn updown_index_is_bounded_and_decays(
        snapshots in prop::collection::vec(arb_views(8), 1..40),
    ) {
        let mut p = UpDown::new(UpDownConfig::default());
        let n_polls = snapshots.len() as f64;
        let mut max_stations = 0usize;
        for views in &snapshots {
            max_stations = max_stations.max(views.len());
            let free = free_of(views);
            let _ = decide_from_views(&mut p, SimTime::ZERO, views, &free, 1);
        }
        let bound = n_polls * max_stations as f64 + 1.0;
        for i in 0..max_stations {
            let idx = p.index_of(NodeId::new(i as u32));
            prop_assert!(idx.abs() <= bound, "index {idx} exceeds bound {bound}");
        }
        // Quiet polls decay everything to zero.
        let quiet: Vec<StationView> = (0..max_stations)
            .map(|i| StationView {
                node: NodeId::new(i as u32),
                can_host: false,
                free_cpu_milli: 0,
                hosting_for: None,
                waiting_jobs: 0,
            })
            .collect();
        for _ in 0..((bound / 0.25) as usize + 2) {
            let _ = decide_from_views(&mut p, SimTime::ZERO, &quiet, &[], 1);
        }
        for i in 0..max_stations {
            prop_assert_eq!(p.index_of(NodeId::new(i as u32)), 0.0);
        }
    }

    /// Determinism across identical replays, for every policy.
    #[test]
    fn policies_are_deterministic(
        snapshots in prop::collection::vec(arb_views(8), 1..15),
        seed in any::<u64>(),
    ) {
        let run = |mut p: Box<dyn AllocationPolicy>| {
            snapshots
                .iter()
                .map(|v| decide_from_views(p.as_mut(), SimTime::ZERO, v, &free_of(v), 2))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            run(Box::new(UpDown::new(UpDownConfig::default()))),
            run(Box::new(UpDown::new(UpDownConfig::default())))
        );
        assert_eq!(run(Box::new(FifoPolicy::new())), run(Box::new(FifoPolicy::new())));
        assert_eq!(
            run(Box::new(RoundRobinPolicy::new())),
            run(Box::new(RoundRobinPolicy::new()))
        );
        assert_eq!(
            run(Box::new(RandomPolicy::new(seed))),
            run(Box::new(RandomPolicy::new(seed)))
        );
    }
}

/// One station of one poll of the differential test, still raw: three
/// dice (hostable? hosting? requesting?), the home it would host for —
/// anywhere in the fleet — and the queue length it would have.
type RawStation = (u8, u8, u8, u32, usize);

const FLEET: usize = 64;

proptest! {
    /// Up-Down against its reference (`updown_reference`), poll by poll:
    /// the same orders in the same order, and bit-identical indexes — of
    /// every station and summed — over 64-station fleets whose consuming
    /// homes span the whole fleet. The dice thresholds are drawn per case,
    /// so cases range from an idle fleet to one with no machine free (the
    /// preemption pass) and from no backlog to most stations requesting
    /// (the priority prefix cuts the list); a station may be hosting and
    /// hostable at once, as fractional fleets have them, so an assigned
    /// machine can come up as a victim. Two cases in three run non-dyadic
    /// constants, where a different order of `f64` operations would show
    /// in the last bit.
    #[test]
    fn updown_matches_the_straightforward_reference(
        polls in prop::collection::vec(
            prop::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), 0u32..FLEET as u32, 1usize..5),
                FLEET..=FLEET,
            ),
            50..64,
        ),
        density in (prop_oneof![0u8..8, 0u8..80], any::<u8>(), any::<u8>()),
        budget in prop_oneof![0usize..=3, 0usize..=40],
        max_preemptions_per_poll in 0usize..=3,
        constants in 0u8..3,
        reversed_preference in any::<bool>(),
    ) {
        let config = match constants {
            0 => UpDownConfig { max_preemptions_per_poll, ..UpDownConfig::default() },
            // A negative margin lets a requester's own machines pass the
            // index test, so only the own-home rule keeps them.
            _ => UpDownConfig {
                up_per_machine: 0.3,
                down_when_denied: 0.7,
                idle_drift: 0.1,
                preemption_margin: if constants == 1 { 1.3 } else { -0.4 },
                max_preemptions_per_poll,
            },
        };
        let views = polls.iter().map(|raw| station_views(raw, FLEET, density));
        check_against_reference(config, views, budget, reversed_preference);
    }

    /// The same differential while the fleet grows between polls: each
    /// poll sees the first `sizes[poll]` stations of the 64 (the sizes
    /// never decrease), so the policy meets station ids it has never
    /// indexed, as a requester, as a consumer, or both at once.
    #[test]
    fn updown_matches_the_reference_while_the_fleet_grows(
        polls in prop::collection::vec(
            prop::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), 0u32..FLEET as u32, 1usize..5),
                FLEET..=FLEET,
            ),
            30..40,
        ),
        sizes in prop::collection::vec(1usize..=FLEET, 30..40),
        density in (0u8..80, any::<u8>(), any::<u8>()),
        budget in 0usize..=3,
        max_preemptions_per_poll in 0usize..=3,
    ) {
        let config = UpDownConfig {
            up_per_machine: 0.3,
            down_when_denied: 0.7,
            idle_drift: 0.1,
            preemption_margin: 1.3,
            max_preemptions_per_poll,
        };
        let mut sizes = sizes;
        sizes.sort_unstable();
        let views = polls.iter().zip(&sizes).map(|(raw, &n)| station_views(&raw[..n], n, density));
        check_against_reference(config, views, budget, false);
    }
}

/// One poll's views from its raw stations; every home is folded into the
/// first `fleet` stations.
fn station_views(raw: &[RawStation], fleet: usize, density: (u8, u8, u8)) -> Vec<StationView> {
    raw.iter()
        .enumerate()
        .map(|(i, &(free, hosting, requesting, home, waiting))| {
            let can_host = free < density.0;
            StationView {
                node: NodeId::new(i as u32),
                can_host,
                free_cpu_milli: if can_host { 500 } else { 0 },
                hosting_for: (hosting < density.1).then(|| NodeId::new(home % fleet as u32)),
                waiting_jobs: if requesting < density.2 { waiting } else { 0 },
            }
        })
        .collect()
}

/// Runs Up-Down and its reference side by side over `polls` (at most
/// `FLEET` stations each) and demands the same orders and bit-identical
/// indexes after every poll.
fn check_against_reference(
    config: UpDownConfig,
    polls: impl Iterator<Item = Vec<StationView>>,
    budget: usize,
    reversed_preference: bool,
) {
    let mut new = UpDown::new(config);
    let mut reference = ReferenceUpDown::new(config, FLEET);
    for (poll, views) in polls.enumerate() {
        let mut free = free_of(&views);
        if reversed_preference {
            free.reverse();
        }
        let orders = decide_from_views(&mut new, SimTime::ZERO, &views, &free, budget);
        let expected = reference.decide(&views, &free, budget);
        prop_assert_eq!(&orders, &expected, "orders differ at poll {}", poll);
        prop_assert!(validate_orders(&orders, &views).is_ok());
        for s in 0..FLEET as u32 {
            let node = NodeId::new(s);
            prop_assert_eq!(
                new.index_of(node).to_bits(),
                reference.index_of(node).to_bits(),
                "index of {} differs at poll {}: {} vs {}",
                node, poll, new.index_of(node), reference.index_of(node)
            );
        }
        // The live-set sum skips the zeros the dense one adds; only the
        // sign of an all-zero total can tell the two apart.
        let (sum, expected) = (new.index_sum(), reference.index_sum());
        prop_assert!(
            sum.to_bits() == expected.to_bits() || (sum == 0.0 && expected == 0.0),
            "index_sum differs at poll {}: {} vs {}", poll, sum, expected
        );
    }
}

/// Regression: a fleet that shrinks between polls (stations removed from
/// the configuration) must not panic any policy — found by
/// `all_policies_emit_legal_orders` before the generator pinned the size.
#[test]
fn fleet_shrinkage_is_tolerated() {
    let big: Vec<StationView> = (0..8)
        .map(|i| StationView {
            node: NodeId::new(i),
            can_host: false,
            free_cpu_milli: 0,
            hosting_for: None,
            waiting_jobs: 3,
        })
        .collect();
    let small: Vec<StationView> = vec![StationView {
        node: NodeId::new(0),
        can_host: true,
        free_cpu_milli: 1000,
        hosting_for: None,
        waiting_jobs: 1,
    }];
    let mut policies: Vec<Box<dyn AllocationPolicy>> = vec![
        Box::new(UpDown::new(UpDownConfig::default())),
        Box::new(FifoPolicy::new()),
        Box::new(RoundRobinPolicy::new()),
        Box::new(RandomPolicy::new(7)),
    ];
    for p in &mut policies {
        let _ = decide_from_views(p.as_mut(), SimTime::ZERO, &big, &free_of(&big), 2);
        let orders = decide_from_views(p.as_mut(), SimTime::ZERO, &small, &free_of(&small), 2);
        assert!(validate_orders(&orders, &small).is_ok(), "{}", p.name());
    }
}
