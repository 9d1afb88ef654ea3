//! The Up-Down algorithm (Mutka & Livny 1987; paper §2.4).
//!
//! The coordinator keeps a **schedule index** per workstation. The index
//! goes *up* while the station consumes remote capacity and *down* while it
//! waits for capacity it was denied; stations with **lower** index have
//! higher priority. The effect is the paper's headline fairness result:
//! heavy users keep steady access to leftover capacity, but can never lock
//! light users out — a light user's index is near zero (or negative), so
//! its occasional batches are served immediately, preempting the heavy
//! user if necessary.
//!
//! Parametrisation (our reconstruction; the 1987 paper gives the scheme,
//! not the constants):
//!
//! * `up_per_machine` — index increase per poll per remote machine in use;
//! * `down_when_denied` — index decrease per poll while the station has
//!   waiting jobs that were not granted capacity;
//! * `idle_drift` — pull toward zero per poll when the station neither
//!   uses nor wants capacity, so history fades and a reformed heavy user
//!   is not punished forever;
//! * `preemption_margin` — how much *lower* a requester's index must be
//!   than a consumer's before the consumer's job is preempted, adding
//!   hysteresis so near-equals do not thrash.

use condor_net::NodeId;
use condor_sim::time::SimTime;

use crate::bits::Bits;
use crate::policy::{AllocationPolicy, Order, PollInput};

/// Tunables of the Up-Down algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpDownConfig {
    /// Index increase per poll per machine of remote capacity in use.
    pub up_per_machine: f64,
    /// Index decrease per poll while demand goes unmet.
    pub down_when_denied: f64,
    /// Magnitude of the per-poll pull toward zero when inactive.
    pub idle_drift: f64,
    /// Required index gap before preempting a running consumer.
    pub preemption_margin: f64,
    /// Maximum preemptions issued per poll (capacity freed by a preemption
    /// is only assignable at a later poll, after the checkpoint completes).
    pub max_preemptions_per_poll: usize,
}

impl Default for UpDownConfig {
    fn default() -> Self {
        UpDownConfig {
            up_per_machine: 1.0,
            down_when_denied: 1.0,
            idle_drift: 0.25,
            preemption_margin: 2.0,
            max_preemptions_per_poll: 1,
        }
    }
}

/// The Up-Down allocation policy.
///
/// # Examples
///
/// ```
/// use condor_core::updown::{UpDown, UpDownConfig};
/// use condor_core::policy::AllocationPolicy;
///
/// let policy = UpDown::new(UpDownConfig::default());
/// assert_eq!(policy.name(), "up-down");
/// ```
#[derive(Debug)]
pub struct UpDown {
    config: UpDownConfig,
    /// Schedule index by station id. Dense, and grown lazily to the
    /// highest station a poll has named, so a station never seen reads as
    /// zero; a station whose index lands exactly on zero stores `+0.0`.
    index: Vec<f64>,
    /// The stations whose index is non-zero. Idle drift brings every
    /// entry back to zero within `|index| / idle_drift` polls of going
    /// quiet, so the per-poll index update walks the stations that are
    /// active or recently were, not the fleet.
    live: Bits,
    /// `index` added up in ascending station id, from the `-0.0` an empty
    /// `f64` sum starts at; recomputed by the index update of every poll.
    sum: f64,
    // Buffers kept warm between polls; each is rebuilt by the step of
    // `decide` that owns it.
    prefix: Vec<Candidate>,
    /// Machines granted this poll, by station id. Written for the
    /// grantees just before the index update, which reads each station's
    /// entry once and zeroes it, so it is all zeros between polls.
    granted: Vec<u32>,
    level_machines: Vec<(NodeId, NodeId)>,
}

/// A requester among the first `need` in priority order.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    index: f64,
    home: NodeId,
    /// Jobs waiting at `home`.
    demand: usize,
    /// Machines granted to `home` so far this poll.
    granted: usize,
}

impl Candidate {
    /// Priority order: lowest index first, ties to the lower station id.
    /// Station ids are distinct, so no two candidates compare equal.
    fn outranks(&self, index: f64, home: NodeId) -> bool {
        self.index < index || (self.index == index && self.home < home)
    }
}

/// This poll's preemption candidates — every host with the index of the
/// home it works for — in victim order (highest index first, ties to the
/// lower machine id), produced one index **level** at a time: the level is
/// the highest consumer index below the one just drained, its machines are
/// the hosts working for a home at exactly that index, in id order. A poll
/// issues at most `max_preemptions_per_poll` preemptions, so it drains a
/// level or two at O(consumers + hosts) each instead of sorting every host.
struct Victims<'a> {
    input: &'a PollInput<'a>,
    index: &'a [f64],
    /// Index of the level being drained; +∞ before the first.
    level: f64,
    /// The level's `(home, machine)` pairs, in machine id order.
    machines: &'a mut Vec<(NodeId, NodeId)>,
    next: usize,
}

impl Victims<'_> {
    /// The next victim, as `(home, machine)`, if its home's index exceeds
    /// `floor`. `None` is final for any floor at least this high: victims
    /// come in descending index order.
    fn next_above(&mut self, floor: f64) -> Option<(NodeId, NodeId)> {
        let PollInput { views, hosts, consumers, .. } = *self.input;
        let index = self.index;
        while self.level > floor {
            if let Some(&victim) = self.machines.get(self.next) {
                self.next += 1;
                return Some(victim);
            }
            let drained = self.level;
            self.level = consumers
                .iter()
                .map(|&(home, _)| index[home.as_usize()])
                .filter(|&index| index < drained)
                .fold(f64::NEG_INFINITY, f64::max);
            self.machines.clear();
            self.next = 0;
            if self.level > floor {
                let level = self.level;
                let at_level = hosts.iter().filter_map(|&machine| {
                    let home = views[machine.as_usize()].hosting_for;
                    debug_assert!(home.is_some(), "host set contains only hosting stations");
                    home.filter(|home| index[home.as_usize()] == level).map(|home| (home, machine))
                });
                self.machines.extend(at_level);
            }
        }
        None
    }
}

impl UpDown {
    /// Creates the policy with all indices at zero.
    pub fn new(config: UpDownConfig) -> Self {
        assert!(config.up_per_machine >= 0.0, "negative up rate");
        assert!(config.down_when_denied >= 0.0, "negative down rate");
        assert!(config.idle_drift >= 0.0, "negative drift");
        UpDown {
            config,
            index: Vec::new(),
            live: Bits::new(0),
            sum: -0.0,
            prefix: Vec::new(),
            granted: Vec::new(),
            level_machines: Vec::new(),
        }
    }

    /// The current schedule index of a station (zero if never seen).
    pub fn index_of(&self, node: NodeId) -> f64 {
        self.index.get(node.as_usize()).copied().unwrap_or(0.0)
    }

    /// Sum of all station indices, as of the last poll. Only the non-zero
    /// ones are added, which leaves an IEEE-754 sum bit-identical to
    /// summing `index_of` over every station in id order — a zero term
    /// never changes a running sum — except for the sign of an all-zero
    /// total (an empty `f64` sum is `-0.0`; adding a `0.0` makes it `0.0`).
    pub fn index_sum(&self) -> f64 {
        self.sum
    }

    /// The configuration in force.
    pub fn config(&self) -> &UpDownConfig {
        &self.config
    }

    fn drift_toward_zero(value: f64, drift: f64) -> f64 {
        if value > 0.0 {
            (value - drift).max(0.0)
        } else {
            (value + drift).min(0.0)
        }
    }
}

impl AllocationPolicy for UpDown {
    fn name(&self) -> &'static str {
        "up-down"
    }

    /// With no requesters and no hosts, a `decide` issues no orders and
    /// the index pass reduces to pure idle drift — a no-op exactly when
    /// every index is already zero.
    fn quiescent(&self) -> bool {
        self.live.count() == 0
    }

    /// Steps 1–3 read the dense index by station id; step 4 visits the
    /// stations that can change, in ascending id. The inputs already come
    /// in that order, so a poll costs O(active stations) with no map,
    /// search or sort. Who uses how many machines is not recounted here:
    /// it arrives as [`PollInput::consumers`].
    fn decide(&mut self, _now: SimTime, input: &PollInput<'_>) -> Vec<Order> {
        let UpDown { config, index, live, sum, prefix, granted, level_machines } = self;
        let config = *config;
        // Every station a poll names gets an index entry (zero until the
        // update below moves it): fleets grow between polls.
        let named = input
            .requesters
            .last()
            .max(input.consumers.last().map(|c| &c.0))
            .map_or(0, |last| last.as_usize() + 1);
        if index.len() < named {
            index.resize(named, 0.0);
            granted.resize(named, 0);
            live.grow(named);
        }

        // 1. The priority prefix: requesters by (index, station id),
        //    lowest first, as far as steps 2 and 3 can read — the grant
        //    pass serves at most `max_placements` distinct requesters
        //    (round one hands each unmet requester one machine until the
        //    budget is gone), and the preemption pass visits at most one
        //    requester per satisfied grantee or issued preemption before
        //    breaking. One pass keeps the best `need` seen so far in
        //    order: a requester that does not beat the last of a full
        //    prefix costs one comparison, and only the ones that enter
        //    have their queue length read.
        let need = input
            .max_placements
            .saturating_add(config.max_preemptions_per_poll)
            .saturating_add(1);
        prefix.clear();
        for &home in input.requesters {
            let index = index[home.as_usize()];
            // Step 4 visits the live set: a requester at zero joins it.
            if index == 0.0 {
                live.set(home.as_usize(), true);
            }
            if prefix.len() == need {
                if prefix[need - 1].outranks(index, home) {
                    continue;
                }
                prefix.pop();
            }
            let at = prefix.iter().rposition(|c| c.outranks(index, home)).map_or(0, |i| i + 1);
            let demand = input.views[home.as_usize()].waiting_jobs;
            debug_assert!(demand > 0, "requester set contains only stations with waiting jobs");
            prefix.insert(at, Candidate { index, home, demand, granted: 0 });
        }

        // 2. Grant machines round-robin across the prefix in priority
        //    order, one per round, until machines or budget run out.
        //    Machines come off the front of the cluster's preference order
        //    (history-aware placement reorders that list before the call).
        let mut orders = Vec::new();
        let mut free = input.free.iter();
        'rounds: loop {
            let mut progress = false;
            for c in prefix.iter_mut() {
                if orders.len() >= input.max_placements {
                    break 'rounds;
                }
                if c.granted < c.demand {
                    let Some(&target) = free.next() else { break 'rounds };
                    orders.push(Order::Assign { home: c.home, target });
                    c.granted += 1;
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }

        // 3. Preemption: requesters that remain unsatisfied with no free
        //    machines may claim capacity from consumers whose index exceeds
        //    theirs by the margin. Victim = running job whose *home* has
        //    the highest index, lowest machine id among equals. "No free
        //    machines" is judged against the whole hostable set, not the
        //    (possibly budget-truncated) `free` prefix: every order so far
        //    is an assign consuming one machine, so the fleet is exhausted
        //    exactly when the assign count reaches `free_total`.
        if input.free_total == orders.len()
            && config.max_preemptions_per_poll > 0
            && !prefix.is_empty()
            && !input.consumers.is_empty()
        {
            level_machines.clear();
            let mut victims = Victims {
                input,
                index,
                level: f64::INFINITY,
                machines: level_machines,
                next: 0,
            };
            let mut preemptions = 0usize;
            for c in prefix.iter() {
                if preemptions >= config.max_preemptions_per_poll {
                    break;
                }
                if c.granted >= c.demand {
                    continue;
                }
                // The next victim that exceeds the margin and does not
                // belong to the requester itself. Under fractional
                // capacities a station can be hosting *and* still
                // hostable, so a machine already claimed by an assign this
                // poll is off the victim list — one order per target. A
                // victim passed over is passed over for good.
                let floor = c.index + config.preemption_margin;
                let victim = std::iter::from_fn(|| victims.next_above(floor)).find(
                    |&(home, machine)| {
                        home != c.home
                            && !orders.iter().any(
                                |o| matches!(o, Order::Assign { target, .. } if *target == machine),
                            )
                    },
                );
                // None: later requesters have higher indexes still, so
                // nobody further qualifies.
                let Some((_, target)) = victim else { break };
                orders.push(Order::Preempt { target });
                preemptions += 1;
            }
        }

        // 4. Index updates. A station moves up by what it uses — machines
        //    it held coming into the poll plus this poll's grants, added
        //    as integers before the one multiply — and down while it has
        //    jobs nobody granted a machine for; one that neither uses nor
        //    wants drifts toward zero. A station at zero in none of the
        //    lists stays there, so one ascending pass over the live set —
        //    widened by the requesters in step 1 and by the consumers
        //    here — visits every station that can change, reads the two
        //    lists beside it, and drops whoever lands on zero. A requester
        //    granted fewer machines than it has jobs waiting — nothing at
        //    all, outside the prefix — is unmet. Per station the
        //    arithmetic is the same sequence of `f64` operations whatever
        //    the lists look like, and the sum adds the non-zero results
        //    in ascending id.
        for &(home, _) in input.consumers {
            live.set(home.as_usize(), true);
        }
        for c in prefix.iter().filter(|c| c.granted > 0) {
            granted[c.home.as_usize()] = c.granted as u32;
        }
        let (mut requesters, mut consumers) = (input.requesters, input.consumers);
        let mut total = -0.0;
        live.retain(|at| {
            let node = NodeId::new(at);
            let i = at as usize;
            let mut value = index[i];
            let mut unmet = false;
            if let [first, rest @ ..] = requesters {
                if *first == node {
                    (unmet, requesters) = (true, rest);
                }
            }
            let mut used = 0;
            if let [(home, machines), rest @ ..] = consumers {
                if *home == node {
                    (used, consumers) = (*machines as usize, rest);
                }
            }
            if granted[i] > 0 {
                let grants = std::mem::take(&mut granted[i]) as usize;
                used += grants;
                unmet = input.views[i].waiting_jobs > grants;
            }
            if used > 0 {
                value += config.up_per_machine * used as f64;
            }
            if unmet {
                value -= config.down_when_denied;
            }
            if used == 0 && !unmet {
                value = Self::drift_toward_zero(value, config.idle_drift);
            }
            if value == 0.0 {
                index[i] = 0.0;
                return false;
            }
            index[i] = value;
            total += value;
            true
        });
        *sum = total;
        orders
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{decide_from_views, validate_orders, StationView};

    fn free_of(views: &[StationView]) -> Vec<NodeId> {
        views.iter().filter(|v| v.can_host).map(|v| v.node).collect()
    }

    fn views(spec: &[(bool, Option<u32>, usize)]) -> Vec<StationView> {
        spec.iter()
            .enumerate()
            .map(|(i, &(can_host, hosting, waiting))| StationView {
                node: NodeId::new(i as u32),
                can_host,
                free_cpu_milli: if can_host { 1000 } else { 0 },
                hosting_for: hosting.map(NodeId::new),
                waiting_jobs: waiting,
            })
            .collect()
    }

    #[test]
    fn indices_rise_with_usage_and_fall_with_denial() {
        let mut p = UpDown::new(UpDownConfig::default());
        // Station 0 hosts nothing but uses stations 1 and 2; station 3
        // wants capacity and is denied (no free machines).
        let v = views(&[
            (false, None, 0),
            (false, Some(0), 0),
            (false, Some(0), 0),
            (false, None, 2),
        ]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 1);
        // Preemption margin (2.0) not yet exceeded: index of 0 is 0 at
        // decision time.
        assert!(orders.is_empty());
        assert_eq!(p.index_of(NodeId::new(0)), 2.0); // two machines
        assert_eq!(p.index_of(NodeId::new(3)), -1.0); // denied
    }

    #[test]
    fn light_user_eventually_preempts_heavy_user() {
        let mut p = UpDown::new(UpDownConfig::default());
        // Heavy user = station 0, hogging both machines. Light user =
        // station 3, always denied. Eventually the gap exceeds the margin
        // and a preemption is ordered.
        let v = views(&[
            (false, None, 5),
            (false, Some(0), 0),
            (false, Some(0), 0),
            (false, None, 1),
        ]);
        let mut preempted_at = None;
        for poll in 0..10 {
            let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 1);
            validate_orders(&orders, &v).unwrap();
            if orders.iter().any(|o| matches!(o, Order::Preempt { .. })) {
                preempted_at = Some(poll);
                break;
            }
        }
        let poll = preempted_at.expect("light user must eventually preempt");
        assert!(poll >= 1, "margin must delay the first preemption");
        assert!(
            p.index_of(NodeId::new(0)) > p.index_of(NodeId::new(3)) + 2.0,
            "gap at preemption time"
        );
    }

    #[test]
    fn preemption_never_targets_requesters_own_jobs() {
        let mut p = UpDown::new(UpDownConfig {
            preemption_margin: 0.0,
            ..UpDownConfig::default()
        });
        // Station 0 both uses machines AND has more demand; it must not
        // preempt itself even though its own index is the highest.
        let v = views(&[
            (false, None, 5),
            (false, Some(0), 0),
            (false, Some(0), 0),
        ]);
        for _ in 0..5 {
            let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 1);
            assert!(
                orders.iter().all(|o| !matches!(o, Order::Preempt { .. })),
                "self-preemption ordered: {orders:?}"
            );
        }
    }

    #[test]
    fn equal_priorities_share_machines_round_robin() {
        let mut p = UpDown::new(UpDownConfig::default());
        let v = views(&[
            (false, None, 3),
            (false, None, 3),
            (true, None, 0),
            (true, None, 0),
        ]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 10);
        validate_orders(&orders, &v).unwrap();
        let homes: Vec<NodeId> = orders
            .iter()
            .filter_map(|o| match o {
                Order::Assign { home, .. } => Some(*home),
                _ => None,
            })
            .collect();
        assert_eq!(homes, vec![NodeId::new(0), NodeId::new(1)], "one each");
    }

    #[test]
    fn lower_index_station_is_served_first() {
        let mut p = UpDown::new(UpDownConfig::default());
        // Warm-up: station 0 consumes for 3 polls → high index.
        let warm = views(&[(false, None, 0), (false, Some(0), 0)]);
        for _ in 0..3 {
            decide_from_views(&mut p, SimTime::ZERO, &warm, &free_of(&warm), 1);
        }
        // Now both 0 and 2 want the single free machine.
        let v = views(&[
            (false, None, 2),
            (false, None, 0),
            (false, None, 2),
            (true, None, 0),
        ]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 1);
        assert_eq!(
            orders,
            vec![Order::Assign { home: NodeId::new(2), target: NodeId::new(3) }]
        );
    }

    #[test]
    fn idle_drift_pulls_indices_back_to_zero() {
        let mut p = UpDown::new(UpDownConfig::default());
        let consuming = views(&[(false, None, 0), (false, Some(0), 0)]);
        for _ in 0..4 {
            decide_from_views(&mut p, SimTime::ZERO, &consuming, &free_of(&consuming), 1);
        }
        let peak = p.index_of(NodeId::new(0));
        assert!(peak >= 4.0);
        // Station 0 stops using and wanting capacity.
        let quiet = views(&[(false, None, 0), (false, None, 0)]);
        for _ in 0..100 {
            decide_from_views(&mut p, SimTime::ZERO, &quiet, &free_of(&quiet), 1);
        }
        assert_eq!(p.index_of(NodeId::new(0)), 0.0, "history fades");
        // Negative indices drift up toward zero as well.
        let denied = views(&[(false, None, 1), (false, None, 0)]);
        decide_from_views(&mut p, SimTime::ZERO, &denied, &free_of(&denied), 0); // budget 0: denial guaranteed
        assert!(p.index_of(NodeId::new(0)) < 0.0);
        for _ in 0..100 {
            decide_from_views(&mut p, SimTime::ZERO, &quiet, &free_of(&quiet), 1);
        }
        assert_eq!(p.index_of(NodeId::new(0)), 0.0);
    }

    #[test]
    fn placement_budget_is_respected() {
        let mut p = UpDown::new(UpDownConfig::default());
        let v = views(&[
            (false, None, 4),
            (true, None, 0),
            (true, None, 0),
            (true, None, 0),
        ]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 1);
        assert_eq!(orders.len(), 1);
    }

    #[test]
    fn max_preemptions_per_poll_caps_evictions() {
        let mut p = UpDown::new(UpDownConfig {
            preemption_margin: 0.5,
            max_preemptions_per_poll: 1,
            ..UpDownConfig::default()
        });
        // Make station 0 heavy.
        let warm = views(&[
            (false, None, 0),
            (false, Some(0), 0),
            (false, Some(0), 0),
            (false, Some(0), 0),
        ]);
        for _ in 0..5 {
            decide_from_views(&mut p, SimTime::ZERO, &warm, &free_of(&warm), 1);
        }
        // Two light stations now demand; only one preemption per poll.
        let v = views(&[
            (false, None, 0),
            (false, Some(0), 0),
            (false, Some(0), 0),
            (false, Some(0), 0),
            (false, None, 1),
            (false, None, 1),
        ]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 1);
        let preempts = orders
            .iter()
            .filter(|o| matches!(o, Order::Preempt { .. }))
            .count();
        assert_eq!(preempts, 1);
    }

    #[test]
    fn decide_is_deterministic() {
        let run = || {
            let mut p = UpDown::new(UpDownConfig::default());
            let mut all = Vec::new();
            for i in 0..20u32 {
                let v = views(&[
                    (i % 3 == 0, None, (i % 4) as usize),
                    (false, (i % 2 == 0).then_some(0), 0),
                    (i % 5 == 0, None, 1),
                ]);
                all.push(decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 1));
            }
            all
        };
        assert_eq!(run(), run());
    }
}
