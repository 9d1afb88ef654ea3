//! Capacity-allocation policies for the central coordinator.
//!
//! Each poll cycle the coordinator assembles a [`StationView`] per
//! workstation and asks its [`AllocationPolicy`] what to do. The policy
//! returns [`Order`]s: *assign* a free machine to a requesting station, or
//! *preempt* a foreign job to free capacity for a higher-priority station.
//!
//! The coordinator deliberately knows nothing about individual jobs — which
//! job runs next is the local scheduler's decision (paper §2.1). Policies
//! therefore reason purely about **stations**: who is idle, who is hosting
//! for whom, and who has work waiting.
//!
//! The paper's production policy is [Up-Down](crate::updown::UpDown); the
//! baselines here ([`FifoPolicy`], [`RoundRobinPolicy`], [`RandomPolicy`])
//! exist to reproduce its fairness comparison.

use condor_net::NodeId;
use condor_sim::rng::SimRng;
use condor_sim::time::SimTime;

use crate::bits::Bits;

/// Bucketed index of hostable stations keyed by free CPU share.
///
/// One bucket per distinct `free_cpu_milli` value, each holding a
/// two-level bitset (`bits::Bits`) of its stations. Membership updates are
/// O(log buckets) on a value change and O(1) within a bucket, and best-fit
/// iteration visits stations in
/// ascending `(free_cpu_milli, id)` order at O(matches + buckets) — so
/// [`FracPolicy`] finds its tightest targets without sorting the fleet's
/// whole free list every poll. The distinct-value set is small in practice
/// (a whole-machine fleet has exactly one bucket, 1000; fractional fleets
/// add one per remainder value seen), and a drained bucket keeps its slot.
#[derive(Debug)]
pub struct CapacityIndex {
    /// `(free_cpu_milli, members)`, sorted ascending by value.
    buckets: Vec<(u32, Bits)>,
    stations: usize,
}

impl CapacityIndex {
    /// An empty index over a fleet of `stations`.
    pub fn new(stations: usize) -> Self {
        CapacityIndex { buckets: Vec::new(), stations }
    }

    /// Moves `station` from the `old_milli` bucket to the `new_milli`
    /// bucket; zero means "not hostable" (absent from the index). Callers
    /// pass the view's previous and next `free_cpu_milli`, which is zero
    /// exactly when `can_host` is false, so index membership always equals
    /// the hostable set.
    pub fn update(&mut self, station: usize, old_milli: u32, new_milli: u32) {
        if old_milli == new_milli {
            return;
        }
        if old_milli > 0 {
            if let Ok(b) = self.buckets.binary_search_by_key(&old_milli, |e| e.0) {
                self.buckets[b].1.set(station, false);
            }
        }
        if new_milli > 0 {
            let b = match self.buckets.binary_search_by_key(&new_milli, |e| e.0) {
                Ok(b) => b,
                Err(b) => {
                    self.buckets.insert(b, (new_milli, Bits::new(self.stations)));
                    b
                }
            };
            self.buckets[b].1.set(station, true);
        }
    }

    /// Calls `f` for each hostable station in ascending
    /// `(free_cpu_milli, id)` order — best-fit order — until it returns
    /// `false`.
    fn for_each_best_fit(&self, mut f: impl FnMut(NodeId) -> bool) {
        for (_, bucket) in &self.buckets {
            let mut go = true;
            bucket.for_each(|id| {
                go = f(NodeId::new(id));
                go
            });
            if !go {
                return;
            }
        }
    }
}

/// Two indexes are equal when they hold the same stations under the same
/// values: a drained bucket keeps its slot but holds nothing, so it does
/// not count.
impl PartialEq for CapacityIndex {
    fn eq(&self, other: &Self) -> bool {
        let live = |bucket: &&(u32, Bits)| bucket.1.count() > 0;
        self.stations == other.stations
            && self.buckets.iter().filter(live).eq(other.buckets.iter().filter(live))
    }
}

/// What the coordinator learned about one station during a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StationView {
    /// The station.
    pub node: NodeId,
    /// `true` when the station can host a foreign job right now: owner
    /// idle, no foreign job present (running, suspended, or in transfer),
    /// and disk space available.
    pub can_host: bool,
    /// If a foreign job is *running* here, the home station it belongs to.
    pub hosting_for: Option<NodeId>,
    /// Jobs waiting in this station's background queue.
    pub waiting_jobs: usize,
    /// Unallocated CPU share in milli-machines (1000 = a whole free CPU).
    /// Zero whenever `can_host` is false. Under the legacy whole-machine
    /// model this is always exactly 0 or 1000; fractional fleets expose
    /// partially used stations here so capacity-aware policies (e.g.
    /// [`FracPolicy`]) can pack residents.
    pub free_cpu_milli: u32,
}

/// An instruction from the coordinator to the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Grant the free machine `target` to `home`; the local scheduler at
    /// `home` places its next queued job there.
    Assign {
        /// The station whose queue is served.
        home: NodeId,
        /// The idle machine granted.
        target: NodeId,
    },
    /// Checkpoint the foreign job running at `target` and send it home, so
    /// the capacity can be re-granted (normally to a higher-priority
    /// station at a subsequent poll).
    Preempt {
        /// The machine to vacate.
        target: NodeId,
    },
}

/// One poll cycle's input to an [`AllocationPolicy`].
///
/// Besides the per-station `views`, the coordinator hands policies the
/// pre-extracted **active sets** — requesters, hosts and consumers — so a
/// policy's work scales with the number of *active* stations, not the
/// fleet size, and never has to regroup the fleet by home. The cluster
/// maintains all three incrementally, at the one place that sees a view
/// change (the flush's `refresh_offer` diffs the old and the new view of
/// every dirty station); callers that keep no such state derive them from
/// the views with [`decide_from_views`].
///
/// Under a [pool topology](crate::config::PoolTopology) every pool runs
/// its own coordinator, so a `PollInput` is always **pool-scoped**: node
/// ids are shard-local, the views cover one pool's stations only, and a
/// policy never sees (or places across) another pool — `consumers` counts
/// machines of this pool working for homes of this pool. Cross-pool
/// balance happens between polls, at window barriers, via overflow
/// forwarding.
#[derive(Debug, Clone, Copy)]
pub struct PollInput<'a> {
    /// One entry per station, indexed by station id.
    pub views: &'a [StationView],
    /// Stations with `waiting_jobs > 0`, ascending station id.
    pub requesters: &'a [NodeId],
    /// Stations with `hosting_for` set, ascending station id.
    pub hosts: &'a [NodeId],
    /// The **consumer ledger**: every home that some station in `hosts`
    /// is `hosting_for`, with the number of such stations, ascending home
    /// id — `hosts` grouped by home, so the counts sum to `hosts.len()`.
    /// It is what Up-Down charges a home for each poll. The coordinator
    /// keeps it as a dense count per home plus a set of the homes with a
    /// non-zero count, updated whenever a station's `hosting_for`
    /// changes, and expands the set into this list once per poll.
    pub consumers: &'a [(NodeId, u32)],
    /// Machines able to host, in the **cluster's placement preference
    /// order** (plain id order normally; longest-expected-idle first when
    /// history-aware placement is enabled). Policies take targets from the
    /// front of this list. May be a *budget-sized prefix* of the hostable
    /// set: the cluster hands over only as many machines as
    /// `max_placements` allows it to grant, so check [`free_total`] — not
    /// `free.len()` — for "is any machine free at all".
    ///
    /// [`free_total`]: PollInput::free_total
    pub free: &'a [NodeId],
    /// Total hostable machines this poll. At least `free.len()`; larger
    /// when `free` is a truncated prefix.
    pub free_total: usize,
    /// Bucketed free-capacity index over the whole hostable set, when the
    /// coordinator maintains one. Capacity-aware policies use it to pick
    /// best-fit targets in O(matches) instead of sorting `free`; `None`
    /// means fall back to sorting (test drivers, history-aware placement
    /// where the preference order is not id order).
    pub capacity: Option<&'a CapacityIndex>,
    /// Upper bound on `Assign` orders this cycle (paper §4: one placement
    /// per two minutes protects the network and the submitting machines).
    pub max_placements: usize,
}

/// A capacity-allocation policy.
///
/// Implementations must be deterministic given their construction seed and
/// the sequence of `decide` calls.
pub trait AllocationPolicy: std::fmt::Debug {
    /// Short stable name for reports.
    fn name(&self) -> &'static str;

    /// Decides this poll's orders.
    ///
    /// Policies must not assign the same target twice, must only assign
    /// hostable targets (drawn from `input.free` or `input.capacity`), and
    /// must only preempt stations with `hosting_for` set.
    fn decide(&mut self, now: SimTime, input: &PollInput<'_>) -> Vec<Order>;

    /// `true` when a `decide` whose input carries **no requesters and no
    /// hosts** is a provable no-op: it would return no orders and leave the
    /// policy state bit-identical. The coordinator memoizes idle polls on
    /// this — a policy with latent per-poll state (an index still drifting,
    /// a line still draining) must answer `false` until that state reaches
    /// its fixed point. The conservative default is "never".
    fn quiescent(&self) -> bool {
        false
    }
}

/// Derives the active sets of a [`PollInput`] by one scan of `views` —
/// requesters, hosts, and the consumer ledger (hosts counted per home,
/// ascending home id) — and calls [`AllocationPolicy::decide`] with
/// `free` as the whole hostable set and no capacity index.
///
/// This is the path for callers that keep no coordinator state between
/// polls: `condor-runtime` (a handful of workers), tests, benches and the
/// repo benchmark's `policy.decide_us` probe. It costs O(stations) per
/// call, which is exactly the rescan the cluster's incrementally
/// maintained sets replace; the policy sees the same input either way
/// (the cluster recounts its sets from the views after every flush in
/// debug builds, and on demand in `tests/coord_consistency.rs`).
pub fn decide_from_views(
    policy: &mut dyn AllocationPolicy,
    now: SimTime,
    views: &[StationView],
    free: &[NodeId],
    max_placements: usize,
) -> Vec<Order> {
    let mut requesters = Vec::new();
    let mut hosts = Vec::new();
    let mut used_by_home = vec![0u32; views.len()];
    for v in views {
        if v.waiting_jobs > 0 {
            requesters.push(v.node);
        }
        if let Some(home) = v.hosting_for {
            hosts.push(v.node);
            let h = home.as_usize();
            if h >= used_by_home.len() {
                used_by_home.resize(h + 1, 0);
            }
            used_by_home[h] += 1;
        }
    }
    let consumers: Vec<(NodeId, u32)> = used_by_home
        .iter()
        .enumerate()
        .filter(|&(_, &used)| used > 0)
        .map(|(home, &used)| (NodeId::new(home as u32), used))
        .collect();
    policy.decide(
        now,
        &PollInput {
            views,
            requesters: &requesters,
            hosts: &hosts,
            consumers: &consumers,
            free,
            free_total: free.len(),
            capacity: None,
            max_placements,
        },
    )
}

/// The arrival line behind [`FifoPolicy`] and [`FracPolicy`]: homes with
/// outstanding demand in the order that demand was first seen.
#[derive(Debug, Default)]
struct DemandLine {
    /// Homes with outstanding demand, oldest first.
    line: Vec<NodeId>,
    /// `queued[s]` ⇔ station `s` is in `line`: joining costs O(1) per
    /// requester instead of a search of the line.
    queued: Vec<bool>,
}

impl DemandLine {
    fn is_empty(&self) -> bool {
        self.line.is_empty()
    }

    /// Brings the line up to this poll: homes that no longer want capacity
    /// (or vanished — fleets can shrink between polls) leave, newly
    /// demanding homes join at the back in id order (within one poll we
    /// cannot observe finer arrival order; polls are the clock).
    fn refresh(&mut self, input: &PollInput<'_>) {
        let queued = &mut self.queued;
        self.line.retain(|h| {
            let stays = input.views.get(h.as_usize()).is_some_and(|v| v.waiting_jobs > 0);
            if !stays {
                queued[h.as_usize()] = false;
            }
            stays
        });
        if queued.len() < input.views.len() {
            queued.resize(input.views.len(), false);
        }
        for &r in input.requesters {
            if !std::mem::replace(&mut queued[r.as_usize()], true) {
                self.line.push(r);
            }
        }
    }

    /// Serves the line front to back: each home takes machines off the
    /// **back** of `targets` until its queue is covered, the budget is
    /// spent or the machines run out.
    fn serve(&self, input: &PollInput<'_>, mut targets: Vec<NodeId>) -> Vec<Order> {
        let mut orders = Vec::new();
        for &home in &self.line {
            for _ in 0..input.views[home.as_usize()].waiting_jobs {
                if orders.len() >= input.max_placements {
                    return orders;
                }
                let Some(target) = targets.pop() else { return orders };
                orders.push(Order::Assign { home, target });
            }
        }
        orders
    }
}

/// Serves requesting stations in the order their demand was first seen;
/// never preempts. The station at the head of the line gets every free
/// machine until its queue drains — exactly the monopolisation behaviour
/// the Up-Down algorithm was designed to prevent.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    line: DemandLine,
}

impl FifoPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FifoPolicy::default()
    }
}

impl AllocationPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    /// With no requesters the only state change `decide` can make is
    /// dropping satisfied homes from the line; an empty line is a fixed
    /// point.
    fn quiescent(&self) -> bool {
        self.line.is_empty()
    }

    fn decide(&mut self, _now: SimTime, input: &PollInput<'_>) -> Vec<Order> {
        self.line.refresh(input);
        if self.line.is_empty() {
            return Vec::new();
        }
        let mut free: Vec<NodeId> = input.free.to_vec();
        free.reverse(); // the most-preferred machine goes first
        self.line.serve(input, free)
    }
}

/// Capacity-aware best-fit packing for fractional workloads: serves
/// requesting stations in [`FifoPolicy`] line order, but grants each one
/// the hostable station with the **least** free CPU (ties to the
/// cluster's preference order). Packing residents onto partially used
/// stations keeps whole machines open for whole-demand jobs — the
/// classic best-fit bin-packing argument, applied to CPU shares. Never
/// preempts.
///
/// Under the legacy whole-machine model every free station shows exactly
/// 1000 free milli-CPU, so best-fit degenerates to FIFO order and this
/// policy behaves like [`FifoPolicy`].
#[derive(Debug, Default)]
pub struct FracPolicy {
    line: DemandLine,
}

impl FracPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        FracPolicy::default()
    }
}

impl AllocationPolicy for FracPolicy {
    fn name(&self) -> &'static str {
        "frac"
    }

    /// Same argument as [`FifoPolicy::quiescent`]: no requesters means the
    /// only possible mutation is line shrinkage.
    fn quiescent(&self) -> bool {
        self.line.is_empty()
    }

    fn decide(&mut self, _now: SimTime, input: &PollInput<'_>) -> Vec<Order> {
        self.line.refresh(input);
        if self.line.is_empty() {
            return Vec::new();
        }
        // Targets in best-fit order: ascending free CPU, ties in the
        // cluster's preference order. The bucketed index yields exactly
        // this order directly (its tie order is ascending id — the default
        // preference order), capped at the placement budget; without an
        // index, sort the free list. The sort path reverses first so the
        // stable sort preserves the preference order within equal keys;
        // either way the tightest machine ends up at the back.
        let mut targets: Vec<NodeId> = Vec::new();
        if let Some(cap) = input.capacity {
            cap.for_each_best_fit(|n| {
                targets.push(n);
                targets.len() < input.max_placements
            });
            targets.reverse();
        } else {
            targets = input.free.to_vec();
            targets.reverse();
            targets.sort_by_key(|n| std::cmp::Reverse(input.views[n.as_usize()].free_cpu_milli));
        }
        self.line.serve(input, targets)
    }
}

/// Rotates a cursor over the stations, granting one machine to each
/// demanding station in turn; never preempts.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl RoundRobinPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        RoundRobinPolicy::default()
    }
}

impl AllocationPolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    /// The cursor only moves when an order is issued, and no requesters
    /// means no orders.
    fn quiescent(&self) -> bool {
        true
    }

    fn decide(&mut self, _now: SimTime, input: &PollInput<'_>) -> Vec<Order> {
        let n = input.views.len();
        if n == 0 {
            return Vec::new();
        }
        // Fleets can shrink between polls; keep the cursor in range.
        self.cursor %= n;
        if input.requesters.is_empty() {
            return Vec::new();
        }
        let mut free: Vec<NodeId> = input.free.to_vec();
        free.reverse();
        // Per-requester outstanding demand, ascending station id — the
        // cursor walks this instead of scanning every station.
        let mut demand: Vec<(usize, usize)> = input
            .requesters
            .iter()
            .map(|r| (r.as_usize(), input.views[r.as_usize()].waiting_jobs))
            .collect();
        let mut total: usize = demand.iter().map(|&(_, d)| d).sum();
        let mut orders = Vec::new();
        while orders.len() < input.max_placements && !free.is_empty() && total > 0 {
            // The next demanding station at or after the cursor (wrapping).
            let pos = demand
                .iter()
                .position(|&(s, d)| d > 0 && s >= self.cursor)
                .or_else(|| demand.iter().position(|&(_, d)| d > 0))
                .expect("total > 0");
            let (station, _) = demand[pos];
            let target = free.pop().expect("checked non-empty");
            orders.push(Order::Assign {
                home: input.views[station].node,
                target,
            });
            demand[pos].1 -= 1;
            total -= 1;
            self.cursor = (station + 1) % n;
        }
        orders
    }
}

/// Grants each free machine to a uniformly random demanding station;
/// never preempts. Deterministic for a given seed.
#[derive(Debug)]
pub struct RandomPolicy {
    rng: SimRng,
}

impl RandomPolicy {
    /// Creates the policy with its own random stream.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: SimRng::seed_from(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }
}

impl AllocationPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    /// `decide` returns before any RNG draw when no station requests, so
    /// the stream position is untouched.
    fn quiescent(&self) -> bool {
        true
    }

    fn decide(&mut self, _now: SimTime, input: &PollInput<'_>) -> Vec<Order> {
        if input.requesters.is_empty() {
            return Vec::new();
        }
        let mut free: Vec<NodeId> = input.free.to_vec();
        free.reverse();
        let mut demand: Vec<(NodeId, usize)> = input
            .requesters
            .iter()
            .map(|r| (*r, input.views[r.as_usize()].waiting_jobs))
            .collect();
        let mut orders = Vec::new();
        while orders.len() < input.max_placements && !free.is_empty() && !demand.is_empty() {
            let pick = self.rng.index(demand.len());
            let target = free.pop().expect("checked non-empty");
            orders.push(Order::Assign {
                home: demand[pick].0,
                target,
            });
            demand[pick].1 -= 1;
            if demand[pick].1 == 0 {
                demand.remove(pick);
            }
        }
        orders
    }
}

/// Validates an order batch against the views (used by the cluster in
/// debug builds and by policy tests): no duplicate targets, assignments
/// only to hostable machines, preemptions only of hosting machines.
pub fn validate_orders(orders: &[Order], views: &[StationView]) -> Result<(), String> {
    let mut used = std::collections::HashSet::new();
    for o in orders {
        match *o {
            Order::Assign { home, target } => {
                if !views[target.as_usize()].can_host {
                    return Err(format!("assign to non-hostable {target}"));
                }
                if views[home.as_usize()].waiting_jobs == 0 {
                    return Err(format!("assign to home {home} with no demand"));
                }
                if !used.insert(target) {
                    return Err(format!("target {target} assigned twice"));
                }
            }
            Order::Preempt { target } => {
                if views[target.as_usize()].hosting_for.is_none() {
                    return Err(format!("preempt of non-hosting {target}"));
                }
                if !used.insert(target) {
                    return Err(format!("target {target} ordered twice"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_of(views: &[StationView]) -> Vec<NodeId> {
        views.iter().filter(|v| v.can_host).map(|v| v.node).collect()
    }

    fn views(spec: &[(bool, Option<u32>, usize)]) -> Vec<StationView> {
        spec.iter()
            .enumerate()
            .map(|(i, &(can_host, hosting, waiting))| StationView {
                node: NodeId::new(i as u32),
                can_host,
                hosting_for: hosting.map(NodeId::new),
                waiting_jobs: waiting,
                free_cpu_milli: if can_host { 1000 } else { 0 },
            })
            .collect()
    }

    #[test]
    fn fifo_serves_head_of_line_first() {
        let mut p = FifoPolicy::new();
        // Station 2 demands 3 jobs, station 0 demands 1; machines 3,4 free.
        let v = views(&[
            (false, None, 1),
            (false, None, 0),
            (false, None, 3),
            (true, None, 0),
            (true, None, 0),
        ]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 10);
        validate_orders(&orders, &v).unwrap();
        // Station 0 first in id order, then 2 gets the rest.
        assert_eq!(orders.len(), 2);
        assert!(matches!(orders[0], Order::Assign { home, .. } if home == NodeId::new(0)));
        assert!(matches!(orders[1], Order::Assign { home, .. } if home == NodeId::new(2)));
    }

    #[test]
    fn fifo_line_persists_across_polls() {
        let mut p = FifoPolicy::new();
        // Poll 1: only station 1 demands; no machines.
        let v1 = views(&[(false, None, 0), (false, None, 2)]);
        assert!(decide_from_views(&mut p, SimTime::ZERO, &v1, &free_of(&v1), 10).is_empty());
        // Poll 2: station 0 also demands; one machine — station 1 was first.
        let v2 = views(&[(false, None, 2), (false, None, 2), (true, None, 0)]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v2, &free_of(&v2), 10);
        assert_eq!(
            orders,
            vec![Order::Assign { home: NodeId::new(1), target: NodeId::new(2) }]
        );
    }

    /// The line is arrival order, not id order: homes that drain leave,
    /// homes that come back rejoin at the back, and a home already queued
    /// never moves — for both policies built on the line.
    #[test]
    fn demand_line_keeps_arrival_order_as_homes_join_and_leave() {
        let line_after = |polls: &[&[usize]]| {
            let mut fifo = FifoPolicy::new();
            let mut frac = FracPolicy::new();
            for waiting in polls {
                let spec: Vec<_> = waiting.iter().map(|&w| (false, None, w)).collect();
                let v = views(&spec);
                decide_from_views(&mut fifo, SimTime::ZERO, &v, &[], 4);
                decide_from_views(&mut frac, SimTime::ZERO, &v, &[], 4);
            }
            assert_eq!(fifo.line.line, frac.line.line);
            let queued: Vec<usize> =
                (0..fifo.line.queued.len()).filter(|&s| fifo.line.queued[s]).collect();
            let mut sorted: Vec<usize> = fifo.line.line.iter().map(|n| n.as_usize()).collect();
            sorted.sort_unstable();
            assert_eq!(queued, sorted, "flags and line disagree");
            fifo.line.line.iter().map(|n| n.index()).collect::<Vec<u32>>()
        };
        // Poll 1: stations 4 and 1 demand — id order within one poll.
        let p1: &[usize] = &[0, 2, 0, 0, 1, 0];
        assert_eq!(line_after(&[p1]), vec![1, 4]);
        // Poll 2: 0 and 5 join behind them; 1 and 4 keep their places.
        let p2: &[usize] = &[3, 2, 0, 0, 1, 1];
        assert_eq!(line_after(&[p1, p2]), vec![1, 4, 0, 5]);
        // Poll 3: 1 drains and leaves, 3 joins at the back, and the fleet
        // loses station 5 (a home beyond the views leaves too).
        let p3: &[usize] = &[3, 0, 0, 1, 1];
        assert_eq!(line_after(&[p1, p2, p3]), vec![4, 0, 3]);
        // Poll 4: 1 is back — behind everyone who kept waiting.
        let p4: &[usize] = &[3, 1, 0, 1, 1];
        assert_eq!(line_after(&[p1, p2, p3, p4]), vec![4, 0, 3, 1]);
    }

    #[test]
    fn fifo_respects_placement_budget() {
        let mut p = FifoPolicy::new();
        let v = views(&[(false, None, 5), (true, None, 0), (true, None, 0), (true, None, 0)]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 1);
        assert_eq!(orders.len(), 1);
    }

    #[test]
    fn frac_policy_packs_tightest_station_first() {
        let mut p = FracPolicy::new();
        // Station 0 demands 2 jobs; stations 1–3 are free with different
        // amounts of free CPU. Best fit targets the tightest first.
        let mut v = views(&[
            (false, None, 2),
            (true, None, 0),
            (true, None, 0),
            (true, None, 0),
        ]);
        v[1].free_cpu_milli = 1000;
        v[2].free_cpu_milli = 300;
        v[3].free_cpu_milli = 600;
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 10);
        validate_orders(&orders, &v).unwrap();
        assert_eq!(
            orders,
            vec![
                Order::Assign { home: NodeId::new(0), target: NodeId::new(2) },
                Order::Assign { home: NodeId::new(0), target: NodeId::new(3) },
            ]
        );
    }

    #[test]
    fn frac_policy_degenerates_to_fifo_on_whole_machines() {
        // All free stations show a whole free CPU → same orders as FIFO.
        let v = views(&[
            (false, None, 1),
            (false, None, 3),
            (true, None, 0),
            (true, None, 0),
        ]);
        let mut frac = FracPolicy::new();
        let mut fifo = FifoPolicy::new();
        let a = decide_from_views(&mut frac, SimTime::ZERO, &v, &free_of(&v), 10);
        let b = decide_from_views(&mut fifo, SimTime::ZERO, &v, &free_of(&v), 10);
        assert_eq!(a, b);
    }

    #[test]
    fn round_robin_spreads_across_demanders() {
        let mut p = RoundRobinPolicy::new();
        let v = views(&[
            (false, None, 5),
            (false, None, 5),
            (true, None, 0),
            (true, None, 0),
        ]);
        let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 10);
        validate_orders(&orders, &v).unwrap();
        let homes: Vec<NodeId> = orders
            .iter()
            .map(|o| match o {
                Order::Assign { home, .. } => *home,
                _ => panic!("unexpected preempt"),
            })
            .collect();
        assert_eq!(homes, vec![NodeId::new(0), NodeId::new(1)]);
        // Next poll continues after the cursor.
        let v2 = views(&[
            (false, None, 4),
            (false, None, 4),
            (true, None, 0),
        ]);
        let orders2 = decide_from_views(&mut p, SimTime::ZERO, &v2, &free_of(&v2), 10);
        assert!(matches!(orders2[0], Order::Assign { home, .. } if home == NodeId::new(0)));
    }

    #[test]
    fn random_policy_is_deterministic_and_valid() {
        let run = |seed| {
            let mut p = RandomPolicy::new(seed);
            let v = views(&[
                (false, None, 3),
                (false, None, 3),
                (true, None, 0),
                (true, None, 0),
                (true, None, 0),
            ]);
            let orders = decide_from_views(&mut p, SimTime::ZERO, &v, &free_of(&v), 10);
            validate_orders(&orders, &v).unwrap();
            orders
        };
        assert_eq!(run(1), run(1));
        assert_eq!(run(1).len(), 3);
    }

    #[test]
    fn no_policy_assigns_without_demand_or_machines() {
        let idle_system = views(&[(true, None, 0), (true, None, 0)]);
        let starved = views(&[(false, None, 4), (false, Some(0), 0)]);
        let mut fifo = FifoPolicy::new();
        let mut rr = RoundRobinPolicy::new();
        let mut rnd = RandomPolicy::new(3);
        for v in [&idle_system, &starved] {
            assert!(decide_from_views(&mut fifo, SimTime::ZERO, v, &free_of(v), 10).is_empty());
            assert!(decide_from_views(&mut rr, SimTime::ZERO, v, &free_of(v), 10).is_empty());
            assert!(decide_from_views(&mut rnd, SimTime::ZERO, v, &free_of(v), 10).is_empty());
        }
    }

    #[test]
    fn validate_orders_catches_bad_batches() {
        let v = views(&[(true, None, 1), (false, Some(0), 0)]);
        let double = vec![
            Order::Assign { home: NodeId::new(0), target: NodeId::new(0) },
            Order::Assign { home: NodeId::new(0), target: NodeId::new(0) },
        ];
        assert!(validate_orders(&double, &v).is_err());
        let bad_target = vec![Order::Assign { home: NodeId::new(0), target: NodeId::new(1) }];
        assert!(validate_orders(&bad_target, &v).is_err());
        let bad_preempt = vec![Order::Preempt { target: NodeId::new(0) }];
        assert!(validate_orders(&bad_preempt, &v).is_err());
        let good = vec![
            Order::Assign { home: NodeId::new(0), target: NodeId::new(0) },
            Order::Preempt { target: NodeId::new(1) },
        ];
        assert!(validate_orders(&good, &v).is_ok());
    }
}
