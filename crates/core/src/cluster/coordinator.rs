//! The central coordinator (paper §2.1): it only hands out capacity. This
//! module owns the incrementally maintained poll snapshot
//! ([`CoordCache`]), the 2-minute poll cycle feeding the
//! [`AllocationPolicy`](crate::policy::AllocationPolicy), and the
//! execution of the policy's `Assign`/`Preempt` orders — everything that
//! happens *to* a job once it is granted lives in the lifecycle modules.

use condor_model::owner::OwnerState;
use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::engine::Scheduler;
use condor_sim::event::EventToken;
use condor_sim::time::SimTime;

use super::remote_unix::SegmentEnd;
use super::station::Phase;
use super::{Cluster, Event, PolicyHolder};
use crate::bits::Bits;
use crate::job::{JobId, JobState, PreemptReason};
use crate::policy::{CapacityIndex, Order, PollInput, StationView};
use crate::telemetry::GaugeSample;
use crate::trace::TraceKind;

/// What the coordinator knows of the fleet: a pure function of primary
/// state ([`Cluster::derive_coord`] computes it from scratch), kept equal
/// to that function incrementally.
///
/// Every station transition that can change its [`StationView`] marks the
/// station dirty; the 2-minute poll refreshes only the dirty stations and
/// reads the free/requester/host sets straight from bitsets. Poll cost
/// therefore scales with the number of stations that *changed* since the
/// last poll, not with fleet size. Debug builds compare it against its
/// derivation on every poll, so a forgotten dirty-mark fails loudly in
/// tests (including the golden-trace run) rather than silently skewing
/// placement.
#[derive(Debug, PartialEq)]
pub(super) struct CoordState {
    /// Per-station views.
    views: Vec<StationView>,
    /// What each station would offer *were its owner idle*: 0 when it is
    /// cut off, failed, fenced or full, else its free CPU share. The
    /// owner-independent half of `can_host` / `free_cpu_milli`, written
    /// by [`Cluster::refresh_offer`] whenever the station is flushed, so
    /// that an owner transition of a clean station settles its view from
    /// this word and the lane's state alone ([`Cluster::refresh_owner`]).
    idle_offer: Vec<u32>,
    /// Membership set: `can_host`, with a maintained count and a summary
    /// level so the poll extracts its free head in O(head + active words).
    pub(super) free_bits: Bits,
    /// Membership set: `waiting_jobs > 0`.
    req_bits: Bits,
    /// Membership set: `hosting_for.is_some()`.
    host_bits: Bits,
    /// The consumer ledger: `used_by_home[h]` = stations whose view says
    /// `hosting_for == Some(h)`, and the homes where that is non-zero.
    /// Moved whenever a refresh changes a station's `hosting_for`, in
    /// lockstep with `host_bits`, so the poll hands the policy its hosts
    /// already grouped by home ([`PollInput::consumers`]).
    used_by_home: Vec<u32>,
    consumer_bits: Bits,
    /// Bucketed free-capacity index over the hostable set, maintained in
    /// lockstep with `free_bits` (same transitions, keyed by the view's
    /// `free_cpu_milli`). Handed to capacity-aware policies each poll.
    capacity: CapacityIndex,
    /// Raw per-station queue lengths — *not* masked by `failed`, unlike
    /// `StationView::waiting_jobs`. The `CoordinatorPolled` event reports
    /// the raw total.
    raw_queue: Vec<u32>,
    /// Sum of `raw_queue`, maintained by refresh deltas.
    pub(super) raw_queue_total: u32,
    /// Stations currently fenced by a reservation; lets the poll skip the
    /// reservation pass entirely in the common no-reservations case.
    reserved_count: u32,
    /// Sum of each station's resident demands, maintained at every slot
    /// insert and remove (`occupy` / `vacate`), so admission checks and
    /// view refreshes read `capacity − used` without folding the
    /// residents list.
    pub(super) used_cap: Vec<ResourceVec>,
}

impl CoordState {
    /// A fleet of `n` stations with nothing hostable, waiting or hosted:
    /// where a derivation starts.
    fn empty(n: usize) -> Self {
        CoordState {
            views: Vec::with_capacity(n),
            idle_offer: Vec::with_capacity(n),
            free_bits: Bits::new(n),
            req_bits: Bits::new(n),
            host_bits: Bits::new(n),
            used_by_home: vec![0; n],
            consumer_bits: Bits::new(n),
            capacity: CapacityIndex::new(n),
            raw_queue: Vec::with_capacity(n),
            raw_queue_total: 0,
            reserved_count: 0,
            used_cap: Vec::with_capacity(n),
        }
    }
}

/// The coordinator's derived state plus what a poll needs besides it: the
/// set of stations whose entries are stale, and reusable buffers.
#[derive(Debug)]
pub(super) struct CoordCache {
    /// Equal to [`Cluster::derive_coord`] whenever `dirty` is empty. Empty
    /// until [`Cluster::try_new`] derives it.
    pub(super) derived: CoordState,
    /// Bit per station: queued for refresh (dedupes `dirty`).
    dirty_bits: Vec<u64>,
    /// Stations awaiting refresh.
    dirty: Vec<u32>,
    // Reusable poll scratch buffers (kept warm between polls).
    free: Vec<NodeId>,
    requesters: Vec<NodeId>,
    hosts: Vec<NodeId>,
    consumers: Vec<(NodeId, u32)>,
    /// Machines granted so far this poll — the exclusion list that lets
    /// order execution iterate the live free set lazily instead of
    /// copying and shrinking a pool vector.
    granted: Vec<NodeId>,
    machines: Vec<NodeId>,
    service: Vec<JobId>,
}

impl CoordCache {
    pub(super) fn new(stations: usize) -> Self {
        CoordCache {
            derived: CoordState::empty(0),
            dirty_bits: vec![0; stations.div_ceil(64)],
            dirty: Vec::with_capacity(stations),
            free: Vec::new(),
            requesters: Vec::new(),
            hosts: Vec::new(),
            consumers: Vec::new(),
            granted: Vec::new(),
            machines: Vec::new(),
            service: Vec::new(),
        }
    }

    /// Queues a station for view refresh. Cheap and idempotent; marking a
    /// station whose view did not actually change is harmless, so call
    /// sites can over-approximate.
    #[inline]
    pub(super) fn mark(&mut self, station: usize) {
        let word = station / 64;
        let bit = 1u64 << (station % 64);
        if self.dirty_bits[word] & bit == 0 {
            self.dirty_bits[word] |= bit;
            self.dirty.push(station as u32);
        }
    }

    /// Whether `station` is queued for a full refresh.
    #[inline]
    pub(super) fn is_dirty(&self, station: usize) -> bool {
        self.dirty_bits[station / 64] & (1u64 << (station % 64)) != 0
    }
}

/// Where `execute_assign` finds fallback machines when the policy's
/// preferred target cannot serve the job it negotiates for.
enum AssignFallback<'a> {
    /// No fallback: the grant is for this fenced machine or nothing
    /// (reservation pass).
    None,
    /// The coordinator's free set in ascending id order — the default
    /// preference order, iterated lazily off the bitset.
    FreeSet,
    /// An explicit preference-ordered list (history-aware placement).
    List(&'a [NodeId]),
}

impl Cluster {
    // ----- coordinator-view cache ---------------------------------------

    /// The owner-independent part of station `i`'s view, from scratch
    /// save for its occupancy `used`: `(idle_offer, hosting_for,
    /// waiting_jobs)`.
    fn compute_offer(&self, i: usize, used: ResourceVec) -> (u32, Option<NodeId>, usize) {
        let st = &self.stations[i];
        // A partitioned station is dark to the coordinator: it takes no
        // new placements and its queue is invisible until the link heals.
        let cut = self.chaos.as_ref().is_some_and(|c| c.partition_depth[i] > 0);
        let free = st.capacity.sub(used);
        // With whole-machine demands (the default) any resident consumes
        // the full capacity vector, so "has free CPU and memory" below is
        // exactly the legacy "no foreign job resident" condition.
        let open = !cut
            && !st.failed
            && st.reserved_for.is_none()
            && free.cpu_milli > 0
            && free.mem_milli > 0;
        // Fenced machines are invisible to the general policy: it may
        // neither assign them nor preempt the holder's jobs on them.
        let hosting_for = if st.reserved_for.is_some() {
            None
        } else {
            // A running replica counts as hosting: replication spends
            // the home's own Up-Down standing, and a rival user's
            // preemption order cancels the replica.
            st.residents.iter().find_map(|slot| {
                self.slot_executing(slot).then(|| self.jobs[slot.job.0 as usize].spec.home)
            })
        };
        // A downed station's local scheduler is unreachable; its queue
        // thaws on recovery.
        let waiting_jobs = if st.failed || cut { 0 } else { st.queue.len() };
        (if open { free.cpu_milli } else { 0 }, hosting_for, waiting_jobs)
    }

    /// The coordinator's state computed from primary state alone — each
    /// station's residents folded afresh ([`Station::used`]), nothing read
    /// from the cache. Construction takes the cache from here, and the
    /// drift check holds the two incremental refresh halves against it.
    ///
    /// [`Station::used`]: super::station::Station::used
    pub(super) fn derive_coord(&self) -> CoordState {
        let mut d = CoordState::empty(self.stations.len());
        for (i, st) in self.stations.iter().enumerate() {
            let used = st.used();
            let (offer, hosting_for, waiting_jobs) = self.compute_offer(i, used);
            let free_cpu_milli = match self.lanes[i].state {
                OwnerState::Idle => offer,
                OwnerState::Active => 0,
            };
            d.views.push(StationView {
                node: NodeId::new(i as u32),
                can_host: free_cpu_milli > 0,
                hosting_for,
                waiting_jobs,
                free_cpu_milli,
            });
            d.idle_offer.push(offer);
            d.used_cap.push(used);
            d.free_bits.set(i, free_cpu_milli > 0);
            d.capacity.update(i, 0, free_cpu_milli);
            d.req_bits.set(i, waiting_jobs > 0);
            d.host_bits.set(i, hosting_for.is_some());
            if let Some(home) = hosting_for {
                d.used_by_home[home.as_usize()] += 1;
                d.consumer_bits.set(home.as_usize(), true);
            }
            let raw = st.queue.len() as u32;
            d.raw_queue.push(raw);
            d.raw_queue_total += raw;
            d.reserved_count += u32::from(st.reserved_for.is_some());
        }
        d
    }

    /// The non-owner half of a refresh: the station's queue, whom it
    /// hosts for (with the consumer ledger) and what it would offer an
    /// idle owner's coordinator. Reads the [`Station`](super::station::Station);
    /// runs only from a flush, for a station something marked.
    fn refresh_offer(&mut self, i: usize) {
        let (offer, hosting_for, waiting_jobs) =
            self.compute_offer(i, self.coord.derived.used_cap[i]);
        let raw = self.stations[i].queue.len() as u32;
        let c = &mut self.coord.derived;
        c.raw_queue_total = c.raw_queue_total - c.raw_queue[i] + raw;
        c.raw_queue[i] = raw;
        c.req_bits.set(i, waiting_jobs > 0);
        c.host_bits.set(i, hosting_for.is_some());
        let was = std::mem::replace(&mut c.views[i].hosting_for, hosting_for);
        if was != hosting_for {
            if let Some(home) = was {
                let h = home.as_usize();
                c.used_by_home[h] -= 1;
                c.consumer_bits.set(h, c.used_by_home[h] > 0);
            }
            if let Some(home) = hosting_for {
                let h = home.as_usize();
                c.used_by_home[h] += 1;
                c.consumer_bits.set(h, true);
            }
        }
        c.views[i].waiting_jobs = waiting_jobs;
        c.idle_offer[i] = offer;
    }

    /// The owner half of a refresh: `can_host`, `free_cpu_milli`, the free
    /// set and the capacity index, from the station's offer and its
    /// owner's state — one lane, one view, one word of `idle_offer`. A
    /// flush runs it after [`refresh_offer`](Self::refresh_offer); an
    /// owner transition of a clean station runs it alone.
    pub(super) fn refresh_owner(&mut self, i: usize) {
        let c = &mut self.coord.derived;
        let offer = match self.lanes[i].state {
            OwnerState::Idle => c.idle_offer[i],
            OwnerState::Active => 0,
        };
        let view = &mut c.views[i];
        c.free_bits.set(i, offer > 0);
        c.capacity.update(i, view.free_cpu_milli, offer);
        view.can_host = offer > 0;
        view.free_cpu_milli = offer;
    }

    /// Refreshes every dirty station's cached view, both halves.
    pub(super) fn flush_dirty(&mut self) {
        while let Some(i) = self.coord.dirty.pop() {
            let i = i as usize;
            self.coord.dirty_bits[i / 64] &= !(1u64 << (i % 64));
            self.refresh_offer(i);
            self.refresh_owner(i);
        }
    }

    /// Test hook: flushes pending view refreshes, then holds the
    /// coordinator's state against its derivation from scratch — in every
    /// build profile. Panics on divergence. Driven between arbitrary
    /// events by the consistency suite; a flush here is safe because the
    /// next poll would perform the identical refreshes anyway.
    #[doc(hidden)]
    pub fn verify_coord_cache(&mut self) {
        self.flush_dirty();
        self.check_coord_rescan();
    }

    /// Drift check: with no station dirty, the coordinator's state must
    /// equal [`derive_coord`](Self::derive_coord), and every lazy owner
    /// transition must be filed on the calendar wheel where its instant
    /// says. Catches any transition that forgot to mark its station, and
    /// any write of a lazy instant that bypassed `LazyFlips::set` / `take`.
    fn check_coord_rescan(&self) {
        let unfiled = self.lazy.first_unfiled();
        assert_eq!(unfiled, None, "the calendar wheel disagrees with the lazy instant of the station shown");
        let (cached, fresh) = (&self.coord.derived, self.derive_coord());
        let entry =
            |d: &CoordState, i: usize| (d.views[i], d.idle_offer[i], d.used_cap[i], d.raw_queue[i]);
        assert!(
            *cached == fresh,
            "coordinator state drifted from its derivation (first differing station: {:?}) — \
             a transition neither marked its station dirty nor settled it",
            (0..self.stations.len()).find(|&i| entry(cached, i) != entry(&fresh, i))
        );
    }

    /// Sets or clears a station's reservation fence, maintaining the
    /// fenced-station count and the view cache.
    pub(super) fn set_reserved(&mut self, i: usize, holder: Option<NodeId>) {
        let prev = self.stations[i].reserved_for;
        if prev.is_some() != holder.is_some() {
            if holder.is_some() {
                self.coord.derived.reserved_count += 1;
            } else {
                self.coord.derived.reserved_count -= 1;
            }
        }
        self.stations[i].reserved_for = holder;
        self.coord.mark(i);
    }

    // ----- the poll cycle -------------------------------------------------

    pub(super) fn on_poll(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let next_poll = now + self.config.costs.coordinator_poll_interval;
        self.fold_owner_flips_at_poll(now, next_poll, sched);
        sched.at(next_poll, Event::Poll);
        if self.coordinator_down || self.chaos_poll_suppressed(now, sched) {
            return;
        }
        self.poll_body(now, sched);
    }

    /// Brings the stations that own no queue entry up to this poll, which
    /// is about to read them, and keeps the one tie the fold cannot order
    /// out of its hands.
    ///
    /// Transitions strictly before `now` are applied. One due at exactly
    /// `now` is left for the next fold: this poll goes first, because such
    /// a transition was armed after this poll was — by a predecessor
    /// younger than the previous poll. The other order of that tie, a
    /// transition armed *before* the poll it coincides with, never reaches
    /// a fold: a station whose next transition falls on `next_poll` takes
    /// its queue entry here, before `on_poll` re-arms the poll, so the
    /// event queue delivers the two in the order they were scheduled —
    /// the order the fully queued run has. (Everything that arms a lazy
    /// transition for `next_poll` after this point is younger than this
    /// poll, hence correctly second.) A resident-free station whose entry
    /// fires just goes lazy again.
    fn fold_owner_flips_at_poll(
        &mut self,
        now: SimTime,
        next_poll: SimTime,
        sched: &mut Scheduler<Event>,
    ) {
        if !self.fold_flips {
            return;
        }
        let mut due = self.lazy.take_due(now, Some(next_poll));
        due.retain(|i| {
            let i = i as usize;
            self.fold_station(i, now);
            if self.lazy.at(i) == next_poll {
                self.take_flip_entry(i, sched);
            }
            false
        });
        self.lazy.restore_due(due);
    }

    /// The poll cycle proper: reservations, policy decision, order
    /// execution, and the poll trace/gauge emissions. Shared by on-grid
    /// polls and chaos-delayed ones.
    pub(super) fn poll_body(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        self.chaos_drop_duplicate_poll(now);
        self.totals.polls += 1;
        self.reclaim_replicas_for_demand(now, sched);
        // Reserved machines are served first, outside the general policy:
        // one placement per poll for the whole system (the §4 throttle),
        // with reservation holders at the front of the line. Skipped
        // wholesale when nothing is fenced (the common case).
        let mut placements = 0u32;
        let mut budget = self.config.placements_per_poll;
        let mut granted = std::mem::take(&mut self.coord.granted);
        granted.clear();
        if self.coord.derived.reserved_count > 0 {
            for i in 0..self.stations.len() {
                if budget == 0 {
                    break;
                }
                let Some(holder) = self.stations[i].reserved_for else {
                    continue;
                };
                let st = &self.stations[i];
                if st.failed
                    || self.lanes[i].state != OwnerState::Idle
                    || !st.residents.is_empty()
                {
                    continue;
                }
                if self.stations[holder.as_usize()].queue.is_empty() {
                    continue;
                }
                let target = NodeId::new(i as u32);
                if self.execute_assign(now, holder, target, AssignFallback::None, &mut granted, sched) {
                    placements += 1;
                    budget -= 1;
                    self.totals.reservation_placements += 1;
                }
            }
        }
        // Bring the cached snapshot up to date: only stations that changed
        // since the last poll are recomputed. Debug builds then hold it
        // against its derivation from scratch; release builds skip that
        // (it is O(stations) per poll, exactly the scan the incremental
        // cache exists to avoid).
        self.flush_dirty();
        #[cfg(debug_assertions)]
        self.check_coord_rescan();
        // Memo fast path: nothing fenced, no station wants or hosts
        // anything, and the policy is provably quiescent — `decide` would
        // return no orders and mutate nothing, so emit the poll telemetry
        // directly. (Reservation placements require `reserved_count > 0`,
        // so `placements` is provably zero here too.)
        if self.coord.derived.reserved_count == 0
            && self.coord.derived.req_bits.count() == 0
            && self.coord.derived.host_bits.count() == 0
            && self.policy.as_dyn().quiescent()
        {
            self.totals.poll_memo_hits += 1;
            self.coord.granted = granted;
            let free_machines = self.coord.derived.free_bits.count();
            self.emit_poll_telemetry(now, free_machines, 0, 0);
            return;
        }
        let free_machines = self.coord.derived.free_bits.count();
        let mut free = std::mem::take(&mut self.coord.free);
        if self.config.history_aware_placement {
            // Longest expected idle first; stable so ids break ties. The
            // preference order is not id order here, so the policy gets the
            // full sorted list and no capacity index.
            self.coord.derived.free_bits.collect_into(&mut free);
            free.sort_by(|a, b| {
                let sa = self.idle_score(a.as_usize(), now);
                let sb = self.idle_score(b.as_usize(), now);
                // Non-negative EWMAs and streaks: finite and never -0.0,
                // so `total_cmp` is the numeric order.
                sb.total_cmp(&sa)
            });
        } else {
            // Policies take at most `budget` targets from the front of the
            // preference order, so a budget-sized head of the free set is
            // indistinguishable from the whole fleet — and O(budget) to
            // build. (`max(1)` keeps "no machine free at all" observable in
            // the degenerate budget-0 poll.)
            self.coord.derived.free_bits.collect_head(budget.max(1), &mut free);
        }
        let c = &mut self.coord;
        c.derived.req_bits.collect_into(&mut c.requesters);
        c.derived.host_bits.collect_into(&mut c.hosts);
        c.consumers.clear();
        c.derived.consumer_bits.for_each(|home| {
            c.consumers.push((NodeId::new(home), c.derived.used_by_home[home as usize]));
            true
        });
        let capacity = (!self.config.history_aware_placement).then_some(&c.derived.capacity);
        let orders = self.policy.as_dyn().decide(
            now,
            &PollInput {
                views: &c.derived.views,
                requesters: &c.requesters,
                hosts: &c.hosts,
                consumers: &c.consumers,
                free: &free,
                free_total: free_machines as usize,
                capacity,
                max_placements: budget,
            },
        );
        debug_assert!(
            crate::policy::validate_orders(&orders, &c.derived.views).is_ok(),
            "policy emitted invalid orders: {orders:?}"
        );
        // Reservation-pass grants are already reflected in the freshly
        // flushed free set; the exclusion list restarts for the order loop.
        granted.clear();
        let history = self.config.history_aware_placement;
        let mut preemptions = 0u32;
        for order in orders {
            match order {
                Order::Assign { home, target } => {
                    let fallback = if history {
                        AssignFallback::List(&free)
                    } else {
                        AssignFallback::FreeSet
                    };
                    if self.execute_assign(now, home, target, fallback, &mut granted, sched) {
                        placements += 1;
                    }
                }
                Order::Preempt { target } => {
                    if self.execute_preempt(now, target, sched) {
                        preemptions += 1;
                    }
                }
            }
        }
        self.coord.free = free;
        self.coord.granted = granted;
        // Order execution may have dirtied stations; the reported waiting
        // count is the post-execution raw queue total, as before.
        self.flush_dirty();
        self.emit_poll_telemetry(now, free_machines, placements, preemptions);
    }

    /// The `CoordinatorPolled` event plus the per-poll gauge sample —
    /// shared verbatim by the full poll path and the memo fast path, so
    /// memoized polls are bit-identical on the trace.
    fn emit_poll_telemetry(
        &mut self,
        now: SimTime,
        free_machines: u32,
        placements: u32,
        preemptions: u32,
    ) {
        let waiting = self.coord.derived.raw_queue_total;
        self.emit(
            now,
            TraceKind::CoordinatorPolled {
                free_machines,
                waiting_jobs: waiting,
                placements,
                preemptions,
            },
        );
        // Gauges no event carries: sampled once per poll, deterministically.
        let updown_mean_index = match &self.policy {
            PolicyHolder::UpDown(p) | PolicyHolder::Redundant(p) => {
                Some(p.index_sum() / self.stations.len() as f64)
            }
            _ => None,
        };
        self.emit_sample(GaugeSample {
            at: now,
            bus_backlog: self.bus.backlog_at(now),
            free_machines,
            waiting_jobs: waiting,
            updown_mean_index,
        });
    }

    // ----- order execution -------------------------------------------------

    /// Executes one `Assign` grant. The policy names a preferred `target`,
    /// but the local scheduler negotiates: if none of the home's waiting
    /// jobs can use that machine (wrong architecture, full disk), the
    /// grant falls back to another machine still free this poll — the
    /// placement budget is what the paper's §4 throttle limits, not the
    /// specific machine.
    fn execute_assign(
        &mut self,
        now: SimTime,
        home: NodeId,
        target: NodeId,
        fallback: AssignFallback<'_>,
        granted: &mut Vec<NodeId>,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let h = home.as_usize();
        if self.stations[h].queue.is_empty() {
            return false; // policy over-granted this home
        }
        // The preferred target leads the candidate order when the free
        // snapshot still lists it un-granted; a reservation-pass target is
        // fenced (never in the free set) and eligible by construction.
        let target_ok = match fallback {
            AssignFallback::None => true,
            AssignFallback::FreeSet | AssignFallback::List(_) => {
                self.coord.derived.free_bits.get(target.as_usize()) && !granted.contains(&target)
            }
        };
        // Job-major negotiation: the local scheduler walks its queue in
        // service order and places the first job for which enough
        // compatible machines are free — one machine normally, k for a
        // width-k gang. Candidates after the preferred target come lazily
        // from the fallback source with this poll's earlier grants
        // excluded, so a grant costs O(candidates inspected), not a
        // materialised copy of the whole free list.
        let mut service = std::mem::take(&mut self.coord.service);
        service.clear();
        service.extend(self.stations[h].queue.iter());
        let mut machines = std::mem::take(&mut self.coord.machines);
        let mut disk_blocked: Option<(JobId, NodeId)> = None;
        let mut chosen: Option<JobId> = None;
        for &cand_job in &service {
            let j = &self.jobs[cand_job.0 as usize];
            let width = j.spec.width.max(1) as usize;
            let image = j.spec.image_bytes;
            let demand = j.spec.resources;
            machines.clear();
            let mut arch_ok_but_disk_full: Option<NodeId> = None;
            // Returns `false` once the job's machine list is full.
            let mut scan = |cand: NodeId| -> bool {
                if machines.len() == width {
                    return false;
                }
                let c = cand.as_usize();
                if !j.can_run_on(self.station_arch(c)) {
                    return true;
                }
                // Capacity conservation: the grant must fit in what the
                // residents leave free. Whole-machine demands (default)
                // always fit a `can_host` station, so this never rejects
                // there.
                if !demand.fits(self.free_capacity(c)) {
                    return true;
                }
                if image > self.stations[c].disk_free() {
                    // Paper §4: an idle processor is useless if its disk
                    // is full.
                    arch_ok_but_disk_full.get_or_insert(cand);
                    return true;
                }
                machines.push(cand);
                machines.len() < width
            };
            let mut more = true;
            if target_ok {
                more = scan(target);
            }
            if more {
                match fallback {
                    AssignFallback::None => {}
                    AssignFallback::FreeSet => {
                        self.coord.derived.free_bits.for_each(|id| {
                            let cand = NodeId::new(id);
                            if cand == target || granted.contains(&cand) {
                                return true;
                            }
                            scan(cand)
                        });
                    }
                    AssignFallback::List(list) => {
                        for &cand in list {
                            if cand == target || granted.contains(&cand) {
                                continue;
                            }
                            if !scan(cand) {
                                break;
                            }
                        }
                    }
                }
            }
            if machines.len() == width {
                chosen = Some(cand_job);
                break;
            }
            if let Some(c) = arch_ok_but_disk_full {
                disk_blocked.get_or_insert((cand_job, c));
            }
        }
        self.coord.service = service;
        let Some(job) = chosen else {
            machines.clear();
            self.coord.machines = machines;
            if let Some((job, target)) = disk_blocked {
                self.totals.placement_disk_rejections += 1;
                self.emit(now, TraceKind::PlacementDiskRejected { job, target });
            } else {
                self.totals.arch_starvation += 1;
            }
            return false;
        };
        self.stations[h].queue.remove(job);
        self.coord.mark(h);
        // These machines are spoken for until the next flush; later orders
        // this poll must not fall back onto them.
        granted.extend_from_slice(&machines);
        let target = machines[0];
        let gang: Option<Vec<u32>> =
            (machines.len() > 1).then(|| machines.iter().map(|m| m.index()).collect());
        machines.clear();
        self.coord.machines = machines;
        if let Some(members) = gang {
            self.gang_place(now, home, job, members, sched);
            return true;
        }
        let demand = self.jobs[job.0 as usize].spec.resources;
        // Before `PlacementDone` is scheduled, or a same-millisecond
        // completion would overtake the owner transition due first.
        self.take_flip_entry(target.as_usize(), sched);
        self.occupy(target.as_usize(), job, Phase::Arriving);
        self.jobs[job.0 as usize].state = JobState::Placing { target };
        let seq = self.next_transfer_seq(job);
        let done = self.ship_image(now, job, home, target);
        sched.at(done, Event::PlacementDone { job, target: target.index(), seq });
        self.totals.placements += 1;
        // Fractional grants are annotated just before the placement they
        // describe; whole-machine placements never emit, keeping default
        // traces bit-identical.
        if !demand.is_whole() {
            self.emit(
                now,
                TraceKind::JobGranted {
                    job,
                    on: target,
                    cpu_milli: demand.cpu_milli,
                    mem_milli: demand.mem_milli,
                    tag_milli: demand.tag_milli,
                },
            );
        }
        self.emit(now, TraceKind::PlacementStarted { job, target });
        self.maybe_spawn_replicas(now, job, target, granted, sched);
        true
    }

    /// Executes one `Preempt` order (also the eviction arm of a
    /// reservation start): vacates `target` for a higher-priority home.
    pub(super) fn execute_preempt(
        &mut self,
        now: SimTime,
        target: NodeId,
        sched: &mut Scheduler<Event>,
    ) -> bool {
        let t = target.as_usize();
        // Preempting any member of a running gang vacates the whole gang
        // (its processes cannot run partially).
        if let Some(job) = self.running_gang_on(t) {
            self.gang_stop_accrual(now, job, sched);
            self.totals.preemptions_priority += 1;
            self.gang_checkpoint_out(now, job, PreemptReason::PriorityPreemption, sched);
            return true;
        }
        // A replica surrenders instantly — no checkpoint dance, the
        // machine frees right now, which is strictly better for the
        // preempting user than waiting out a checkpoint transfer.
        let replicas: Vec<JobId> = self.stations[t]
            .residents
            .iter()
            .filter_map(|slot| matches!(slot.phase, Phase::Replica(_)).then_some(slot.job))
            .collect();
        if !replicas.is_empty() {
            for job in replicas {
                self.totals.preemptions_priority += 1;
                self.cancel_replica(now, t, job, Some(sched));
            }
            return true;
        }
        // Preemption vacates the machine: every running resident is
        // checkpointed out (at most one under whole-machine demands).
        let running: Vec<(EventToken, JobId)> = self.stations[t]
            .residents
            .iter()
            .filter_map(|slot| match &slot.phase {
                Phase::Running { finish } => Some((*finish, slot.job)),
                _ => None,
            })
            .collect();
        for &(finish, job) in &running {
            sched.cancel(finish);
            self.close_run_segment(now, job, &[target.index()], SegmentEnd::Seized);
            self.totals.preemptions_priority += 1;
            self.begin_checkpoint_out(now, t, job, PreemptReason::PriorityPreemption, sched);
        }
        !running.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    /// 130 stations of two machine sizes: every bitset spans three words
    /// and the capacity index holds two buckets.
    fn fresh_cluster() -> Cluster {
        let config = ClusterConfig {
            stations: 130,
            capacity_profiles: vec![ResourceVec::WHOLE, ResourceVec::share(500)],
            ..ClusterConfig::default()
        };
        Cluster::try_new(config, Vec::new()).expect("valid config")
    }

    #[test]
    fn a_fresh_cluster_is_clean_and_equals_its_derivation() {
        let c = fresh_cluster();
        assert!(c.coord.dirty.is_empty());
        assert!(c.coord.derived == c.derive_coord());
    }

    #[test]
    fn a_drained_bucket_equals_one_never_made() {
        let mut drained = CapacityIndex::new(100);
        drained.update(3, 0, 500);
        drained.update(3, 500, 1000);
        let mut never = CapacityIndex::new(100);
        never.update(3, 0, 1000);
        assert_eq!(drained, never);
    }

    #[test]
    fn one_station_in_the_wrong_bucket_or_one_count_off_is_unequal() {
        let mut wrong = CapacityIndex::new(100);
        wrong.update(3, 0, 500);
        let mut right = CapacityIndex::new(100);
        right.update(3, 0, 1000);
        assert_ne!(wrong, right);

        let c = fresh_cluster();
        let fresh = c.derive_coord();
        let mut off = c.derive_coord();
        off.req_bits.set(7, true);
        assert_ne!(off, fresh, "one requester-set member off");
        let mut off = c.derive_coord();
        off.used_by_home[7] += 1;
        assert_ne!(off, fresh, "one consumer-ledger count off");
    }

    #[test]
    #[should_panic(expected = "first differing station: Some(7)")]
    fn the_drift_check_names_the_first_station_it_catches() {
        let mut c = fresh_cluster();
        c.coord.derived.idle_offer[7] += 1;
        c.verify_coord_cache();
    }
}
