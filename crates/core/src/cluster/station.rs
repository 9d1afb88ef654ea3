//! The local scheduler: one workstation's hardware, owner process and
//! resident foreign jobs, plus the two handlers that belong to the station
//! alone — the owner's busy/idle flip and the 30-second-grid detection
//! that reconciles residents with it (paper §2.1: the local scheduler is
//! autonomous; the coordinator only hands out capacity).

use condor_model::costs::OWNER_CHECK_INTERVAL;
use condor_model::owner::{OwnerProcess, OwnerState};
use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::engine::Scheduler;
use condor_sim::event::EventToken;
use condor_sim::rng::SimRng;
use condor_sim::time::{SimDuration, SimTime};

use super::remote_unix::SegmentEnd;
use super::replicas::ReplicaState;
use super::{Cluster, Event};
use crate::bits::Bits;
use crate::job::JobId;
use crate::queue::BackgroundQueue;
use crate::trace::TraceKind;

/// Phase of a foreign job occupying a station.
#[derive(Debug)]
pub(super) enum Phase {
    /// Image inbound.
    Arriving,
    /// Member of a multi-machine gang (paper §5(2) parallel programs);
    /// the gang's collective state lives in the cluster's gang table, and
    /// its timers in [`GangState`](super::gangs::GangState), not in
    /// per-station slots.
    GangMember,
    /// Executing; `finish` is the pending completion event.
    Running { finish: EventToken },
    /// Stopped by owner activity; `grace` is the pending eviction timer.
    Suspended { grace: EventToken },
    /// Image outbound.
    Departing,
    /// Speculative copy racing the primary (see
    /// [`PolicyKind::Redundant`](crate::config::PolicyKind::Redundant)).
    /// Replicas carry their own lifecycle in [`ReplicaState`] — never the
    /// job's: `Job::state` always describes the primary copy.
    Replica(ReplicaState),
}

#[derive(Debug)]
pub(super) struct ForeignSlot {
    pub(super) job: JobId,
    /// Capacity granted to this resident: fixed at placement to the job's
    /// demand vector and never rescaled while the job stays on the
    /// station, so scheduled finish events remain exact.
    pub(super) demand: ResourceVec,
    pub(super) phase: Phase,
}

/// Everything an owner transition reads and writes, one per station in one
/// dense `Vec` ([`Cluster::lanes`]): the paper's local scheduler is a few
/// words of state per workstation — is the owner there, since when (§2.1)
/// — and at fleet scale almost every event is a transition of a station
/// that hosts nothing, brought up to date at a poll together with a few
/// hundred others picked at random from the fleet. What such a transition
/// touches is this lane, the station's cached view and its
/// `CoordState::idle_offer`, never the [`Station`] beside it.
#[derive(Debug)]
pub(super) struct OwnerLane {
    /// The owner model; its `state()` is the one the *next* transition
    /// enters (the process flips when it draws a dwell).
    pub(super) process: OwnerProcess,
    /// Persistent per-station stream for owner dwell draws (and, in runs
    /// with stochastic failures, the station's crash/repair delays).
    pub(super) rng: SimRng,
    /// What the station sees right now.
    pub(super) state: OwnerState,
    /// Start of the current active or idle stretch.
    pub(super) since: SimTime,
    /// EWMA of completed idle-interval lengths, seconds (history-aware
    /// placement score).
    pub(super) ewma_idle_secs: f64,
}

// The size is the point. A poll's fold visits a few hundred lanes picked at
// random, and what that costs is set by whether the fleet's lanes, views
// and offers are still in cache from the poll before: ≈1.2 MB at 10k
// stations with an 80-byte lane, where the 216-byte `Station`s these fields
// used to be spread over were not. A field added here is paid at every poll.
const _: () = assert!(std::mem::size_of::<OwnerLane>() <= 80);

impl OwnerLane {
    pub(super) fn new(process: OwnerProcess, rng: SimRng) -> Self {
        OwnerLane { state: process.state(), process, rng, since: SimTime::ZERO, ewma_idle_secs: 0.0 }
    }

    /// Start of the current owner-active stretch (`None` while idle).
    pub(super) fn active_since(&self) -> Option<SimTime> {
        (self.state == OwnerState::Active).then_some(self.since)
    }
}

/// Per-station simulation state that an owner transition does not touch
/// (the cold half of the local scheduler; [`OwnerLane`] is the hot one):
/// the queue, the residents and the hardware.
#[derive(Debug)]
pub(super) struct Station {
    pub(super) queue: BackgroundQueue,
    /// Foreign jobs resident on this station. Whole-machine demands (the
    /// default) keep this at most one entry long; fractional demands pack
    /// jobs until the capacity vector is exhausted.
    pub(super) residents: Vec<ForeignSlot>,
    /// The station's resource capacity (a whole machine by default).
    pub(super) capacity: ResourceVec,
    pub(super) disk_capacity: u64,
    pub(super) disk_used: u64,
    pub(super) detection_pending: bool,
    /// Crashed and not yet repaired.
    pub(super) failed: bool,
    /// Fenced for a reservation holder: only that station's queue may be
    /// served here while set.
    pub(super) reserved_for: Option<NodeId>,
    /// Owner-active intervals overlapping the current run segment (owner
    /// flickers shorter than the detection interval). Excised from the
    /// remote utilization deposit so a machine never accounts as more than
    /// 100% busy in any bucket.
    pub(super) run_overlaps: Vec<(SimTime, SimTime)>,
}

impl Station {
    /// Sum of the residents' granted capacity, folded from scratch — what
    /// [`Cluster::derive_coord`] puts where the coordinator's state keeps
    /// the maintained `used_cap` total.
    pub(super) fn used(&self) -> ResourceVec {
        self.residents
            .iter()
            .fold(ResourceVec::ZERO, |acc, slot| acc.add(slot.demand))
    }

    pub(super) fn resident(&self, job: JobId) -> Option<&ForeignSlot> {
        self.residents.iter().find(|slot| slot.job == job)
    }

    pub(super) fn resident_mut(&mut self, job: JobId) -> Option<&mut ForeignSlot> {
        self.residents.iter_mut().find(|slot| slot.job == job)
    }

    pub(super) fn disk_free(&self) -> u64 {
        self.disk_capacity - self.disk_used
    }
}

/// [`LazyFlips::at`] of a station whose next transition is a queued
/// `OwnerFlip` event. Later than every horizon, so a fold's `< before`
/// test skips such a station without a second one.
pub(super) const NO_LAZY_FLIP: SimTime = SimTime::MAX;

/// Buckets on the calendar wheel: 512 poll slots, 17 hours at the 2-minute
/// poll. A transition further ahead shares a bucket with one a turn (or
/// several) earlier and waits there until its own turn comes.
const WHEEL_KEYS: u64 = 1_024;

/// Calendar key of instant `t` for slots `slot_ms` wide: `2·⌊t/slot⌋` when
/// `t` falls exactly on a slot boundary — a poll's own instant — and one
/// more strictly inside the slot. Keys order like instants, each poll's
/// instant has a bucket of its own, and every instant of a key below
/// `key(before)` is earlier than `before`.
fn calendar_key(t: SimTime, slot_ms: u64) -> u64 {
    let ms = t.as_millis();
    2 * (ms / slot_ms) + u64::from(!ms.is_multiple_of(slot_ms))
}

/// A station's lazy instant and its place in its bucket: the stations of
/// one bucket and the bucket's own node form a doubly linked ring, and a
/// node in no ring links to itself.
#[derive(Debug, Clone, Copy)]
struct Node {
    at: SimTime,
    prev: u32,
    next: u32,
}

/// The next owner transition of every station that owns no `OwnerFlip`
/// queue entry (nothing can see its transitions one by one, so they are
/// applied lazily by [`Cluster::fold_owner_flips`]), filed on a calendar
/// wheel by the poll slot it falls in, so a fold visits the stations that
/// fell due instead of scanning the fleet: a hashed timing wheel with a
/// doubly linked list per bucket (Varghese & Lauck, SOSP 1987).
///
/// A station with a lazy instant is in exactly one ring, its instant's
/// bucket `key % WHEEL_KEYS`; [`set`](Self::set) moves it there and
/// [`take`](Self::take) and a fold take it out, each in O(1). The nodes
/// are allocated once, so filing never allocates.
#[derive(Debug)]
pub(super) struct LazyFlips {
    /// One node per station, then one per bucket (`heads..`).
    nodes: Vec<Node>,
    /// Index of bucket 0's node: the number of stations.
    heads: usize,
    /// Width of a calendar slot: the poll interval, in milliseconds.
    slot_ms: u64,
    /// Key of the last fold's `before`; every key below it has been swept.
    base: u64,
    /// The set [`take_due`](Self::take_due) hands out, kept between folds
    /// so a fold allocates nothing; empty whenever it is here.
    due: Bits,
}

impl LazyFlips {
    pub(super) fn new(stations: usize, slot: SimDuration) -> Self {
        let lone = |i: usize| Node { at: NO_LAZY_FLIP, prev: i as u32, next: i as u32 };
        LazyFlips {
            nodes: (0..stations + WHEEL_KEYS as usize).map(lone).collect(),
            heads: stations,
            slot_ms: slot.as_millis().max(1),
            base: 0,
            due: Bits::new(stations),
        }
    }

    /// Instant of station `i`'s next lazy transition; [`NO_LAZY_FLIP`]
    /// while it owns a queue entry.
    pub(super) fn at(&self, i: usize) -> SimTime {
        self.nodes[i].at
    }

    /// The node of the bucket that calendar key `key` hashes to.
    fn head(&self, key: u64) -> usize {
        self.heads + (key % WHEEL_KEYS) as usize
    }

    /// Makes `t` station `i`'s next transition, carried by no queue entry,
    /// and files it.
    pub(super) fn set(&mut self, i: usize, t: SimTime) {
        let key = calendar_key(t, self.slot_ms);
        // Nothing is set earlier than the fold before it reached; were it,
        // the next fold would still find it, a turn late at worst.
        debug_assert!(key >= self.base, "lazy transition filed into a swept slot");
        self.unlink(i);
        let head = self.head(key);
        let next = self.nodes[head].next;
        self.nodes[i] = Node { at: t, prev: head as u32, next };
        self.nodes[head].next = i as u32;
        self.nodes[next as usize].prev = i as u32;
    }

    /// Clears station `i`'s lazy transition and returns it
    /// ([`NO_LAZY_FLIP`] if it had none): a queue entry carries it now.
    pub(super) fn take(&mut self, i: usize) -> SimTime {
        self.unlink(i);
        std::mem::replace(&mut self.nodes[i].at, NO_LAZY_FLIP)
    }

    /// Takes station `i` out of its ring, if it is in one.
    fn unlink(&mut self, i: usize) {
        let Node { prev, next, .. } = self.nodes[i];
        self.nodes[prev as usize].next = next;
        self.nodes[next as usize].prev = prev;
        (self.nodes[i].prev, self.nodes[i].next) = (i as u32, i as u32);
    }

    /// Moves out the set of stations with a lazy transition strictly
    /// before `before` — and, with `exact`, of those whose transition falls
    /// exactly on `exact` — for the caller to empty in ascending id and
    /// hand back through [`restore_due`](Self::restore_due); until it
    /// files or takes them, they are in no ring. It sweeps the keys from
    /// the last fold's up to `before`'s, at most one turn of the wheel,
    /// then `exact`'s.
    pub(super) fn take_due(&mut self, before: SimTime, exact: Option<SimTime>) -> Bits {
        let mut due = std::mem::replace(&mut self.due, Bits::new(0));
        let last = calendar_key(before, self.slot_ms);
        for key in self.base.max(last.saturating_sub(WHEEL_KEYS - 1))..=last {
            self.sweep(key, |t| t < before, &mut due);
        }
        self.base = self.base.max(last);
        if let Some(exact) = exact {
            self.sweep(calendar_key(exact, self.slot_ms), |t| t == exact, &mut due);
        }
        due
    }

    /// Takes back the set [`take_due`](Self::take_due) handed out.
    pub(super) fn restore_due(&mut self, due: Bits) {
        debug_assert_eq!(due.count(), 0, "a fold left stations unvisited");
        self.due = due;
    }

    /// Moves the stations of `key`'s bucket whose instant `is_due` out of
    /// its ring into `due`; those filed there for a later instant stay.
    fn sweep(&mut self, key: u64, is_due: impl Fn(SimTime) -> bool, due: &mut Bits) {
        let head = self.head(key);
        let mut i = self.nodes[head].next as usize;
        while i != head {
            let next = self.nodes[i].next as usize;
            if is_due(self.nodes[i].at) {
                due.set(i, true);
                self.unlink(i);
            }
            i = next;
        }
    }

    /// The first station filed anywhere but in its instant's bucket, or
    /// with a lazy instant and filed nowhere — `None` when the wheel is
    /// what the instants say it must be.
    pub(super) fn first_unfiled(&self) -> Option<usize> {
        for key in 0..WHEEL_KEYS {
            let head = self.head(key);
            let mut i = self.nodes[head].next as usize;
            while i != head {
                let t = self.nodes[i].at;
                if t == NO_LAZY_FLIP || self.head(calendar_key(t, self.slot_ms)) != head {
                    return Some(i);
                }
                i = self.nodes[i].next as usize;
            }
        }
        (0..self.heads).find(|&i| self.nodes[i].at != NO_LAZY_FLIP && self.nodes[i].next == i as u32)
    }
}

/// Weight of accumulated history in the idle-interval EWMA that feeds
/// history-aware placement. Together with
/// [`IDLE_EWMA_SAMPLE_WEIGHT`] this sets the smoothing horizon: at
/// 0.7/0.3 a completed idle interval's influence halves roughly every
/// two owner departures.
pub const IDLE_EWMA_HISTORY_WEIGHT: f64 = 0.7;

/// Weight of the newest completed idle interval in the idle-interval
/// EWMA. Must satisfy `IDLE_EWMA_HISTORY_WEIGHT + IDLE_EWMA_SAMPLE_WEIGHT
/// == 1.0` so the estimate stays a convex combination of observations.
pub const IDLE_EWMA_SAMPLE_WEIGHT: f64 = 0.3;

/// One EWMA update step for a completed owner-idle interval. The first
/// observation seeds the estimate directly.
fn ewma_idle_update(prev_secs: f64, sample_secs: f64) -> f64 {
    if prev_secs == 0.0 {
        sample_secs
    } else {
        IDLE_EWMA_HISTORY_WEIGHT * prev_secs + IDLE_EWMA_SAMPLE_WEIGHT * sample_secs
    }
}

impl Cluster {
    /// Capacity still unclaimed by station `i`'s residents, from the
    /// incrementally maintained occupancy total.
    #[inline]
    pub(super) fn free_capacity(&self, i: usize) -> ResourceVec {
        self.stations[i].capacity.sub(self.coord.derived.used_cap[i])
    }

    /// Up, unfenced, owner away and hosting nothing: the station a
    /// replica or an autonomous local start may take whole.
    pub(super) fn idle_and_empty(&self, i: usize) -> bool {
        let st = &self.stations[i];
        !st.failed
            && st.reserved_for.is_none()
            && self.lanes[i].state == OwnerState::Idle
            && st.residents.is_empty()
    }

    /// Length of station `i`'s current owner-idle streak, seconds (zero
    /// while the owner is active).
    pub(super) fn idle_streak_secs(&self, i: usize, now: SimTime) -> f64 {
        let lane = &self.lanes[i];
        match lane.state {
            OwnerState::Idle => now.saturating_since(lane.since).as_secs_f64(),
            OwnerState::Active => 0.0,
        }
    }

    /// History-aware placement score: the longer of the current idle
    /// streak and the EWMA of completed idle intervals.
    pub(super) fn idle_score(&self, i: usize, now: SimTime) -> f64 {
        self.lanes[i].ewma_idle_secs.max(self.idle_streak_secs(i, now))
    }

    /// The instant up to which a run segment ending at `now` on station
    /// `i` counts as remote utilization: the tail between an owner's
    /// return and its detection belongs to the *owner* in the utilization
    /// ledgers (the machine cannot be more than 100% busy), even though
    /// the job accrues the full wall time of background cycles it received.
    pub(super) fn owner_capped(&self, i: usize, now: SimTime) -> SimTime {
        self.lanes[i].active_since().map_or(now, |t| t.min(now))
    }

    /// Interference: the owner shared the machine from their return until
    /// this detection.
    pub(super) fn charge_interference(&mut self, i: usize, now: SimTime) {
        if let Some(active_since) = self.lanes[i].active_since() {
            self.totals.interference_ms += now.saturating_since(active_since).as_millis();
        }
    }

    /// Whether `station` hosts `job` in a phase accepted by `phase_pred`.
    pub(super) fn slot_is(
        &self,
        station: usize,
        job: JobId,
        phase_pred: impl Fn(&Phase) -> bool,
    ) -> bool {
        self.stations[station]
            .resident(job)
            .is_some_and(|slot| phase_pred(&slot.phase))
    }

    /// Whether a resident is consuming cycles right now: a running solo
    /// job, a running replica, or a member of a running gang. Such a slot
    /// reports `hosting_for` to the coordinator, and an owner flicker over
    /// it is excised from the remote-utilization deposit.
    pub(super) fn slot_executing(&self, slot: &ForeignSlot) -> bool {
        match slot.phase {
            Phase::Running { .. } | Phase::Replica(ReplicaState::Running { .. }) => true,
            Phase::GangMember => self.gangs[slot.job.0 as usize]
                .as_deref()
                .is_some_and(|g| g.running),
            _ => false,
        }
    }

    /// Gives `job` a slot on station `i` in `phase`, holding its demand
    /// vector of the station's capacity and one image of its disk. The
    /// inverse of [`vacate`](Self::vacate); together they are the only two
    /// places the residents list, the occupancy total and a host's
    /// `disk_used` change.
    pub(super) fn occupy(&mut self, i: usize, job: JobId, phase: Phase) {
        // A resident reads its host's owner state event by event: the
        // caller took the station's queue entry first (`take_flip_entry`).
        debug_assert_eq!(self.lazy.at(i), NO_LAZY_FLIP, "occupying a lazily folded station");
        let spec = &self.jobs[job.0 as usize].spec;
        let demand = spec.resources;
        self.stations[i].disk_used += spec.image_bytes;
        self.stations[i].residents.push(ForeignSlot { job, demand, phase });
        let used = &mut self.coord.derived.used_cap[i];
        *used = used.add(demand);
        self.coord.mark(i);
    }

    /// Frees `job`'s slot, capacity and image on station `i`, returning
    /// the slot (`None` if the job was not resident). `sub_exact` is
    /// debug-asserted, so occupancy drift fails loudly.
    pub(super) fn vacate(&mut self, i: usize, job: JobId) -> Option<ForeignSlot> {
        let st = &mut self.stations[i];
        let slot = st
            .residents
            .iter()
            .position(|slot| slot.job == job)
            .map(|idx| st.residents.remove(idx));
        if let Some(slot) = &slot {
            st.disk_used -= self.jobs[job.0 as usize].spec.image_bytes;
            let used = &mut self.coord.derived.used_cap[i];
            *used = used.sub_exact(slot.demand);
        }
        self.coord.mark(i);
        slot
    }

    /// One owner transition of station `i`, applied at its own timestamp
    /// `at`: the state change, the idle-length EWMA, the owner's
    /// `local_busy` deposit, the owner half of the station's cached view
    /// and the trace event. Returns the instant of the station's next
    /// transition, drawn from its own dwell stream. The **only**
    /// definition of a transition — the event handler and the lazy fold
    /// both call it, so a station's history is the same draws and the
    /// same deposits whichever path carried it. It stays inside the
    /// station's [`OwnerLane`] and coordinator-cache entries: what a
    /// transition means for residents is the handler's business
    /// ([`on_owner_flip`](Self::on_owner_flip)), because only a queued
    /// station can have any.
    fn apply_owner_flip(&mut self, at: SimTime, i: usize) -> SimTime {
        let station = NodeId::new(i as u32);
        let lane = &mut self.lanes[i];
        let new_state = lane.process.state();
        let dwell = lane.process.dwell_and_flip(at, &mut lane.rng);
        let ended = std::mem::replace(&mut lane.since, at);
        lane.state = new_state;
        let kind = match new_state {
            OwnerState::Active => {
                let len = at.since(ended).as_secs_f64();
                lane.ewma_idle_secs = ewma_idle_update(lane.ewma_idle_secs, len);
                TraceKind::OwnerActive { station }
            }
            OwnerState::Idle => {
                self.local_busy
                    .deposit_interval(ended, at, at.since(ended).as_millis() as f64);
                TraceKind::OwnerIdle { station }
            }
        };
        if !self.coord.is_dirty(i) {
            self.refresh_owner(i);
        }
        self.emit(at, kind);
        at + dwell
    }

    /// Applies station `i`'s pending lazy transitions strictly before
    /// `before`, in order, each at its own instant, and files the next.
    /// A no-op for a station that owns a queue entry or has nothing due.
    pub(super) fn fold_station(&mut self, i: usize, before: SimTime) {
        let mut at = self.lazy.at(i);
        if at >= before {
            return;
        }
        while at < before {
            at = self.apply_owner_flip(at, i);
            self.folded_flips += 1;
        }
        self.lazy.set(i, at);
    }

    /// Brings every station without a queue entry up to (excluding)
    /// `before`, visiting the ones the calendar holds due in ascending id.
    /// Called wherever something is about to look at an idle station
    /// between polls — the shard barrier's capacity snapshot and
    /// `finalize`; the poll itself folds in `on_poll`, where it can also
    /// hand out queue entries.
    pub(super) fn fold_owner_flips(&mut self, before: SimTime) {
        let mut due = self.lazy.take_due(before, None);
        due.retain(|i| {
            self.fold_station(i as usize, before);
            false
        });
        self.lazy.restore_due(due);
    }

    /// Gives station `i` its `OwnerFlip` queue entry back. Must run
    /// **before** the caller schedules anything else for the station
    /// (`PlacementDone`, `ReplicaPlaced`): the transition was due first,
    /// and an entry taken later would let a same-millisecond completion
    /// overtake it. The station must be up to date — every caller runs
    /// inside a poll, after its fold; a stale one would schedule into the
    /// past and panic. Entries are never cancelled: a flip that fires on a
    /// resident-free station simply does not re-arm (see
    /// [`on_owner_flip`](Self::on_owner_flip)).
    pub(super) fn take_flip_entry(&mut self, i: usize, sched: &mut Scheduler<Event>) {
        let at = self.lazy.take(i);
        if at != NO_LAZY_FLIP {
            sched.at(at, Event::OwnerFlip { station: i as u32 });
        }
    }

    pub(super) fn on_owner_flip(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        let i = station as usize;
        let ended = self.lanes[i].since;
        let next = self.apply_owner_flip(now, i);
        let new_state = self.lanes[i].state;
        // The foreign job ran right through this owner visit (it was
        // shorter than the detection interval): that span belongs to the
        // owner in the utilization ledger.
        if new_state == OwnerState::Idle
            && self.stations[i].residents.iter().any(|slot| self.slot_executing(slot))
        {
            self.stations[i].run_overlaps.push((ended, now));
        }
        if self.fold_flips && self.stations[i].residents.is_empty() {
            // Nobody is looking at this station any more: it gives its
            // queue entry up by not re-arming, and the next poll folds it.
            self.lazy.set(i, next);
        } else {
            sched.at(next, Event::OwnerFlip { station });
        }
        // Schedule a local-scheduler check on the 30-second grid if any
        // resident might need suspending or resuming.
        let needs_check = self.stations[i].residents.iter().any(|slot| match new_state {
            OwnerState::Active => matches!(
                slot.phase,
                Phase::Running { .. } | Phase::Arriving | Phase::GangMember | Phase::Replica(_)
            ),
            OwnerState::Idle => {
                matches!(slot.phase, Phase::Suspended { .. } | Phase::GangMember)
            }
        });
        if needs_check && !self.stations[i].detection_pending {
            self.stations[i].detection_pending = true;
            let next = now.align_down(OWNER_CHECK_INTERVAL) + OWNER_CHECK_INTERVAL;
            sched.at(next, Event::DetectOwner { station });
        }
    }

    pub(super) fn on_detect_owner(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        let i = station as usize;
        self.stations[i].detection_pending = false;
        // Conservative: any reconciliation below may change this station's
        // occupancy, and marking an unchanged station costs nothing.
        self.coord.mark(i);
        let owner_state = self.lanes[i].state;
        enum SlotInfo {
            Running(EventToken, JobId),
            Suspended(EventToken, JobId),
            Gang(JobId),
            Replica(JobId),
        }
        // Snapshot every resident needing reconciliation: the owner's
        // return (or departure) affects all of them, not just the first.
        let infos: Vec<SlotInfo> = self.stations[i]
            .residents
            .iter()
            .filter_map(|slot| match &slot.phase {
                Phase::Running { finish } => Some(SlotInfo::Running(*finish, slot.job)),
                Phase::Suspended { grace } => Some(SlotInfo::Suspended(*grace, slot.job)),
                Phase::GangMember => Some(SlotInfo::Gang(slot.job)),
                Phase::Replica(_) => Some(SlotInfo::Replica(slot.job)),
                _ => None,
            })
            .collect();
        for info in infos {
            match (owner_state, info) {
                // Gang members reconcile collectively.
                (_, SlotInfo::Gang(job)) => {
                    let Some(gang) = self.gangs[job.0 as usize].as_deref() else { continue };
                    if gang.departing {
                        continue;
                    }
                    match owner_state {
                        OwnerState::Active if gang.running => {
                            self.gang_suspend(now, job, station, sched);
                        }
                        OwnerState::Idle if !gang.running => {
                            // Maybe everyone is idle again (or the last image
                            // just arrived): try to (re)start.
                            self.gang_try_start(now, job, sched);
                        }
                        _ => {}
                    }
                }
                (OwnerState::Active, SlotInfo::Running(finish, job)) => {
                    sched.cancel(finish);
                    self.close_run_segment(now, job, &[station], SegmentEnd::Interrupted);
                    self.charge_interference(i, now);
                    self.totals.preemptions_owner += 1;
                    self.suspend_with_grace(now, station, job, sched);
                }
                (OwnerState::Idle, SlotInfo::Suspended(grace, job)) => {
                    sched.cancel(grace);
                    self.start_running(now, i, job, sched);
                    self.totals.resumes_in_place += 1;
                    self.emit(
                        now,
                        TraceKind::JobResumedInPlace { job, on: NodeId::new(station) },
                    );
                }
                (OwnerState::Active, SlotInfo::Replica(job)) => {
                    // Replicas are pure speculation: no grace period, no
                    // checkpoint — the owner's return kills them outright.
                    self.charge_interference(i, now);
                    self.cancel_replica(now, i, job, Some(sched));
                }
                _ => {} // owner flickered; nothing to reconcile
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::finish_run;
    use crate::config::ClusterConfig;
    use crate::job::{JobSpec, UserId};
    use crate::telemetry::TraceSink;
    use crate::trace::TraceEvent;
    use condor_model::owner::OwnerConfig;
    use condor_sim::engine::Engine;

    /// Looks at nothing; attached, it keeps every station in the queue.
    #[derive(Debug)]
    struct NullSink;

    impl TraceSink for NullSink {
        fn record(&mut self, _: &TraceEvent) {}
    }

    /// A station is lazy at a poll, takes its queue entry there for a
    /// placement, hosts a short job, goes lazy again before the next poll
    /// and then has a lazy transition applied by a barrier snapshot inside
    /// that same slot — each move takes the station out of the calendar
    /// or files it again.
    /// Every transition is still applied exactly once: the run's
    /// `events_dispatched` and `local_busy` bits equal those of the run
    /// that keeps every station in the queue, barrier and all.
    #[test]
    fn a_station_placed_and_lazy_again_within_one_slot_folds_each_transition_once() {
        const STATIONS: usize = 6;
        let config = ClusterConfig {
            stations: STATIONS,
            owner: OwnerConfig {
                mean_active_period: SimDuration::from_secs(20),
                ..OwnerConfig::default()
            },
            record_trace: false,
            ..ClusterConfig::default()
        };
        let poll = config.costs.coordinator_poll_interval.as_millis();
        let jobs: Vec<JobSpec> = (0..60)
            .map(|j| {
                let arrival = SimTime::ZERO + SimDuration::from_minutes(3 * j + 1);
                let work = SimDuration::from_secs(5);
                JobSpec::new(JobId(j), UserId(0), NodeId::new(0), arrival, work)
            })
            .collect();
        let horizon = SimTime::ZERO + SimDuration::from_hours(4);
        let primed = |watched: bool| {
            let mut cluster = Cluster::try_new(config.clone(), jobs.clone()).expect("valid config");
            if watched {
                cluster.attach_sink(Box::new(NullSink));
            }
            let mut engine = Engine::new(cluster);
            Cluster::prime(&mut engine);
            engine
        };

        // Step the folded run until some station has been placed on and
        // gone lazy again inside one slot, its next transition still in it.
        let mut folded = primed(false);
        let mut took_entry_at: Vec<Option<u64>> = vec![None; STATIONS];
        let (station, barrier) = 'search: loop {
            let was_lazy: Vec<bool> =
                (0..STATIONS).map(|i| folded.model().lazy.at(i) != NO_LAZY_FLIP).collect();
            let placements = folded.model().totals.placements;
            let t = folded.step().expect("events until the horizon");
            assert!(t < horizon, "no station was placed on and lazy again inside one slot");
            let (model, slot) = (folded.model(), t.as_millis() / poll);
            for (i, was_lazy) in was_lazy.into_iter().enumerate() {
                let next = model.lazy.at(i);
                if was_lazy && next == NO_LAZY_FLIP && model.totals.placements > placements {
                    took_entry_at[i] = Some(slot);
                } else if !was_lazy
                    && next != NO_LAZY_FLIP
                    && took_entry_at[i].take() == Some(slot)
                    && next.as_millis() + 1 < (slot + 1) * poll
                {
                    break 'search (i, next + SimDuration::MILLISECOND);
                }
            }
        };
        folded.run_until(barrier);
        folded.model_mut().capacity_snapshot(barrier);
        let after = folded.model().lazy.at(station);
        assert!(after != NO_LAZY_FLIP && after >= barrier, "the barrier folded the station");
        folded.run_until(horizon);

        let mut queued = primed(true);
        queued.run_until(barrier);
        queued.model_mut().capacity_snapshot(barrier);
        queued.run_until(horizon);

        let books = |engine: Engine<Cluster>| {
            let out = finish_run(engine, horizon);
            let local = out.local_busy.bucket_totals(4).into_iter().map(f64::to_bits);
            (out.events_dispatched, local.collect::<Vec<u64>>(), out.totals)
        };
        let (folded, queued) = (books(folded), books(queued));
        assert!(folded.2.placements > 0);
        assert_eq!(folded, queued);
    }

    /// The wheel wrapping round: with 1-second slots a turn is 512 s, and
    /// transitions land up to six hours — dozens of turns — ahead, among
    /// refilings (a station set again before any fold reached it, or
    /// taken by a queue entry, as a placement does, and set again later),
    /// on slot boundaries and off them, with folds that jump several
    /// turns at once. Every fold hands out exactly the stations a scan of
    /// the instants holds due: each transition at the first fold past it
    /// (or on its `exact` instant), never earlier, and once; and between
    /// folds every lazy station is filed where its instant says.
    #[test]
    fn the_wheel_hands_out_transitions_turns_ahead_at_their_instant_exactly_once() {
        const STATIONS: usize = 64;
        let slot = SimDuration::SECOND;
        let mut lazy = LazyFlips::new(STATIONS, slot);
        let mut rng = SimRng::seed_from(1987);
        // An instant up to six hours after `from`, on a slot boundary
        // every other time.
        let ahead = |rng: &mut SimRng, from: SimTime| {
            let t = from + SimDuration::from_millis(rng.uniform_range_u64(0, 6 * 3_600_000));
            if rng.chance(0.5) { t.align_down(slot) + slot } else { t }
        };
        for i in 0..STATIONS {
            lazy.set(i, ahead(&mut rng, SimTime::ZERO));
        }
        let (mut before, mut handed, mut turns_ahead) = (SimTime::ZERO, 0, 0);
        let mut taken: Vec<usize> = Vec::new();
        for _ in 0..4_000 {
            let step = match rng.index(3) {
                0 => rng.uniform_range_u64(1, 3_000),
                1 => 1_000 * rng.uniform_range_u64(1, 30),
                _ => rng.uniform_range_u64(500_000, 3_000_000),
            };
            before += SimDuration::from_millis(step);
            let exact = rng.chance(0.5).then(|| before.align_down(slot) + slot);
            let want: Vec<usize> = (0..STATIONS)
                .filter(|&i| lazy.at(i) < before || Some(lazy.at(i)) == exact)
                .collect();
            let mut due = lazy.take_due(before, exact);
            let mut got = Vec::new();
            due.retain(|i| {
                got.push(i as usize);
                false
            });
            lazy.restore_due(due);
            assert_eq!(got, want, "fold up to {before:?}, exact {exact:?}");
            handed += got.len();
            // A fold files each station's next transition; one due on the
            // exact instant takes a queue entry instead.
            for i in got {
                if Some(lazy.at(i)) == exact {
                    lazy.take(i);
                    taken.push(i);
                } else {
                    let next = ahead(&mut rng, before);
                    turns_ahead += usize::from(next.since(before) > slot * 512);
                    lazy.set(i, next);
                }
            }
            // Refilings: a lazy station set again, a taken one set again;
            // and a placement: a lazy station takes its queue entry.
            let i = rng.index(STATIONS);
            if lazy.at(i) != NO_LAZY_FLIP {
                lazy.set(i, ahead(&mut rng, before));
            }
            let i = rng.index(STATIONS);
            if lazy.at(i) != NO_LAZY_FLIP && rng.chance(0.2) {
                lazy.take(i);
                taken.push(i);
            }
            if !taken.is_empty() && rng.chance(0.3) {
                let i = taken.swap_remove(rng.index(taken.len()));
                lazy.set(i, ahead(&mut rng, before));
            }
            assert_eq!(lazy.first_unfiled(), None);
        }
        assert!(handed > 10_000 && turns_ahead > 5_000, "{handed} handed out, {turns_ahead} turns ahead");
    }

    /// The owner-idle EWMA that feeds history-aware placement: the named
    /// weights form a convex combination, the first observation seeds the
    /// estimate directly, and later samples blend at exactly
    /// `IDLE_EWMA_HISTORY_WEIGHT`/`IDLE_EWMA_SAMPLE_WEIGHT`.
    #[test]
    fn idle_ewma_weights_are_convex_and_seed_on_first_sample() {
        assert_eq!(IDLE_EWMA_HISTORY_WEIGHT + IDLE_EWMA_SAMPLE_WEIGHT, 1.0);
        // First completed idle interval seeds the estimate.
        let seeded = ewma_idle_update(0.0, 600.0);
        assert_eq!(seeded, 600.0);
        // Subsequent intervals blend with the documented weights.
        let blended = ewma_idle_update(seeded, 60.0);
        assert_eq!(
            blended,
            IDLE_EWMA_HISTORY_WEIGHT * 600.0 + IDLE_EWMA_SAMPLE_WEIGHT * 60.0
        );
        // The estimate stays inside the observed range (convexity).
        assert!(blended > 60.0 && blended < 600.0);
    }
}
