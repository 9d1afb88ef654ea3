//! Speculative replication under cancel-on-first-finish: the
//! [`Redundant`](crate::config::PolicyKind::Redundant) policy.
//!
//! Condor's core bet is that remote cycles are cheap; this module spends a
//! few of them on purpose. Following the speculative-replication model of
//! Xu et al. (arXiv:1707.01655), it places up to [`REPLICAS`] extra copies
//! of a just-placed whole-machine job on stations that would otherwise sit
//! idle: the first copy (primary or replica) to complete wins, and every
//! other copy is cancelled on the spot. Primary placements, preemptions
//! and the fairness index are the unchanged Up-Down's. Replicas are
//! strictly parasitic — they spawn only when every queue in the fleet is
//! empty, are reclaimed at the top of each poll whenever waiting demand
//! outstrips the free machines (arriving copies first, then the youngest
//! running), yield during coordinator outages to a station's own runnable
//! local work, and evaporate the instant the station's owner returns (no
//! grace period, no checkpoint: their work is the redundancy budget).
//! Hosts are chosen by expected *remaining* idle time — the station's EWMA
//! of past idle intervals minus its current streak — so speculation lands
//! on the machines statistically furthest from an owner's return.
//!
//! Accounting: every spawn emits
//! [`TraceKind::ReplicaSpawned`], every loser emits
//! [`TraceKind::ReplicaCancelled`] carrying the burst progress it had
//! accrued, and
//! [`Totals::wasted_replica_work`](crate::cluster::Totals::wasted_replica_work)
//! sums those losses. The [`AuditSink`](crate::audit::AuditSink) enforces
//! conservation: every spawn matched by exactly one cancellation or one
//! completion, wasted work equal to the cancelled copies' progress.
//!
//! Every entry point returns at once unless the policy armed
//! [`RedundancyRuntime`], so any other policy's trace is untouched.

use condor_model::owner::OwnerState;
use condor_net::NodeId;
use condor_sim::engine::Scheduler;
use condor_sim::event::EventToken;
use condor_sim::time::{SimDuration, SimTime};

use super::remote_unix::SegmentEnd;
use super::station::Phase;
use super::{Cluster, Event};
use crate::job::{JobId, JobState};
use crate::trace::TraceKind;

/// Live replicas kept per job beyond the primary, after the speculative
/// replication of Xu et al. (arXiv:1707.01655); `condor exp redundancy`
/// measures this count in the high-variance, under-loaded regime they
/// say redundancy pays in.
const REPLICAS: usize = 2;

/// Runtime state of the speculative-replication policy.
#[derive(Debug)]
pub(super) struct RedundancyRuntime {
    /// Stations currently holding a replica of each job (index = job id).
    /// Kept tiny (≤ [`REPLICAS`] entries) so cancel-on-first-finish is
    /// O(1).
    pub(super) by_job: Vec<Vec<u32>>,
}

/// Lifecycle of one speculative replica slot.
#[derive(Debug)]
pub(super) enum ReplicaState {
    /// Image inbound; `arrive` is the pending [`Event::ReplicaPlaced`].
    Arriving { arrive: EventToken },
    /// Executing from the job's last checkpoint; `finish` is the pending
    /// [`Event::ReplicaFinish`].
    Running { started: SimTime, finish: EventToken },
}

impl Cluster {
    /// Frees replica-held stations when queued demand outstrips the
    /// fleet's genuinely free machines, so speculation never delays a real
    /// job past the poll that notices it. Runs at the top of every poll;
    /// cancels at most this poll's placement budget, cheapest copies
    /// first — arriving replicas cost nothing, then the youngest running
    /// ones. A replica whose primary is *not* running is spared: it is
    /// the job's only progress (the insurance actively paying out), and
    /// cancelling it would trade finished work for a fresh placement.
    pub(super) fn reclaim_replicas_for_demand(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let Some(r) = self.redundancy.as_ref() else { return };
        if r.by_job.iter().all(|v| v.is_empty()) {
            return;
        }
        let waiting: usize = self.stations.iter().map(|st| st.queue.len()).sum();
        if waiting == 0 {
            return;
        }
        let free = (0..self.stations.len()).filter(|&i| self.idle_and_empty(i)).count();
        let deficit = waiting
            .min(self.config.placements_per_poll)
            .saturating_sub(free);
        if deficit == 0 {
            return;
        }
        // `None` progress marks an arriving copy (free to cancel); running
        // copies carry their start time so the sort keeps the oldest —
        // the likeliest winners — alive. Ties break on (job, station) for
        // determinism.
        let mut cands: Vec<(JobId, usize, Option<SimTime>)> = Vec::new();
        for (jid, stations) in r.by_job.iter().enumerate() {
            if !matches!(self.jobs[jid].state, JobState::Running { .. }) {
                continue;
            }
            let job = JobId(jid as u64);
            for &s in stations {
                let i = s as usize;
                let slot = self.stations[i].resident(job).expect("by_job lists live replicas");
                match slot.phase {
                    Phase::Replica(ReplicaState::Arriving { .. }) => cands.push((job, i, None)),
                    Phase::Replica(ReplicaState::Running { started, .. }) => {
                        cands.push((job, i, Some(started)));
                    }
                    _ => unreachable!("by_job entries are replica slots"),
                }
            }
        }
        cands.sort_by(|a, b| match (a.2, b.2) {
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (x, y) => y.cmp(&x).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))),
        });
        for &(job, i, _) in cands.iter().take(deficit) {
            self.cancel_replica(now, i, job, Some(sched));
        }
    }

    /// Tops the job up to [`REPLICAS`] live replicas on otherwise-idle stations,
    /// right after a successful primary placement. Replicas are strictly
    /// parasitic: they take only whole machines that are idle, unfenced,
    /// unpartitioned, and empty, and they run the same binary as the
    /// primary (candidates are restricted to the primary target's
    /// architecture so whichever copy starts first binds the same arch).
    pub(super) fn maybe_spawn_replicas(
        &mut self,
        now: SimTime,
        job: JobId,
        primary: NodeId,
        granted: &mut Vec<NodeId>,
        sched: &mut Scheduler<Event>,
    ) {
        let Some(r) = self.redundancy.as_ref() else { return };
        let live = r.by_job[job.0 as usize].len();
        if live >= REPLICAS {
            return;
        }
        let spec = &self.jobs[job.0 as usize].spec;
        let (image, home, demand) = (spec.image_bytes, spec.home, spec.resources);
        // Gangs already coordinate k machines, and fractional jobs share
        // hosts; speculation covers only solo whole-machine jobs.
        if spec.width > 1 || !demand.is_whole() {
            return;
        }
        // Strictly parasitic: speculation spends only *surplus* idle
        // machines. A job still queued anywhere has first claim on idle
        // stations at upcoming polls (the §4 throttle serves one per
        // poll), so replication stands down whenever real demand waits.
        if self.stations.iter().any(|st| !st.queue.is_empty()) {
            return;
        }
        let arch = self.station_arch(primary.as_usize());
        // Rank eligible stations by expected *remaining* idle time — the
        // EWMA of completed idle intervals minus the current streak, the
        // same history signal placement uses. A replica lives only until
        // its host's owner returns, so the least-overdue stations make
        // the sturdiest hosts. Ties break on station id for determinism.
        let mut eligible: Vec<(f64, usize)> = Vec::new();
        for (i, st) in self.stations.iter().enumerate() {
            let cand = NodeId::new(i as u32);
            if cand == home
                || granted.contains(&cand)
                || !self.idle_and_empty(i)
                || self.chaos.as_ref().is_some_and(|c| c.partition_depth[i] > 0)
                || self.station_arch(i) != arch
                || image > st.disk_free()
                || !demand.fits(st.capacity)
            {
                continue;
            }
            eligible.push((self.lanes[i].ewma_idle_secs - self.idle_streak_secs(i, now), i));
        }
        // Differences of finite non-negative seconds: finite and never
        // -0.0, so `total_cmp` is the numeric order.
        eligible.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in eligible.iter().take(REPLICAS - live) {
            let cand = NodeId::new(i as u32);
            // Ahead of `ReplicaPlaced`, as for any placement.
            self.take_flip_entry(i, sched);
            let done = self.ship_image(now, job, home, cand);
            let arrive = sched.at(done, Event::ReplicaPlaced { job, target: i as u32 });
            self.occupy(i, job, Phase::Replica(ReplicaState::Arriving { arrive }));
            self.replicas_of(job).push(i as u32);
            self.totals.replicas_spawned += 1;
            self.emit(now, TraceKind::ReplicaSpawned { job, on: cand });
            // Spoken for until the next flush, like any other grant.
            granted.push(cand);
        }
    }

    /// The stations holding live replicas of `job`.
    fn replicas_of(&mut self, job: JobId) -> &mut Vec<u32> {
        &mut self.redundancy.as_mut().expect("replica without runtime").by_job[job.0 as usize]
    }

    /// A replica image arrived: start executing from the job's last
    /// checkpoint if the station is still idle, otherwise give up at once
    /// (zero work wasted — it never ran).
    pub(super) fn on_replica_placed(
        &mut self,
        now: SimTime,
        job: JobId,
        target: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let t = target as usize;
        // Every cancellation path removes the slot and cancels the pending
        // arrival token, so a live event implies a live Arriving slot.
        if !self.slot_is(t, job, |p| {
            matches!(p, Phase::Replica(ReplicaState::Arriving { .. }))
        }) {
            return;
        }
        if self.lanes[t].state != OwnerState::Idle {
            self.cancel_replica(now, t, job, Some(sched));
            return;
        }
        // The replica resumes the image it was sent: the last checkpoint.
        let j = &self.jobs[job.0 as usize];
        let wall = self.run_wall(job, j.spec.demand.saturating_sub(j.work_checkpointed));
        let finish = sched.at(now + wall, Event::ReplicaFinish { job, on: target });
        let st = &mut self.stations[t];
        st.resident_mut(job).expect("slot checked above").phase =
            Phase::Replica(ReplicaState::Running { started: now, finish });
        st.run_overlaps.clear();
        self.coord.mark(t);
        // A replica's progress could win, so it binds the job's
        // architecture exactly like a primary start does.
        self.bind_arch(job, t);
    }

    /// A replica delivered the job's remaining demand first: it wins.
    /// Rival replicas are cancelled, the primary copy is torn down
    /// wherever it is, and the job completes on the winning station.
    pub(super) fn on_replica_finish(
        &mut self,
        now: SimTime,
        job: JobId,
        on: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let o = on as usize;
        if !self.slot_is(o, job, |p| {
            matches!(p, Phase::Replica(ReplicaState::Running { .. }))
        }) {
            return;
        }
        let slot = self.vacate(o, job).expect("slot checked above");
        let Phase::Replica(ReplicaState::Running { started, .. }) = slot.phase else {
            unreachable!("phase checked above")
        };
        self.deposit_run_utilization(o, started, self.owner_capped(o, now), 1.0);
        self.replicas_of(job).retain(|&s| s as usize != o);
        // Losers first, then the primary: the job's ledgers close below
        // (the winning copy's own utilization is already deposited).
        self.cancel_replicas_of(now, job, sched);
        self.retire_primary(now, job, sched);
        self.close_run_segment(now, job, &[], SegmentEnd::Finished);
        self.finish_bookkeeping(now, job, on);
    }

    /// Cancels every live replica of `job` (cancel-on-first-finish, owner
    /// return at the primary, crash of the primary's host, horizon).
    pub(super) fn cancel_replicas_of(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let Some(r) = self.redundancy.as_ref() else { return };
        for s in r.by_job[job.0 as usize].clone() {
            self.cancel_replica(now, s as usize, job, Some(sched));
        }
    }

    /// Cancels the replica of `job` living on station `i`: frees the slot
    /// and disk, cancels its pending event (when a live scheduler exists —
    /// at the horizon none does, and pending events are moot), deposits
    /// any run utilization, and accounts the thrown-away work.
    /// `wasted_ms` on the trace event is exactly the reference-machine
    /// work the cancelled copy had accrued, so summing the events
    /// reproduces `Totals::wasted_replica_work`.
    pub(super) fn cancel_replica(
        &mut self,
        now: SimTime,
        i: usize,
        job: JobId,
        sched: Option<&mut Scheduler<Event>>,
    ) {
        let Some(slot) = self.vacate(i, job) else { return };
        let Phase::Replica(state) = slot.phase else {
            unreachable!("cancel_replica on a non-replica slot")
        };
        let (pending, wasted) = match state {
            ReplicaState::Arriving { arrive } => (arrive, SimDuration::ZERO),
            ReplicaState::Running { started, finish } => {
                self.deposit_run_utilization(i, started, self.owner_capped(i, now), 1.0);
                (finish, now.since(started))
            }
        };
        if let Some(s) = sched {
            s.cancel(pending);
        }
        self.replicas_of(job).retain(|&s| s as usize != i);
        self.totals.replicas_cancelled += 1;
        let wasted_ms = wasted.as_millis();
        self.totals.wasted_replica_work += wasted_ms;
        self.emit(
            now,
            TraceKind::ReplicaCancelled { job, on: NodeId::new(i as u32), wasted_ms },
        );
    }

    /// Tears down the primary copy of a job a replica just finished,
    /// whatever the primary was doing: its queue entry, in-flight image,
    /// run segment, or suspended slot disappears; its accrued work stays
    /// on the job's ledgers (the paper's gross remote-CPU accounting).
    fn retire_primary(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let state = self.jobs[job.0 as usize].state;
        let Some(at) = state.remote_station() else {
            // Replicas spawn at placement and die with completion, so a
            // primary off every machine can only be back in its queue.
            debug_assert_eq!(state, JobState::Queued, "replica finished for a settled primary");
            let home = self.jobs[job.0 as usize].spec.home.as_usize();
            self.stations[home].queue.remove(job);
            self.coord.mark(home);
            return;
        };
        let slot = self.vacate(at.as_usize(), job).expect("primary is resident where its state says");
        match slot.phase {
            Phase::Running { finish } => {
                sched.cancel(finish);
                self.close_run_segment(now, job, &[at.index()], SegmentEnd::Interrupted);
                // Kill any periodic checkpoint chain.
                self.jobs[job.0 as usize].epoch += 1;
            }
            Phase::Suspended { grace } => {
                sched.cancel(grace);
            }
            // Orphan the in-flight PlacementDone / CheckpointDone (and any
            // retry).
            Phase::Arriving | Phase::Departing => {
                self.next_transfer_seq(job);
            }
            Phase::GangMember | Phase::Replica(_) => {
                unreachable!("only solo primaries are replicated")
            }
        }
    }
}
