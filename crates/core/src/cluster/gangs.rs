//! Gangs — the paper's §5(2) parallel programs: a width-k job occupies k
//! stations at once, runs only while every member's owner is away, and
//! suspends, checkpoints and restarts as one coordinated unit. Members
//! sit in ordinary station slots (`Phase::GangMember`); the collective
//! state and timers live in [`GangState`].

use condor_model::owner::OwnerState;
use condor_net::NodeId;
use condor_sim::engine::Scheduler;
use condor_sim::event::EventToken;
use condor_sim::time::{SimDuration, SimTime};

use super::remote_unix::SegmentEnd;
use super::station::Phase;
use super::{Cluster, Event};
use crate::config::EvictionStrategy;
use crate::job::{JobId, JobState, PreemptReason};
use crate::trace::TraceKind;

/// Collective state of a width-k gang occupying k stations.
#[derive(Debug)]
pub(super) struct GangState {
    /// Member stations, lead first.
    pub(super) members: Vec<u32>,
    /// Members whose inbound image has arrived.
    staged: u32,
    /// Members whose outbound checkpoint has completed.
    departed: u32,
    /// Pending completion event while running.
    finish: Option<EventToken>,
    /// Pending eviction timer while suspended.
    grace: Option<EventToken>,
    /// All members executing.
    pub(super) running: bool,
    /// Checkpoint-out in progress.
    pub(super) departing: bool,
}

impl Cluster {
    fn gang(&self, job: JobId) -> &GangState {
        self.gangs[job.0 as usize].as_deref().expect("gang exists")
    }

    fn gang_mut(&mut self, job: JobId) -> &mut GangState {
        self.gangs[job.0 as usize].as_deref_mut().expect("gang exists")
    }

    /// The running gang (if any) with a member on `station`.
    pub(super) fn running_gang_on(&self, station: usize) -> Option<JobId> {
        self.stations[station].residents.iter().find_map(|slot| {
            (matches!(slot.phase, Phase::GangMember) && self.slot_executing(slot))
                .then_some(slot.job)
        })
    }

    /// Starts the placement of a width-k gang onto `machines`.
    pub(super) fn gang_place(
        &mut self,
        now: SimTime,
        home: NodeId,
        job: JobId,
        machines: Vec<u32>,
        sched: &mut Scheduler<Event>,
    ) {
        self.jobs[job.0 as usize].state = JobState::Placing { target: NodeId::new(machines[0]) };
        let seq = self.next_transfer_seq(job);
        // Every member's owner transition goes back in the queue before
        // any member's `PlacementDone` is scheduled: the gang starts on
        // the last arrival by reading *all* members' owner states.
        for &m in &machines {
            self.take_flip_entry(m as usize, sched);
        }
        for &m in &machines {
            self.occupy(m as usize, job, Phase::GangMember);
            let done = self.ship_image(now, job, home, NodeId::new(m));
            sched.at(done, Event::PlacementDone { job, target: m, seq });
            self.emit(now, TraceKind::PlacementStarted { job, target: NodeId::new(m) });
        }
        self.gangs[job.0 as usize] = Some(Box::new(GangState {
            members: machines,
            staged: 0,
            departed: 0,
            finish: None,
            grace: None,
            running: false,
            departing: false,
        }));
        self.totals.placements += 1;
        self.totals.gang_placements += 1;
    }

    /// One member's inbound image arrived.
    pub(super) fn gang_member_staged(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        self.gang_mut(job).staged += 1;
        self.jobs[job.0 as usize].placements += 1;
        self.gang_try_start(now, job, sched);
    }

    /// All images staged: start executing if every member's owner is idle,
    /// otherwise enter the suspended/grace state.
    pub(super) fn gang_try_start(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let gang = self.gang(job);
        if gang.running || gang.departing || gang.staged < gang.members.len() as u32 {
            return;
        }
        let all_idle = gang
            .members
            .iter()
            .all(|&m| self.lanes[m as usize].state == OwnerState::Idle);
        let lead = gang.members[0];
        if all_idle {
            if let Some(t) = self.gang_mut(job).grace.take() {
                sched.cancel(t);
                self.totals.resumes_in_place += 1;
                self.emit(now, TraceKind::JobResumedInPlace { job, on: NodeId::new(lead) });
            }
            let remaining = self.jobs[job.0 as usize].remaining();
            debug_assert!(!remaining.is_zero());
            let finish = sched.at(now + remaining, Event::Finish { job, on: lead });
            let gang = self.gang_mut(job);
            gang.running = true;
            gang.finish = Some(finish);
            for m in gang.members.clone() {
                self.stations[m as usize].run_overlaps.clear();
                // A running gang member reports `hosting_for`.
                self.coord.mark(m as usize);
            }
            let j = &mut self.jobs[job.0 as usize];
            j.state = JobState::Running { on: NodeId::new(lead) };
            j.running_since = now;
            j.epoch += 1;
            self.emit(now, TraceKind::JobStarted { job, on: NodeId::new(lead) });
        } else if self.gang(job).grace.is_none() {
            // Staged onto at least one busy machine: wait out the grace
            // period for the owners to leave.
            self.gang_suspend_with_grace(now, job, lead, sched);
        }
    }

    /// Suspends the whole gang behind one grace timer, announcing the
    /// suspension on `announce_on` (the member whose owner forced it).
    /// Gangs always use the grace strategy — uncoordinated kills would
    /// forfeit the §2.3 completion guarantee for the whole program — so
    /// under immediate-kill they fall back to the paper's grace value.
    fn gang_suspend_with_grace(
        &mut self,
        now: SimTime,
        job: JobId,
        announce_on: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let grace = match self.config.eviction {
            EvictionStrategy::GraceThenCheckpoint { grace } => grace,
            EvictionStrategy::ImmediateKill { .. } => SimDuration::from_minutes(5),
        };
        let lead = self.gang(job).members[0];
        let token = sched.at(now + grace, Event::GraceOver { station: lead, job });
        self.gang_mut(job).grace = Some(token);
        self.jobs[job.0 as usize].state = JobState::Suspended { on: NodeId::new(lead) };
        self.emit(now, TraceKind::JobSuspended { job, on: NodeId::new(announce_on) });
    }

    /// Stops a running gang's accrual (owner detected on a member or a
    /// priority preemption) and deposits each member's utilization.
    pub(super) fn gang_stop_accrual(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let gang = self.gang_mut(job);
        debug_assert!(gang.running);
        gang.running = false;
        if let Some(finish) = gang.finish.take() {
            sched.cancel(finish);
        }
        let members = gang.members.clone();
        self.close_run_segment(now, job, &members, SegmentEnd::Interrupted);
        for &m in &members {
            // The gang stopped running: members no longer report
            // `hosting_for`.
            self.coord.mark(m as usize);
        }
    }

    /// Owner detected on a member while the gang runs: the whole program
    /// blocks (its processes communicate), so everyone suspends together.
    pub(super) fn gang_suspend(&mut self, now: SimTime, job: JobId, station: u32, sched: &mut Scheduler<Event>) {
        self.gang_stop_accrual(now, job, sched);
        self.charge_interference(station as usize, now);
        self.totals.preemptions_owner += 1;
        self.gang_suspend_with_grace(now, job, station, sched);
    }

    /// The gang's grace timer expired. The token is cancelled on resume,
    /// so reaching here means some member's owner is still around:
    /// coordinated checkpoint of the whole program.
    pub(super) fn gang_grace_over(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        if self.gangs[job.0 as usize]
            .as_deref()
            .is_some_and(|g| !g.departing && !g.running)
        {
            self.gang_checkpoint_out(now, job, PreemptReason::OwnerReturned, sched);
        }
    }

    /// Grace expired or priority preemption: coordinated checkpoint of all
    /// members back to the home station.
    pub(super) fn gang_checkpoint_out(
        &mut self,
        now: SimTime,
        job: JobId,
        reason: PreemptReason,
        sched: &mut Scheduler<Event>,
    ) {
        let gang = self.gang_mut(job);
        debug_assert!(!gang.departing);
        gang.departing = true;
        gang.departed = 0;
        gang.grace = None;
        let members = gang.members.clone();
        let seq = self.next_transfer_seq(job);
        let j = &mut self.jobs[job.0 as usize];
        j.state = JobState::CheckpointingOut { from: NodeId::new(members[0]) };
        let (bytes, home) = (j.spec.image_bytes, j.spec.home);
        for &m in &members {
            let from = NodeId::new(m);
            let done = self.ship_image(now, job, from, home);
            sched.at(done, Event::CheckpointDone { job, from: m, seq });
            self.emit(now, TraceKind::CheckpointStarted { job, from, reason, bytes });
        }
    }

    /// One member's outbound checkpoint landed; the last one to land makes
    /// the coordinated cut durable and requeues the job.
    pub(super) fn gang_member_departed(&mut self, now: SimTime, job: JobId, from: u32) {
        self.vacate(from as usize, job);
        let gang = self.gang_mut(job);
        debug_assert!(gang.departing);
        gang.departed += 1;
        let all_departed = gang.departed == gang.members.len() as u32;
        let bytes = self.jobs[job.0 as usize].spec.image_bytes;
        self.emit(now, TraceKind::CheckpointCompleted { job, from: NodeId::new(from), bytes });
        if all_departed {
            self.gangs[job.0 as usize] = None;
            self.land_checkpoint(job);
        }
    }

    /// Gang completion: the single `Finish` event covers all members.
    pub(super) fn gang_finish(&mut self, now: SimTime, job: JobId, on: u32) {
        let Some(gang) = self.gangs[job.0 as usize].take_if(|g| g.running) else { return };
        self.close_run_segment(now, job, &gang.members, SegmentEnd::Finished);
        for &m in &gang.members {
            self.vacate(m as usize, job);
        }
        self.finish_bookkeeping(now, job, on);
    }

    /// A member's host crashed: one member down kills the whole parallel
    /// program. Frees every surviving member slot, rolls the job back to
    /// its last coordinated checkpoint and requeues it at home.
    pub(super) fn gang_crash_rollback(&mut self, now: SimTime, job: JobId, sched: &mut Scheduler<Event>) {
        let gang = self.gangs[job.0 as usize].take().expect("gang exists");
        for t in [gang.finish, gang.grace].into_iter().flatten() {
            sched.cancel(t);
        }
        if gang.running {
            // Crash mid-run: charge the gross consumption before reverting.
            // The crashed member's slot is already gone and deposits
            // nothing.
            let hosts: Vec<u32> = gang
                .members
                .iter()
                .copied()
                .filter(|&m| self.stations[m as usize].resident(job).is_some())
                .collect();
            self.close_run_segment(now, job, &hosts, SegmentEnd::Interrupted);
        }
        for &m in &gang.members {
            self.vacate(m as usize, job);
        }
        self.jobs[job.0 as usize].revert_to_checkpoint();
        self.totals.crash_rollbacks += 1;
        self.requeue_at_home(job);
    }
}
