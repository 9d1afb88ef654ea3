//! The Remote-Unix job lifecycle (paper §2.2–2.3): arrival at the home
//! queue, placement, run segments, owner-forced suspension and the grace
//! period, checkpoint-out and requeue, completion, and the periodic
//! while-running checkpoint. Every transition a *solo* resident makes is
//! defined here exactly once; gangs and replicas reuse the same primitives
//! from their own modules.

use condor_model::costs::{transfer_cpu_cost, REMOTE_SYSCALL_COST};
use condor_model::owner::OwnerState;
use condor_net::NodeId;
use condor_sim::engine::Scheduler;
use condor_sim::time::{SimDuration, SimTime};

use super::station::Phase;
use super::{Cluster, Event};
use crate::config::EvictionStrategy;
use crate::job::{JobId, JobState, PreemptReason};
use crate::trace::TraceKind;

/// Wall-clock time needed to deliver a whole-machine wall segment at a
/// granted CPU fraction of `cpu_milli` thousandths. Exact identity for a
/// whole grant, so default traces are bit-identical.
fn inflate_wall(wall: SimDuration, cpu_milli: u32) -> SimDuration {
    if cpu_milli == 1000 {
        return wall;
    }
    SimDuration::from_millis((wall.as_millis() as u128 * 1000 / cpu_milli as u128) as u64)
}

/// Work actually delivered over a wall segment whose whole-machine work
/// would be `work`, at a granted CPU fraction of `cpu_milli` thousandths.
/// Exact identity for a whole grant.
fn scale_work(work: SimDuration, cpu_milli: u32) -> SimDuration {
    if cpu_milli == 1000 {
        return work;
    }
    SimDuration::from_millis((work.as_millis() as u128 * cpu_milli as u128 / 1000) as u64)
}

/// Why a run segment is being closed — which decides how much work it
/// accrues and where its utilization deposit ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum SegmentEnd {
    /// The finish event fired: accrue exactly the remaining demand (the
    /// event was scheduled for it, so no rounding residue), deposit up to
    /// the owner's return.
    Finished,
    /// Cut short — owner detected, replica won, crash of a gang peer, the
    /// horizon: accrue the elapsed wall time at the granted rate, deposit
    /// up to the owner's return.
    Interrupted,
    /// The machine itself was taken at this instant by something other
    /// than its owner (priority preemption, crash of this host): accrue
    /// the elapsed wall time and deposit all of it.
    Seized,
}

impl Cluster {
    /// Work `job` has delivered since its run segment started, at its
    /// *effective* rate for the granted CPU fraction — the speedup curve
    /// prices sub-whole grants; identity for whole-machine grants.
    fn segment_work(&self, job: JobId, now: SimTime) -> SimDuration {
        let j = &self.jobs[job.0 as usize];
        scale_work(
            now.since(j.running_since),
            j.spec.speedup.effective_milli(j.spec.resources.cpu_milli),
        )
    }

    /// Wall-clock length of a run segment delivering `remaining` work. A
    /// fractional grant stretches the wall clock by the job's effective
    /// rate under its speedup curve; a thrashing job never stalls entirely
    /// — it crawls at one milli so the finish event exists.
    pub(super) fn run_wall(&self, job: JobId, remaining: SimDuration) -> SimDuration {
        let spec = &self.jobs[job.0 as usize].spec;
        let eff = spec.speedup.effective_milli(spec.resources.cpu_milli).max(1);
        inflate_wall(remaining, eff)
    }

    /// Closes `job`'s current run segment at `now`: accrues its work,
    /// gross remote CPU and shadow system-call support, and deposits the
    /// segment into the remote-utilization ledger of every station in
    /// `hosts` (one for a solo job, every member for a gang, none when
    /// the copy that ran is accounted elsewhere). Does not touch `state`
    /// or any slot.
    pub(super) fn close_run_segment(
        &mut self,
        now: SimTime,
        job: JobId,
        hosts: &[u32],
        end: SegmentEnd,
    ) {
        let work = match end {
            SegmentEnd::Finished => self.jobs[job.0 as usize].remaining(),
            SegmentEnd::Interrupted | SegmentEnd::Seized => self.segment_work(job, now),
        };
        let j = &mut self.jobs[job.0 as usize];
        j.accrue_run(work, REMOTE_SYSCALL_COST.as_millis() * 1_000);
        let since = j.running_since;
        let frac = j.spec.resources.cpu_milli as f64 / 1000.0;
        for &h in hosts {
            let h = h as usize;
            let util_end = if end == SegmentEnd::Seized { now } else { self.owner_capped(h, now) };
            self.deposit_run_utilization(h, since, util_end, frac);
        }
    }

    /// Deposits the remote-utilization share of a run segment, excising
    /// any owner-flicker overlap intervals accumulated on the station so
    /// each hourly bucket stays within physical capacity. `frac` scales
    /// the deposit to the job's granted CPU share (1.0 for whole-machine
    /// grants, which multiplies exactly). A `util_end` before
    /// `running_since` deposits nothing.
    pub(super) fn deposit_run_utilization(
        &mut self,
        station: usize,
        running_since: SimTime,
        util_end: SimTime,
        frac: f64,
    ) {
        let overlaps = std::mem::take(&mut self.stations[station].run_overlaps);
        let mut cursor = running_since;
        for (o_start, o_end) in overlaps {
            let o_start = o_start.max(cursor).min(util_end);
            let o_end = o_end.max(cursor).min(util_end);
            if o_start > cursor {
                self.remote_busy.deposit_interval(
                    cursor,
                    o_start,
                    o_start.since(cursor).as_millis() as f64 * frac,
                );
            }
            cursor = cursor.max(o_end);
        }
        if util_end > cursor {
            self.remote_busy.deposit_interval(
                cursor,
                util_end,
                util_end.since(cursor).as_millis() as f64 * frac,
            );
        }
    }

    /// Sends one copy of `job`'s image over the network, charging the
    /// home workstation the transfer's CPU cost; returns the instant the
    /// transfer completes.
    pub(super) fn ship_image(&mut self, now: SimTime, job: JobId, from: NodeId, to: NodeId) -> SimTime {
        let j = &mut self.jobs[job.0 as usize];
        let image = j.spec.image_bytes;
        j.charge_transfer(transfer_cpu_cost(image));
        self.bus.book_transfer(now, from, to, image).completes_at
    }

    /// Starts a new image transfer generation for `job`: completions of
    /// any earlier in-flight transfer become stale.
    pub(super) fn next_transfer_seq(&mut self, job: JobId) -> u32 {
        let j = &mut self.jobs[job.0 as usize];
        j.transfer_seq += 1;
        j.transfer_seq
    }

    /// First execution binds the job's progress to the host's
    /// architecture (checkpoints are native images).
    pub(super) fn bind_arch(&mut self, job: JobId, station: usize) {
        let arch = self.station_arch(station);
        let j = &mut self.jobs[job.0 as usize];
        debug_assert!(
            j.bound_arch.is_none_or(|b| b == arch),
            "job bound to {:?} started on {arch:?}",
            j.bound_arch
        );
        j.bound_arch = Some(arch);
    }

    /// Starts (or resumes) execution of a resident at `station`,
    /// scheduling completion. The finish event is exact for the granted
    /// rate, so remaining work is only re-derived when a segment is cut
    /// short.
    pub(super) fn start_running(
        &mut self,
        now: SimTime,
        station: usize,
        job: JobId,
        sched: &mut Scheduler<Event>,
    ) {
        let remaining = self.jobs[job.0 as usize].remaining();
        debug_assert!(!remaining.is_zero(), "starting a finished job");
        let wall = self.run_wall(job, remaining);
        let on = station as u32;
        let finish = sched.at(now + wall, Event::Finish { job, on });
        self.coord.mark(station);
        let st = &mut self.stations[station];
        st.resident_mut(job).expect("started job is resident").phase = Phase::Running { finish };
        st.run_overlaps.clear();
        self.bind_arch(job, station);
        let j = &mut self.jobs[job.0 as usize];
        j.state = JobState::Running { on: NodeId::new(on) };
        j.running_since = now;
        j.epoch += 1;
        let epoch = j.epoch;
        if let EvictionStrategy::ImmediateKill { checkpoint_every } = self.config.eviction {
            sched.at(now + checkpoint_every, Event::PeriodicCkpt { job, on, epoch });
        }
        self.emit(now, TraceKind::JobStarted { job, on: NodeId::new(on) });
    }

    /// The owner is present and resident `job` must not run: under the
    /// paper's strategy it is suspended in place with a grace timer; under
    /// immediate-kill — which has no grace period — it is killed at once.
    pub(super) fn suspend_with_grace(
        &mut self,
        now: SimTime,
        station: u32,
        job: JobId,
        sched: &mut Scheduler<Event>,
    ) {
        match self.config.eviction {
            EvictionStrategy::GraceThenCheckpoint { grace } => {
                let token = sched.at(now + grace, Event::GraceOver { station, job });
                if let Some(slot) = self.stations[station as usize].resident_mut(job) {
                    slot.phase = Phase::Suspended { grace: token };
                }
                let on = NodeId::new(station);
                self.jobs[job.0 as usize].state = JobState::Suspended { on };
                self.emit(now, TraceKind::JobSuspended { job, on });
            }
            EvictionStrategy::ImmediateKill { .. } => self.kill_in_place(now, station as usize, job),
        }
    }

    /// Immediate-kill eviction: the job vanishes from the station at once;
    /// un-checkpointed work is lost.
    fn kill_in_place(&mut self, now: SimTime, station: usize, job: JobId) {
        self.vacate(station, job);
        self.jobs[job.0 as usize].revert_to_checkpoint();
        self.requeue_at_home(job);
        self.totals.kills += 1;
        self.emit(now, TraceKind::JobKilled { job, on: NodeId::new(station as u32) });
    }

    /// Puts `job` back at the head of its home station's queue — the tail
    /// of every eviction, kill and crash rollback.
    pub(super) fn requeue_at_home(&mut self, job: JobId) {
        let j = &mut self.jobs[job.0 as usize];
        j.state = JobState::Queued;
        let home = j.spec.home.as_usize();
        self.stations[home].queue.enqueue_front(job);
        self.coord.mark(home);
    }

    /// The checkpoint image is safely home: the work level is durable,
    /// the migration counts, and the job queues for its next placement.
    pub(super) fn land_checkpoint(&mut self, job: JobId) {
        let j = &mut self.jobs[job.0 as usize];
        j.mark_checkpointed();
        j.checkpoints += 1;
        self.totals.migrations += 1;
        self.requeue_at_home(job);
    }

    /// Starts the checkpoint-out transfer for a job stopped at `station`.
    pub(super) fn begin_checkpoint_out(
        &mut self,
        now: SimTime,
        station: usize,
        job: JobId,
        reason: PreemptReason,
        sched: &mut Scheduler<Event>,
    ) {
        let from = NodeId::new(station as u32);
        let j = &mut self.jobs[job.0 as usize];
        j.state = JobState::CheckpointingOut { from };
        let (image, home) = (j.spec.image_bytes, j.spec.home);
        let seq = self.next_transfer_seq(job);
        self.stations[station]
            .resident_mut(job)
            .expect("checkpointing job is resident")
            .phase = Phase::Departing;
        self.coord.mark(station);
        let done = self.ship_image(now, job, from, home);
        sched.at(done, Event::CheckpointDone { job, from: station as u32, seq });
        self.emit(now, TraceKind::CheckpointStarted { job, from, reason, bytes: image });
    }

    pub(super) fn on_arrival(&mut self, now: SimTime, job: JobId) {
        let j = &self.jobs[job.0 as usize];
        let home = j.spec.home.as_usize();
        let image = j.spec.image_bytes;
        // With a dedicated checkpoint server (paper §4's disk-server idea),
        // standing images do not occupy the submitting machine's disk.
        if !self.config.checkpoint_server {
            if image > self.stations[home].disk_free() {
                self.totals.submit_rejections += 1;
                self.jobs[job.0 as usize].rejected = true;
                self.emit(now, TraceKind::JobRejected { job });
                return;
            }
            self.stations[home].disk_used += image;
        }
        self.coord.mark(home);
        self.queue_delta(now, job, 1.0);
        if self.jobs[job.0 as usize].adopted {
            self.totals.jobs_adopted += 1;
            self.emit(now, TraceKind::JobAdopted { job, on: NodeId::new(home as u32) });
        } else {
            self.emit(now, TraceKind::JobArrived { job });
        }
        // §5(2) pipelines: jobs with incomplete dependencies are held; the
        // completion of the last dependency releases them into the queue.
        let unresolved = self.jobs[job.0 as usize]
            .spec
            .depends_on
            .iter()
            .filter(|d| self.jobs[d.0 as usize].state != JobState::Completed)
            .count() as u32;
        self.pending_deps[job.0 as usize] = unresolved;
        if unresolved > 0 {
            self.jobs[job.0 as usize].state = JobState::Held;
            return;
        }
        self.stations[home].queue.enqueue(job);
    }

    pub(super) fn on_placement_done(
        &mut self,
        now: SimTime,
        job: JobId,
        target: u32,
        seq: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let t = target as usize;
        // Stale completion: the transfer's endpoint crashed and the job has
        // moved on.
        if self.jobs[job.0 as usize].transfer_seq != seq {
            return;
        }
        if self.slot_is(t, job, |p| matches!(p, Phase::GangMember)) {
            self.gang_member_staged(now, job, sched);
            return;
        }
        if !self.slot_is(t, job, |p| matches!(p, Phase::Arriving)) {
            return;
        }
        self.coord.mark(t);
        self.jobs[job.0 as usize].placements += 1;
        if self.lanes[t].state == OwnerState::Idle {
            self.start_running(now, t, job, sched);
        } else {
            // The owner came back while the image was in flight.
            self.suspend_with_grace(now, target, job, sched);
        }
    }

    pub(super) fn on_checkpoint_done(
        &mut self,
        now: SimTime,
        job: JobId,
        from: u32,
        seq: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let f = from as usize;
        if self.jobs[job.0 as usize].transfer_seq != seq {
            return;
        }
        if self.slot_is(f, job, |p| matches!(p, Phase::GangMember)) {
            self.gang_member_departed(now, job, from);
            return;
        }
        if !self.slot_is(f, job, |p| matches!(p, Phase::Departing)) {
            return;
        }
        // Corruption window: the image landed damaged (detected by
        // checksum on receipt). The source still holds it, so nothing is
        // lost — the job stays mid-checkpoint and the transfer is re-sent
        // after a capped exponential backoff. Gang fan-ins are exempt.
        if self.chaos.as_ref().is_some_and(|c| now < c.ckpt_corrupt_until) {
            self.chaos_corrupt_ckpt(now, job, from, seq, sched);
            return;
        }
        if let Some(c) = self.chaos.as_mut() {
            c.retry_attempts[job.0 as usize] = 0;
        }
        self.vacate(f, job);
        self.land_checkpoint(job);
        let bytes = self.jobs[job.0 as usize].spec.image_bytes;
        self.emit(now, TraceKind::CheckpointCompleted { job, from: NodeId::new(from), bytes });
    }

    pub(super) fn on_finish(&mut self, now: SimTime, job: JobId, on: u32, sched: &mut Scheduler<Event>) {
        if self.jobs[job.0 as usize].spec.width > 1 {
            self.gang_finish(now, job, on);
            return;
        }
        if !self.slot_is(on as usize, job, |p| matches!(p, Phase::Running { .. })) {
            return;
        }
        // The primary won the race: every speculative copy loses.
        self.cancel_replicas_of(now, job, sched);
        self.close_run_segment(now, job, &[on], SegmentEnd::Finished);
        self.vacate(on as usize, job);
        self.finish_bookkeeping(now, job, on);
    }

    /// Shared completion tail: home disk, state, queue-length series,
    /// trace, and dependency release.
    pub(super) fn finish_bookkeeping(&mut self, now: SimTime, job: JobId, on: u32) {
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        if !self.config.checkpoint_server {
            let home = self.jobs[job.0 as usize].spec.home.as_usize();
            self.stations[home].disk_used -= image;
        }
        {
            let j = &mut self.jobs[job.0 as usize];
            j.state = JobState::Completed;
            j.completed_at = Some(now);
        }
        self.queue_delta(now, job, -1.0);
        self.emit(now, TraceKind::JobCompleted { job, on: NodeId::new(on) });
        // Release any jobs that were held on this one. A job completes at
        // most once, so its dependent list leaves the map.
        for d in self.dependents.remove(&job).unwrap_or_default() {
            if self.jobs[d.0 as usize].state != JobState::Held {
                continue; // not yet arrived (or rejected): arrival recounts
            }
            let count = &mut self.pending_deps[d.0 as usize];
            *count = count.saturating_sub(1);
            if *count == 0 {
                let home = self.jobs[d.0 as usize].spec.home.as_usize();
                self.jobs[d.0 as usize].state = JobState::Queued;
                self.stations[home].queue.enqueue(d);
                self.coord.mark(home);
            }
        }
    }

    pub(super) fn on_grace_over(
        &mut self,
        now: SimTime,
        station: u32,
        job: JobId,
        sched: &mut Scheduler<Event>,
    ) {
        if self.jobs[job.0 as usize].spec.width > 1 {
            self.gang_grace_over(now, job, sched);
            return;
        }
        // The token is cancelled on resume (and on crash), so reaching here
        // normally means the job is still suspended: vacate.
        if !self.slot_is(station as usize, job, |p| matches!(p, Phase::Suspended { .. })) {
            return;
        }
        self.begin_checkpoint_out(now, station as usize, job, PreemptReason::OwnerReturned, sched);
    }

    pub(super) fn on_periodic_ckpt(
        &mut self,
        now: SimTime,
        job: JobId,
        on: u32,
        epoch: u32,
        sched: &mut Scheduler<Event>,
    ) {
        // The chain is live while `job` is still in run segment `epoch` on
        // station `on`.
        if self.jobs[job.0 as usize].epoch != epoch
            || !self.slot_is(on as usize, job, |p| matches!(p, Phase::Running { .. }))
        {
            return;
        }
        // The checkpoint captures the work level at this instant (accrued
        // at the granted CPU fraction), is shipped home and booked while
        // the job keeps running.
        let work_now = self.jobs[job.0 as usize].work_done + self.segment_work(job, now);
        self.jobs[job.0 as usize].work_checkpointed = work_now;
        let home = self.jobs[job.0 as usize].spec.home;
        self.ship_image(now, job, NodeId::new(on), home);
        self.totals.periodic_checkpoints += 1;
        self.emit(now, TraceKind::PeriodicCheckpoint { job, on: NodeId::new(on) });
        if let EvictionStrategy::ImmediateKill { checkpoint_every } = self.config.eviction {
            sched.at(now + checkpoint_every, Event::PeriodicCkpt { job, on, epoch });
        }
    }
}
