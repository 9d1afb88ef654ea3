//! The runtime half of [`crate::chaos`]: applying a pre-expanded fault
//! schedule to a live cluster — control-message loss, delay and
//! duplication at the poll, partitions and coordinator outages (with the
//! local schedulers' autonomous starts while cut off), and checkpoint
//! corruption with backed-off re-sends. Every entry point is a single
//! branch on `Cluster::chaos` being `None`.

use condor_model::costs::OWNER_CHECK_INTERVAL;
use condor_model::owner::OwnerState;
use condor_net::NodeId;
use condor_sim::engine::Scheduler;
use condor_sim::time::{SimDuration, SimTime};

use super::station::Phase;
use super::{Cluster, Event};
use crate::chaos::{retry_backoff, ChaosSchedule, Fault};
use crate::job::{JobId, JobState};
use crate::trace::TraceKind;

/// Runtime state of the injected fault schedule.
#[derive(Debug)]
pub(super) struct ChaosState {
    /// The injected faults.
    pub(super) schedule: ChaosSchedule,
    /// Nesting depth of open coordinator-outage windows.
    outage_depth: u32,
    /// Per-station nesting depth of open partition windows.
    pub(super) partition_depth: Vec<u32>,
    /// Control-loss window end: polls before this instant are dropped.
    ctrl_loss_until: SimTime,
    /// Corruption window end: non-gang checkpoint transfers completing
    /// before this instant land damaged and are re-sent.
    pub(super) ckpt_corrupt_until: SimTime,
    /// One-shot: the next executed poll sees (and discards) a duplicate.
    dup_pending: bool,
    /// One-shot: the next on-grid poll runs this much later instead.
    delay_pending: Option<SimDuration>,
    /// Consecutive corrupted attempts per job (index = job id), cleared
    /// by a clean checkpoint completion.
    pub(super) retry_attempts: Vec<u32>,
    /// Whether an autonomy-sweep chain is already scheduled.
    sweep_pending: bool,
}

impl ChaosState {
    pub(super) fn new(schedule: ChaosSchedule, stations: usize, jobs: usize) -> Self {
        ChaosState {
            schedule,
            outage_depth: 0,
            partition_depth: vec![0; stations],
            ctrl_loss_until: SimTime::ZERO,
            ckpt_corrupt_until: SimTime::ZERO,
            dup_pending: false,
            delay_pending: None,
            retry_attempts: vec![0; jobs],
            sweep_pending: false,
        }
    }

    /// Whether `station` currently cannot reach the coordinator.
    fn unreachable(&self, station: usize) -> bool {
        self.outage_depth > 0 || self.partition_depth[station] > 0
    }
}

impl Cluster {
    fn chaos_state(&self) -> &ChaosState {
        self.chaos.as_ref().expect("chaos event without config")
    }

    fn chaos_mut(&mut self) -> &mut ChaosState {
        self.chaos.as_mut().expect("chaos event without config")
    }

    fn chaos_fault(&self, idx: u32) -> Fault {
        self.chaos_state().schedule.entries[idx as usize].fault
    }

    /// Chaos gating for an on-grid poll. Outage windows drop polls
    /// silently — the cadence gap stays a whole multiple of the interval,
    /// exactly like coordinator-host downtime. Control-message loss drops
    /// them loudly, and a pending delay postpones the body off the grid.
    pub(super) fn chaos_poll_suppressed(&mut self, now: SimTime, sched: &mut Scheduler<Event>) -> bool {
        let Some(chaos) = self.chaos.as_mut() else {
            return false;
        };
        if chaos.outage_depth > 0 {
            return true;
        }
        if now >= chaos.ctrl_loss_until {
            if let Some(delay) = chaos.delay_pending.take() {
                sched.at(now + delay, Event::ChaosDelayedPoll { delay_ms: delay.as_millis() });
                return true;
            }
            return false;
        }
        self.emit(now, TraceKind::ChaosPollLost);
        true
    }

    /// Runs the postponed body of a poll hit by [`Fault::CtrlDelay`]. The
    /// next on-grid poll (already scheduled by the suppressed one) is
    /// unaffected.
    pub(super) fn on_chaos_delayed_poll(&mut self, now: SimTime, delay_ms: u64, sched: &mut Scheduler<Event>) {
        if self.coordinator_down {
            return;
        }
        if let Some(c) = self.chaos.as_ref() {
            if c.outage_depth > 0 || now < c.ctrl_loss_until {
                return;
            }
        }
        self.emit(now, TraceKind::ChaosPollDelayed { delay_ms });
        self.poll_body(now, sched);
    }

    /// A duplicated poll request is recognised by its sequence number and
    /// discarded before any allocation work.
    pub(super) fn chaos_drop_duplicate_poll(&mut self, now: SimTime) {
        if self.chaos.as_mut().is_some_and(|c| std::mem::take(&mut c.dup_pending)) {
            self.emit(now, TraceKind::ChaosDupDropped);
        }
    }

    /// Applies one schedule entry. Instantaneous faults arm a one-shot
    /// effect; windowed faults open their window and schedule the heal.
    pub(super) fn on_chaos_fault(&mut self, now: SimTime, idx: u32, sched: &mut Scheduler<Event>) {
        let fault = self.chaos_fault(idx);
        let c = self.chaos_mut();
        match fault {
            Fault::CtrlLoss { duration } => {
                c.ctrl_loss_until = c.ctrl_loss_until.max(now + duration);
            }
            Fault::CtrlDelay { delay } => c.delay_pending = Some(delay),
            Fault::CtrlDup => c.dup_pending = true,
            Fault::CkptCorrupt { duration } => {
                c.ckpt_corrupt_until = c.ckpt_corrupt_until.max(now + duration);
            }
            Fault::Partition { first_station, machines, duration } => {
                for s in first_station..first_station + machines {
                    let depth = &mut self.chaos_mut().partition_depth[s as usize];
                    *depth += 1;
                    if *depth == 1 {
                        self.coord.mark(s as usize);
                        self.emit(now, TraceKind::ChaosLinkDown { station: NodeId::new(s) });
                    }
                }
                sched.at(now + duration, Event::ChaosHeal { idx });
                self.kick_autonomy_sweep(now, sched);
            }
            Fault::CoordinatorOutage { duration } => {
                c.outage_depth += 1;
                if c.outage_depth == 1 {
                    self.emit(now, TraceKind::ChaosCoordDown);
                }
                sched.at(now + duration, Event::ChaosHeal { idx });
                self.kick_autonomy_sweep(now, sched);
            }
        }
    }

    /// Closes a windowed fault. Overlapping windows nest: recovery is
    /// announced only when the last one ends.
    pub(super) fn on_chaos_heal(&mut self, now: SimTime, idx: u32) {
        match self.chaos_fault(idx) {
            Fault::Partition { first_station, machines, .. } => {
                for s in first_station..first_station + machines {
                    let depth = &mut self.chaos_mut().partition_depth[s as usize];
                    *depth -= 1;
                    if *depth == 0 {
                        self.coord.mark(s as usize);
                        self.emit(now, TraceKind::ChaosLinkUp { station: NodeId::new(s) });
                    }
                }
            }
            Fault::CoordinatorOutage { .. } => {
                let c = self.chaos_mut();
                c.outage_depth -= 1;
                if c.outage_depth == 0 {
                    self.emit(now, TraceKind::ChaosCoordUp);
                }
            }
            _ => debug_assert!(false, "heal scheduled for a windowless fault"),
        }
    }

    /// Arms the autonomy-sweep chain if it is not already running. The
    /// sweep rides the local schedulers' own check grid: autonomy is a
    /// station-side behaviour, reacting at owner-check granularity.
    fn kick_autonomy_sweep(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let c = self.chaos_mut();
        if c.sweep_pending {
            return;
        }
        c.sweep_pending = true;
        sched.at(now + OWNER_CHECK_INTERVAL, Event::ChaosAutonomySweep);
    }

    /// One pass of the cut-off local schedulers: an unreachable, idle,
    /// unoccupied station whose queue holds a runnable width-1 job starts
    /// it locally — paper §2.1: only the allocation of *new* capacity
    /// stops when the coordinator is down; the stations stay autonomous.
    pub(super) fn on_chaos_autonomy_sweep(&mut self, now: SimTime, sched: &mut Scheduler<Event>) {
        let c = self.chaos_mut();
        if c.outage_depth == 0 && c.partition_depth.iter().all(|&d| d == 0) {
            // Every window closed while the sweep was in flight: the chain
            // dies here and re-arms with the next windowed fault.
            c.sweep_pending = false;
            return;
        }
        for i in 0..self.stations.len() {
            if !self.chaos_state().unreachable(i) {
                continue;
            }
            // Speculative copies yield to the station's own queued demand
            // just as they yield to the coordinator's (see
            // `reclaim_replicas_for_demand`) — without this a replica
            // could block the very autonomy the outage path guarantees.
            // Copies whose primary is not running are spared: they are
            // their job's only progress.
            let yieldable = {
                let st = &self.stations[i];
                !st.failed
                    && st.reserved_for.is_none()
                    && self.lanes[i].state == OwnerState::Idle
                    && !st.queue.is_empty()
                    && !st.residents.is_empty()
                    && st.residents.iter().all(|sl| {
                        matches!(sl.phase, Phase::Replica(_))
                            && matches!(
                                self.jobs[sl.job.0 as usize].state,
                                JobState::Running { .. }
                            )
                    })
            };
            if yieldable {
                let arch = self.station_arch(i);
                let runnable = self.stations[i].queue.iter().any(|id| {
                    let j = &self.jobs[id.0 as usize];
                    j.spec.width == 1 && j.can_run_on(arch)
                });
                if runnable {
                    let replicas: Vec<JobId> =
                        self.stations[i].residents.iter().map(|sl| sl.job).collect();
                    for job in replicas {
                        self.cancel_replica(now, i, job, Some(sched));
                    }
                }
            }
            let st = &self.stations[i];
            if !self.idle_and_empty(i) || st.queue.is_empty() {
                continue;
            }
            let arch = self.station_arch(i);
            let disk_free = st.disk_free();
            // Width-1 only — a gang needs the coordinator to gather
            // machines. First eligible job in local service order.
            let jobs = &self.jobs;
            let Some(job) = self.stations[i].queue.pop_next_where(|id| {
                let j = &jobs[id.0 as usize];
                j.spec.width == 1 && j.can_run_on(arch) && j.spec.image_bytes <= disk_free
            }) else {
                continue;
            };
            // The running copy occupies local disk alongside the standing
            // image, exactly as a remote placement would at its target.
            // (No queue entry to take first: a chaos run keeps every
            // station's — see `Cluster::prime`.)
            self.occupy(i, job, Phase::Arriving);
            self.totals.local_starts += 1;
            self.emit(now, TraceKind::ChaosLocalStart { job, on: NodeId::new(i as u32) });
            self.start_running(now, i, job, sched);
        }
        sched.at(now + OWNER_CHECK_INTERVAL, Event::ChaosAutonomySweep);
    }

    /// Handles a checkpoint transfer that completed inside a corruption
    /// window: announce, count, and schedule the re-send. No job state
    /// changes — the job stays `CheckpointingOut`, the slot `Departing`,
    /// until a clean copy lands.
    pub(super) fn chaos_corrupt_ckpt(
        &mut self,
        now: SimTime,
        job: JobId,
        from: u32,
        seq: u32,
        sched: &mut Scheduler<Event>,
    ) {
        let slot = &mut self.chaos_mut().retry_attempts[job.0 as usize];
        *slot += 1;
        let attempt = *slot;
        self.totals.ckpt_retries += 1;
        self.emit(
            now,
            TraceKind::ChaosCkptCorrupted { job, from: NodeId::new(from), attempt },
        );
        #[cfg(test)]
        if crate::chaos::test_hooks::BREAK_CKPT_RETRY.with(|b| b.get()) {
            return; // deliberately broken recovery: the re-send is dropped
        }
        sched.at(now + retry_backoff(attempt), Event::ChaosCkptRetry { job, from, seq });
    }

    /// Re-sends a corrupted checkpoint image. Stale if the source station
    /// crashed in the meantime (the job has moved on).
    pub(super) fn on_chaos_ckpt_retry(
        &mut self,
        now: SimTime,
        job: JobId,
        from: u32,
        seq: u32,
        sched: &mut Scheduler<Event>,
    ) {
        if self.jobs[job.0 as usize].transfer_seq != seq
            || !self.slot_is(from as usize, job, |p| matches!(p, Phase::Departing))
        {
            return;
        }
        let home = self.jobs[job.0 as usize].spec.home;
        let done = self.ship_image(now, job, NodeId::new(from), home);
        sched.at(done, Event::CheckpointDone { job, from, seq });
    }
}
