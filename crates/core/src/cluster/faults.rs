//! Capacity taken away from the pool by something other than an owner:
//! advance reservations (paper §5(3)) fencing machines for one holder,
//! and station crashes with their repair cycle (failure injection).

use condor_net::NodeId;
use condor_sim::engine::Scheduler;
use condor_sim::time::{SimDuration, SimTime};

use super::remote_unix::SegmentEnd;
use super::station::Phase;
use super::{Cluster, Event};
use crate::job::JobId;
use crate::trace::TraceKind;

/// The station holding the central coordinator (paper §2.1: "One
/// workstation holds the central coordinator"); in a sharded run, each
/// pool's station 0. While it is down, allocation of new capacity stops;
/// running jobs are unaffected.
const COORDINATOR_HOST: u32 = 0;

impl Cluster {
    pub(super) fn on_reservation_start(&mut self, now: SimTime, idx: u32, sched: &mut Scheduler<Event>) {
        let r = self.config.reservations[idx as usize];
        // Fence machines for the holder: idle free stations first, then
        // stations hosting other users' running jobs (evicted through the
        // normal checkpoint path). The holder's own machine and machines
        // already fenced are skipped.
        let mut fenced = 0usize;
        // Pass 1: free idle machines.
        for i in 0..self.stations.len() {
            if fenced >= r.machines {
                break;
            }
            let st = &self.stations[i];
            if st.reserved_for.is_none()
                && !st.failed
                && st.residents.is_empty()
                && i != r.holder.as_usize()
            {
                self.set_reserved(i, Some(r.holder));
                fenced += 1;
            }
        }
        // Pass 2: evict other users' running jobs to free more machines.
        for i in 0..self.stations.len() {
            if fenced >= r.machines {
                break;
            }
            if self.stations[i].reserved_for.is_some() || i == r.holder.as_usize() {
                continue;
            }
            // Replica-occupied machines are fair game too: the copy is
            // cancelled instantly inside `execute_preempt`.
            let running_other = self.stations[i].residents.iter().any(|slot| {
                matches!(slot.phase, Phase::Running { .. } | Phase::Replica(_))
                    && self.jobs[slot.job.0 as usize].spec.home != r.holder
            });
            if running_other && self.execute_preempt(now, NodeId::new(i as u32), sched) {
                self.set_reserved(i, Some(r.holder));
                fenced += 1;
            }
        }
        self.emit(
            now,
            TraceKind::ReservationStarted { holder: r.holder, machines: fenced as u32 },
        );
    }

    pub(super) fn on_reservation_end(&mut self, now: SimTime, idx: u32) {
        let r = self.config.reservations[idx as usize];
        for i in 0..self.stations.len() {
            if self.stations[i].reserved_for == Some(r.holder) {
                self.set_reserved(i, None);
            }
        }
        self.emit(now, TraceKind::ReservationEnded { holder: r.holder });
    }

    pub(super) fn on_station_crash(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        let i = station as usize;
        debug_assert!(!self.stations[i].failed, "double crash");
        self.stations[i].failed = true;
        self.set_reserved(i, None);
        self.totals.station_failures += 1;
        self.emit(now, TraceKind::StationFailed { station: NodeId::new(station) });
        // Every foreign job here loses everything since its last durable
        // checkpoint — the §2.3 guarantee is that it restarts from that
        // checkpoint at another machine, not that nothing is lost.
        let residents: Vec<JobId> = self.stations[i].residents.iter().map(|s| s.job).collect();
        for job in residents {
            if self.slot_is(i, job, |p| matches!(p, Phase::Replica(_))) {
                // A crash destroys the speculative copy outright; the
                // primary (elsewhere) is untouched, so no rollback.
                self.cancel_replica(now, i, job, Some(sched));
                continue;
            }
            let slot = self.vacate(i, job).expect("listed resident");
            match slot.phase {
                Phase::Running { finish } => {
                    sched.cancel(finish);
                    // The cycles were really consumed (gross ledger), but
                    // the progress is gone.
                    self.close_run_segment(now, job, &[station], SegmentEnd::Seized);
                }
                Phase::Suspended { grace } => {
                    sched.cancel(grace);
                }
                // In-flight transfer dies; its completion event is
                // recognised as stale by the transfer sequence.
                Phase::Arriving | Phase::Departing => {}
                Phase::GangMember => {
                    self.gang_crash_rollback(now, job, sched);
                    self.emit(now, TraceKind::CrashRollback { job, on: NodeId::new(station) });
                    continue;
                }
                Phase::Replica(_) => unreachable!("replicas handled above"),
            }
            self.jobs[job.0 as usize].revert_to_checkpoint();
            self.totals.crash_rollbacks += 1;
            self.requeue_at_home(job);
            self.emit(now, TraceKind::CrashRollback { job, on: NodeId::new(station) });
        }
        // Coordinator failover: while its host is down, allocation stops
        // (paper §2.1: "Only the allocation of new capacity ... is
        // affected").
        if station == COORDINATOR_HOST {
            self.coordinator_down = true;
        }
        // With stochastic failures configured, repairs self-schedule;
        // manually injected crashes (tests, what-if scripts) stay down
        // until a manual `StationRecover`.
        if let Some(failures) = self.config.failures {
            let repair = self.draw_fault_delay(i, failures.mttr);
            sched.at(now + repair, Event::StationRecover { station });
        }
    }

    pub(super) fn on_station_recover(&mut self, now: SimTime, station: u32, sched: &mut Scheduler<Event>) {
        let i = station as usize;
        debug_assert!(self.stations[i].failed, "recovery without crash");
        self.stations[i].failed = false;
        self.coord.mark(i);
        self.emit(now, TraceKind::StationRecovered { station: NodeId::new(station) });
        if station == COORDINATOR_HOST {
            self.coordinator_down = false;
        }
        if let Some(failures) = self.config.failures {
            let ttf = self.draw_fault_delay(i, failures.mtbf);
            sched.at(now + ttf, Event::StationCrash { station });
        }
    }

    /// Draws an exponential time-to-failure or time-to-repair with the
    /// given mean from station `i`'s own stream (at least one second).
    /// That is the owner's dwell stream: a lazily folded station would
    /// have to be brought up to this instant first, tie order included,
    /// so a run with failures configured keeps every station's queue entry
    /// (`Cluster::prime`) and the draws interleave as they always did.
    pub(super) fn draw_fault_delay(&mut self, i: usize, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.lanes[i].rng.exponential(mean.as_secs_f64()))
            .max(SimDuration::SECOND)
    }
}
