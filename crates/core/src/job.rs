//! Jobs: specifications, lifecycle state, and per-job accounting.
//!
//! A Condor job is a long-running, non-interactive background computation
//! submitted at a *home* workstation. The job's whole life — queueing,
//! placement, execution, suspension, checkpointed migration, completion —
//! is tracked here, together with the ledgers behind the paper's
//! evaluation: wait ratio (Fig. 4), checkpoint rate (Fig. 8), and leverage
//! (Fig. 9).

use condor_model::station::{Arch, ArchSet, ResourceVec};
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

/// Identifies a job; dense indices into the cluster's job table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Identifies the submitting user (the paper's users A–E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Users print as letters where possible, matching the paper.
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0 as u8) as char)
        } else {
            write!(f, "U{}", self.0)
        }
    }
}

/// How a job's execution rate responds to the CPU fraction it is granted.
///
/// The legacy model is linear: a job granted `c` milli-CPUs progresses at
/// `c/1000` of reference speed. Real workloads deviate — I/O-bound jobs
/// saturate (extra CPU buys little), memory-thrashing jobs collapse below
/// a threshold — and the replication/checkpointing experiments need those
/// shapes to price speculative copies honestly. Every curve maps a whole
/// grant (1000 milli) to exactly 1000, so whole-machine runs — the 1988
/// default — are bit-identical whatever the curve says below 1000.
///
/// Arithmetic is pure integer math, keeping runs deterministic across
/// platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpeedupCurve {
    /// Rate is proportional to the grant (the legacy model).
    #[default]
    Linear,
    /// The job reaches full speed at `knee_milli` already: rate climbs
    /// with slope `1000/knee` and saturates at reference speed. I/O-bound
    /// jobs, which cannot use a whole CPU to begin with.
    Saturating {
        /// The grant (milli-CPUs) at which the job hits full speed.
        knee_milli: u32,
    },
    /// Rate collapses quadratically below a whole grant (`(c/1000)²`):
    /// a half-machine share runs at a quarter speed. Working sets that
    /// thrash when squeezed.
    Thrashing,
}

impl SpeedupCurve {
    /// Effective execution rate (milli-units of reference speed) for a
    /// grant of `granted_milli` CPU. Always `1000` for a whole grant.
    pub fn effective_milli(self, granted_milli: u32) -> u32 {
        let c = granted_milli.min(1000);
        match self {
            SpeedupCurve::Linear => c,
            SpeedupCurve::Saturating { knee_milli } => {
                let knee = u64::from(knee_milli.clamp(1, 1000));
                (u64::from(c) * 1000 / knee).min(1000) as u32
            }
            SpeedupCurve::Thrashing => (u64::from(c) * u64::from(c) / 1000) as u32,
        }
    }
}

/// Immutable description of a submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The job's identity.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Workstation the job was submitted from; its shadow runs here and its
    /// checkpoint files live on this station's disk.
    pub home: NodeId,
    /// Submission instant.
    pub arrival: SimTime,
    /// Total CPU demand on the reference workstation.
    pub demand: SimDuration,
    /// Size of the executable/checkpoint image in bytes (the paper's
    /// average was ~0.5 MB).
    pub image_bytes: u64,
    /// System calls issued per CPU-second of execution; each costs the home
    /// workstation ~10 ms of shadow CPU. Drives the leverage spread of
    /// Fig. 9.
    pub syscalls_per_cpu_sec: f64,
    /// Architectures the job has binaries for (paper §5(4)). Default:
    /// VAX-only, the 1988 fleet.
    pub binaries: ArchSet,
    /// Jobs that must complete before this one may be placed (paper §5(2)
    /// asks for `fork`/`exec`/`pipe`; dependency DAGs are the batch-world
    /// realisation of process pipelines — the idea that later became
    /// HTCondor's DAGMan). Must reference lower job ids (ids are
    /// arrival-ordered, so the graph is acyclic by construction).
    pub depends_on: Vec<JobId>,
    /// Machines the job needs *simultaneously* (paper §5(2)'s parallel
    /// programs: a job of width k is a gang of k communicating processes).
    /// A gang runs only while every member's machine is idle; if any owner
    /// returns, the whole gang suspends, and evictions checkpoint all
    /// members as a coordinated cut (the §2.3 quiescence rule writ large).
    /// Width 1 — the 1988 reality — is the default.
    pub width: u32,
    /// How execution rate responds to a fractional CPU grant. The default,
    /// [`SpeedupCurve::Linear`], reproduces the legacy model exactly;
    /// whole-machine grants run at reference speed under every curve.
    pub speedup: SpeedupCurve,
    /// Resource demand per machine the job occupies, in milli-units.
    /// Defaults to [`ResourceVec::WHOLE`] (full CPU + memory, no tag),
    /// which reproduces the legacy single-occupancy model exactly. A job
    /// demanding less than a whole CPU runs at fractionally scaled speed
    /// and can share its station with other sub-whole residents. Gangs
    /// (`width > 1`) must demand whole machines.
    pub resources: ResourceVec,
}

impl JobSpec {
    /// A job with the paper's defaults for everything but who submits how
    /// much work when: a 0.5 MB image, one system call per CPU-second, VAX
    /// binaries, no dependencies, one whole machine, linear speedup. Set
    /// the odd field with struct-update syntax:
    ///
    /// ```
    /// use condor_core::job::{JobId, JobSpec, UserId};
    /// use condor_net::NodeId;
    /// use condor_sim::time::{SimDuration, SimTime};
    ///
    /// let gang = JobSpec {
    ///     width: 3,
    ///     ..JobSpec::new(
    ///         JobId(0),
    ///         UserId(0),
    ///         NodeId::new(0),
    ///         SimTime::from_hours(1),
    ///         SimDuration::from_hours(2),
    ///     )
    /// };
    /// assert_eq!(gang.image_bytes, 500_000);
    /// ```
    pub fn new(id: JobId, user: UserId, home: NodeId, arrival: SimTime, demand: SimDuration) -> Self {
        JobSpec {
            id,
            user,
            home,
            arrival,
            demand,
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 1.0,
            binaries: ArchSet::default(),
            depends_on: Vec::new(),
            width: 1,
            speedup: SpeedupCurve::default(),
            resources: ResourceVec::default(),
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Arrived, but waiting for dependencies to complete before entering
    /// the background queue.
    Held,
    /// Waiting in the home station's background queue.
    Queued,
    /// Image in transit to a remote station.
    Placing {
        /// Destination station.
        target: NodeId,
    },
    /// Executing at a remote station.
    Running {
        /// Hosting station.
        on: NodeId,
    },
    /// Stopped at the remote station because the owner returned; waiting
    /// out the grace period in case the owner leaves again.
    Suspended {
        /// Hosting station.
        on: NodeId,
    },
    /// Checkpoint image in transit back to the home station.
    CheckpointingOut {
        /// Station being vacated.
        from: NodeId,
    },
    /// All demand delivered.
    Completed,
    /// Handed to another pool at a synchronisation barrier (sharded runs
    /// only, see `condor_core::shard`); this record is a stub — the
    /// adopting pool carries the job from here on.
    Forwarded,
}

impl JobState {
    /// The station currently holding the job's image remotely, if any.
    pub fn remote_station(self) -> Option<NodeId> {
        match self {
            JobState::Placing { target } => Some(target),
            JobState::Running { on } | JobState::Suspended { on } => Some(on),
            JobState::CheckpointingOut { from } => Some(from),
            JobState::Held | JobState::Queued | JobState::Completed | JobState::Forwarded => None,
        }
    }
}

/// Why a running job was taken off its host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptReason {
    /// The station's owner resumed activity.
    OwnerReturned,
    /// The coordinator reassigned the capacity to a higher-priority station
    /// (Up-Down preemption).
    PriorityPreemption,
    /// The hosting station failed or shut down.
    StationFailure,
}

impl std::fmt::Display for PreemptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PreemptReason::OwnerReturned => "owner returned",
            PreemptReason::PriorityPreemption => "priority preemption",
            PreemptReason::StationFailure => "station failure",
        };
        f.write_str(s)
    }
}

/// A job plus all of its runtime state and accounting.
#[derive(Debug, Clone)]
pub struct Job {
    /// The immutable specification.
    pub spec: JobSpec,
    /// Lifecycle state.
    pub state: JobState,
    /// Reference-CPU work completed and *safe* (checkpointed or accrued
    /// under a strategy that cannot lose it).
    pub work_done: SimDuration,
    /// Work level captured by the most recent checkpoint; under the
    /// immediate-kill strategy, a kill reverts `work_done` to this.
    pub work_checkpointed: SimDuration,
    /// When the current run segment started (valid in `Running`).
    pub running_since: SimTime,
    /// Completion instant, once completed.
    pub completed_at: Option<SimTime>,
    /// Remote CPU consumed over the job's life, *including* work that was
    /// later lost and redone (the paper's leverage numerator).
    pub remote_cpu: SimDuration,
    /// Local CPU consumed on the home station to support remote execution:
    /// placements, checkpoints, and shadow system calls (the leverage
    /// denominator). Microsecond units for sub-ms syscall precision.
    pub support_us: u64,
    /// Number of initial + migratory placements performed.
    pub placements: u32,
    /// Number of checkpoint migrations after the initial placement (the
    /// Fig. 8 numerator).
    pub checkpoints: u32,
    /// Work lost to kills without checkpoint.
    pub work_lost: SimDuration,
    /// Run-segment generation counter; bumps every time the job starts
    /// executing, so stale deferred events (periodic checkpoints) from an
    /// earlier segment can be recognised and dropped.
    pub epoch: u32,
    /// `true` if the job was refused at submission (home disk full).
    pub rejected: bool,
    /// Monotonic counter of image transfers started for this job
    /// (placements and checkpoint-outs). Transfer-completion events carry
    /// the sequence they belong to, so completions of transfers that died
    /// with a crashed station are recognised as stale and dropped.
    pub transfer_seq: u32,
    /// Once the job has executed on an architecture, its progress is bound
    /// to it: checkpoints are native images, so moving to the other
    /// architecture would lose all work (paper §5(4)). Placements respect
    /// this binding.
    pub bound_arch: Option<Arch>,
    /// `true` if this pool received the job from another pool at a
    /// synchronisation barrier (sharded runs only). Adopted jobs announce
    /// themselves with `JobAdopted` instead of `JobArrived`.
    pub adopted: bool,
}

impl Job {
    /// Wraps a spec in its initial (queued) state.
    pub fn new(spec: JobSpec) -> Self {
        Job {
            spec,
            state: JobState::Queued,
            work_done: SimDuration::ZERO,
            work_checkpointed: SimDuration::ZERO,
            running_since: SimTime::ZERO,
            completed_at: None,
            remote_cpu: SimDuration::ZERO,
            support_us: 0,
            placements: 0,
            checkpoints: 0,
            work_lost: SimDuration::ZERO,
            epoch: 0,
            rejected: false,
            transfer_seq: 0,
            bound_arch: None,
            adopted: false,
        }
    }

    /// Whether the job may be placed on a station of `arch`: it needs a
    /// binary for it, and must not already be bound to the other
    /// architecture by checkpointed progress.
    pub fn can_run_on(&self, arch: Arch) -> bool {
        self.spec.binaries.supports(arch) && self.bound_arch.is_none_or(|b| b == arch)
    }

    /// Work still owed.
    pub fn remaining(&self) -> SimDuration {
        self.spec.demand.saturating_sub(self.work_done)
    }

    /// Accrues a run segment of `wall` duration ending now: counts toward
    /// both `work_done` and the gross `remote_cpu` ledger, and charges the
    /// shadow's system-call support cost for the segment. A gang of width
    /// k advances `work_done` at wall rate but consumes k machines' worth
    /// of capacity.
    pub fn accrue_run(&mut self, wall: SimDuration, remote_syscall_cost_us: u64) {
        self.work_done += wall;
        self.remote_cpu += wall * u64::from(self.spec.width.max(1));
        let calls =
            self.spec.syscalls_per_cpu_sec * wall.as_secs_f64() * f64::from(self.spec.width.max(1));
        self.support_us += (calls * remote_syscall_cost_us as f64).round() as u64;
    }

    /// Charges the home workstation for one image move (placement or
    /// checkpoint) of the job's image.
    pub fn charge_transfer(&mut self, cpu: SimDuration) {
        self.support_us += cpu.as_millis() * 1_000;
    }

    /// Reverts un-checkpointed work after a kill, recording the loss.
    pub fn revert_to_checkpoint(&mut self) {
        let lost = self.work_done.saturating_sub(self.work_checkpointed);
        self.work_lost += lost;
        self.work_done = self.work_checkpointed;
    }

    /// Marks the current work level as safely checkpointed.
    pub fn mark_checkpointed(&mut self) {
        self.work_checkpointed = self.work_done;
    }

    /// Turnaround time (arrival → completion), if completed.
    pub fn turnaround(&self) -> Option<SimDuration> {
        self.completed_at.map(|t| t.since(self.spec.arrival))
    }

    /// The paper's **wait ratio**: time waiting for service divided by
    /// service time. Waiting = turnaround − service demand. `None` until
    /// the job completes.
    pub fn wait_ratio(&self) -> Option<f64> {
        let turnaround = self.turnaround()?;
        let service = self.spec.demand;
        if service.is_zero() {
            return None;
        }
        let wait = turnaround.saturating_sub(service);
        Some(wait.as_secs_f64() / service.as_secs_f64())
    }

    /// The paper's **leverage**: remote capacity consumed divided by local
    /// capacity spent supporting it. `None` when no support was charged
    /// (nothing ran remotely yet).
    pub fn leverage(&self) -> Option<f64> {
        if self.support_us == 0 {
            return None;
        }
        let remote_us = self.remote_cpu.as_millis() as f64 * 1_000.0;
        Some(remote_us / self.support_us as f64)
    }

    /// Checkpoint migrations per hour of service demand (Fig. 8's y-axis).
    pub fn checkpoint_rate_per_hour(&self) -> f64 {
        let hours = self.spec.demand.as_hours_f64();
        if hours <= 0.0 {
            return 0.0;
        }
        f64::from(self.checkpoints) / hours
    }

    /// Local support in seconds (for reporting).
    pub fn support_seconds(&self) -> f64 {
        self.support_us as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(demand_hours: u64) -> JobSpec {
        JobSpec::new(
            JobId(1),
            UserId(0),
            NodeId::new(0),
            SimTime::from_hours(1),
            SimDuration::from_hours(demand_hours),
        )
    }

    #[test]
    fn ids_display_like_the_paper() {
        assert_eq!(UserId(0).to_string(), "A");
        assert_eq!(UserId(4).to_string(), "E");
        assert_eq!(UserId(30).to_string(), "U30");
        assert_eq!(JobId(7).to_string(), "job7");
    }

    #[test]
    fn fresh_job_is_queued_with_full_remaining() {
        let j = Job::new(spec(6));
        assert_eq!(j.state, JobState::Queued);
        assert_eq!(j.remaining(), SimDuration::from_hours(6));
        assert_eq!(j.wait_ratio(), None);
        assert_eq!(j.leverage(), None);
    }

    #[test]
    fn accrue_run_tracks_work_and_syscall_support() {
        let mut j = Job::new(spec(2));
        // 1 hour at 1 syscall/cpu-sec → 3600 calls × 10 000 µs = 36 s.
        j.accrue_run(SimDuration::HOUR, 10_000);
        assert_eq!(j.work_done, SimDuration::HOUR);
        assert_eq!(j.remote_cpu, SimDuration::HOUR);
        assert_eq!(j.support_us, 3_600 * 10_000);
        assert_eq!(j.remaining(), SimDuration::HOUR);
    }

    #[test]
    fn transfer_charges_add_up() {
        let mut j = Job::new(spec(2));
        j.charge_transfer(SimDuration::from_millis(2_500));
        j.charge_transfer(SimDuration::from_millis(2_500));
        assert_eq!(j.support_seconds(), 5.0);
    }

    #[test]
    fn leverage_matches_paper_arithmetic() {
        // Paper: ~1 minute of local support buys ~22 hours of remote CPU at
        // leverage ≈ 1300.
        let mut j = Job::new(spec(22));
        j.accrue_run(SimDuration::from_hours(22), 0); // no syscalls
        j.charge_transfer(SimDuration::from_secs(60));
        let lev = j.leverage().unwrap();
        assert!((lev - 1_320.0).abs() < 1.0, "leverage {lev}");
    }

    #[test]
    fn wait_ratio_zero_when_served_immediately() {
        let mut j = Job::new(spec(4));
        j.completed_at = Some(j.spec.arrival + SimDuration::from_hours(4));
        assert_eq!(j.wait_ratio(), Some(0.0));
    }

    #[test]
    fn wait_ratio_counts_queueing() {
        let mut j = Job::new(spec(2));
        // Took 6 h wall for 2 h of work → waited 4 h → ratio 2.
        j.completed_at = Some(j.spec.arrival + SimDuration::from_hours(6));
        assert_eq!(j.wait_ratio(), Some(2.0));
        assert_eq!(j.turnaround(), Some(SimDuration::from_hours(6)));
    }

    #[test]
    fn revert_loses_unsaved_work_only() {
        let mut j = Job::new(spec(10));
        j.accrue_run(SimDuration::from_hours(3), 0);
        j.mark_checkpointed();
        j.accrue_run(SimDuration::from_hours(2), 0);
        j.revert_to_checkpoint();
        assert_eq!(j.work_done, SimDuration::from_hours(3));
        assert_eq!(j.work_lost, SimDuration::from_hours(2));
        // Gross remote consumption keeps the lost segment.
        assert_eq!(j.remote_cpu, SimDuration::from_hours(5));
    }

    #[test]
    fn checkpoint_rate_per_demand_hour() {
        let mut j = Job::new(spec(4));
        j.checkpoints = 2;
        assert_eq!(j.checkpoint_rate_per_hour(), 0.5);
    }

    #[test]
    fn completion_detection() {
        let mut j = Job::new(spec(1));
        j.accrue_run(SimDuration::from_minutes(59), 0);
        assert_eq!(j.remaining(), SimDuration::from_minutes(1));
        j.accrue_run(SimDuration::from_minutes(1), 0);
        assert_eq!(j.remaining(), SimDuration::ZERO);
    }

    #[test]
    fn state_helpers() {
        assert_eq!(
            JobState::Running { on: NodeId::new(3) }.remote_station(),
            Some(NodeId::new(3))
        );
        assert_eq!(JobState::Queued.remote_station(), None);
        assert_eq!(
            JobState::CheckpointingOut { from: NodeId::new(1) }.remote_station(),
            Some(NodeId::new(1))
        );
    }

    #[test]
    fn preempt_reason_display() {
        assert_eq!(PreemptReason::OwnerReturned.to_string(), "owner returned");
        assert_eq!(
            PreemptReason::PriorityPreemption.to_string(),
            "priority preemption"
        );
    }

    #[test]
    fn every_speedup_curve_is_identity_at_a_whole_grant() {
        for curve in [
            SpeedupCurve::Linear,
            SpeedupCurve::Saturating { knee_milli: 1 },
            SpeedupCurve::Saturating { knee_milli: 400 },
            SpeedupCurve::Saturating { knee_milli: 1000 },
            SpeedupCurve::Thrashing,
        ] {
            assert_eq!(curve.effective_milli(1000), 1000, "{curve:?}");
            // Over-grants clamp rather than over-speed.
            assert_eq!(curve.effective_milli(1500), 1000, "{curve:?}");
        }
    }

    #[test]
    fn speedup_curves_shape_fractional_grants() {
        // Linear: proportional.
        assert_eq!(SpeedupCurve::Linear.effective_milli(250), 250);
        // Saturating with knee 400: full speed from 400 up, linear below.
        let sat = SpeedupCurve::Saturating { knee_milli: 400 };
        assert_eq!(sat.effective_milli(400), 1000);
        assert_eq!(sat.effective_milli(700), 1000);
        assert_eq!(sat.effective_milli(200), 500);
        // Thrashing: quadratic collapse — half the CPU, a quarter the speed.
        assert_eq!(SpeedupCurve::Thrashing.effective_milli(500), 250);
        assert_eq!(SpeedupCurve::Thrashing.effective_milli(0), 0);
    }

    #[test]
    fn speedup_curves_are_monotone_in_the_grant() {
        for curve in [
            SpeedupCurve::Linear,
            SpeedupCurve::Saturating { knee_milli: 300 },
            SpeedupCurve::Thrashing,
        ] {
            let mut prev = 0;
            for c in (0..=1000).step_by(50) {
                let eff = curve.effective_milli(c);
                assert!(eff >= prev, "{curve:?} dipped at {c}");
                prev = eff;
            }
        }
    }
}
