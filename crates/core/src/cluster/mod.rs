//! The complete Condor cluster simulation.
//!
//! [`Cluster`] is a [`condor_sim::engine::Model`] binding together all the
//! moving parts of the paper's system. The module tree follows the
//! paper's own decomposition — a coordinator that only hands out
//! capacity, an autonomous local scheduler per workstation, and
//! Remote-Unix checkpointing — with each optional feature layered on in a
//! module of its own:
//!
//! * `station` — the **local scheduler**: per-station owner process,
//!   background queue and resident slots, owner-activity detection on the
//!   30-second grid;
//! * `coordinator` — the **central coordinator**: the incrementally
//!   maintained poll snapshot, the 2-minute poll loop feeding an
//!   [`AllocationPolicy`] (Up-Down in production), and the execution of
//!   its placement/preemption orders — at most one placement per poll,
//!   per the paper's §4 throttle;
//! * `remote_unix` — the **job lifecycle**: placement, run segments, the
//!   5-minute eviction grace period, checkpoint logistics, completion, and
//!   the **shadow cost ledgers** (every placement, checkpoint, and remote
//!   system call charges the home workstation, feeding the leverage
//!   numbers of Fig. 9);
//! * `gangs`, `replicas`, `faults` (reservations and crashes), `chaos` —
//!   one feature each, calling the same lifecycle primitives.
//!
//! This file holds what they share: the [`Event`] enum and its dispatch,
//! the [`Cluster`] struct, construction and priming, trace emission, the
//! end-of-run accounting, and the [`Run`] entry point. A new handler goes
//! in the module of the component whose state it changes; a new state
//! change on a resident slot goes in `remote_unix` (or `station` for
//! `occupy`/`vacate`) and is *called* from everywhere else.
//!
//! Use [`Run`] for the common case: build, run to a horizon, and collect a
//! [`RunOutput`].

mod chaos;
mod coordinator;
mod faults;
mod gangs;
mod remote_unix;
mod replicas;
mod station;

use std::collections::BTreeMap;

use condor_model::owner::build_fleet;
use condor_net::{NodeId, SharedBus};
use condor_sim::engine::{Engine, Model, Scheduler};
use condor_sim::series::{BucketAccumulator, StepSeries};
use condor_sim::time::{SimDuration, SimTime};

use self::chaos::ChaosState;
use self::coordinator::CoordCache;
use self::gangs::GangState;
use self::remote_unix::SegmentEnd;
use self::replicas::RedundancyRuntime;
use self::station::{LazyFlips, OwnerLane, Phase, Station};
pub use self::station::{IDLE_EWMA_HISTORY_WEIGHT, IDLE_EWMA_SAMPLE_WEIGHT};
use crate::config::{ClusterConfig, ConfigError, PolicyKind};
use crate::job::{Job, JobId, JobSpec, JobState, UserId};
use crate::policy::{AllocationPolicy, FifoPolicy, FracPolicy, RandomPolicy, RoundRobinPolicy};
use crate::queue::BackgroundQueue;
use crate::telemetry::{GaugeSample, KindMask, StatsSink, Telemetry, TraceSink};
use crate::trace::{Trace, TraceEvent, TraceKind};
use crate::updown::{UpDown, UpDownConfig};

/// Events driving the cluster simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A job reaches its home station's queue.
    Arrival(JobId),
    /// A station's owner switches between active and idle.
    OwnerFlip {
        /// Station index.
        station: u32,
    },
    /// The local scheduler's 30-second-grid check fires.
    DetectOwner {
        /// Station index.
        station: u32,
    },
    /// The coordinator's poll cycle.
    Poll,
    /// A placement image transfer finished.
    PlacementDone {
        /// The job placed.
        job: JobId,
        /// Destination station.
        target: u32,
        /// The transfer sequence this completion belongs to; completions of
        /// transfers that died with a crashed station are stale and dropped.
        seq: u32,
    },
    /// A checkpoint transfer back home finished.
    CheckpointDone {
        /// The job moved.
        job: JobId,
        /// Station vacated.
        from: u32,
        /// Transfer sequence (see [`Event::PlacementDone::seq`]).
        seq: u32,
    },
    /// A running job delivered all its demand.
    Finish {
        /// The job.
        job: JobId,
        /// Hosting station.
        on: u32,
    },
    /// The eviction grace period expired with the owner still around.
    GraceOver {
        /// Station index.
        station: u32,
        /// The suspended job.
        job: JobId,
    },
    /// Periodic while-running checkpoint (immediate-kill strategy).
    PeriodicCkpt {
        /// The job.
        job: JobId,
        /// Hosting station.
        on: u32,
        /// Run epoch the checkpoint belongs to (stale epochs are ignored).
        epoch: u32,
    },
    /// A reservation window opens.
    ReservationStart {
        /// Index into the config's reservation list.
        idx: u32,
    },
    /// A reservation window closes.
    ReservationEnd {
        /// Index into the config's reservation list.
        idx: u32,
    },
    /// A workstation crashes (failure injection).
    StationCrash {
        /// Station index.
        station: u32,
    },
    /// A crashed workstation comes back online.
    StationRecover {
        /// Station index.
        station: u32,
    },
    /// A scheduled chaos fault fires.
    ChaosFault {
        /// Index into [`crate::chaos::ChaosSchedule::entries`].
        idx: u32,
    },
    /// A windowed chaos fault's window closes.
    ChaosHeal {
        /// Index of the schedule entry whose window ends.
        idx: u32,
    },
    /// The body of a poll postponed by
    /// [`Fault::CtrlDelay`](crate::chaos::Fault::CtrlDelay).
    ChaosDelayedPoll {
        /// How late the body runs, for the trace announcement.
        delay_ms: u64,
    },
    /// Periodic local-scheduler pass starting queued jobs autonomously
    /// while the coordinator is unreachable (outage or partition).
    ChaosAutonomySweep,
    /// Re-send of a corrupted checkpoint transfer after backoff.
    ChaosCkptRetry {
        /// The job mid-checkpoint.
        job: JobId,
        /// Station the image leaves.
        from: u32,
        /// Transfer sequence (stale retries are dropped).
        seq: u32,
    },
    /// A speculative replica's image transfer finished (see
    /// [`PolicyKind::Redundant`]). Cancellation is by
    /// [`EventToken`](condor_sim::event::EventToken), so no
    /// staleness sequence is needed.
    ReplicaPlaced {
        /// The replicated job.
        job: JobId,
        /// Destination station.
        target: u32,
    },
    /// A running replica delivered the job's remaining demand before the
    /// primary copy did: the replica wins, every rival is cancelled.
    ReplicaFinish {
        /// The replicated job.
        job: JobId,
        /// Hosting station.
        on: u32,
    },
}

/// Aggregate counters over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Placements started (initial and migratory).
    pub placements: u64,
    /// Checkpoint migrations completed (job moved off a machine).
    pub migrations: u64,
    /// Periodic while-running checkpoints taken.
    pub periodic_checkpoints: u64,
    /// Jobs killed without an outgoing checkpoint.
    pub kills: u64,
    /// Evictions caused by returning owners.
    pub preemptions_owner: u64,
    /// Evictions ordered by the coordinator's policy.
    pub preemptions_priority: u64,
    /// Suspended jobs that resumed in place within the grace period.
    pub resumes_in_place: u64,
    /// Placements abandoned because the target disk was full.
    pub placement_disk_rejections: u64,
    /// Grants wasted because none of the home's waiting jobs had a binary
    /// for (or was unbound from) the granted machine's architecture.
    pub arch_starvation: u64,
    /// Jobs rejected at submission (home disk full).
    pub submit_rejections: u64,
    /// Coordinator poll cycles executed.
    pub polls: u64,
    /// Poll cycles answered from the memo fast path: nothing changed since
    /// the last poll and the policy was provably quiescent, so the
    /// coordinator emitted its telemetry without running `decide` at all.
    pub poll_memo_hits: u64,
    /// Owner-active time overlapping a running foreign job (detection
    /// latency interference), in milliseconds.
    pub interference_ms: u64,
    /// Placements made onto fenced machines for reservation holders.
    pub reservation_placements: u64,
    /// Gang (width > 1) placements started.
    pub gang_placements: u64,
    /// Station crashes injected.
    pub station_failures: u64,
    /// Jobs rolled back to their last checkpoint by a host crash.
    pub crash_rollbacks: u64,
    /// Autonomous local starts while the coordinator was unreachable
    /// (chaos outage or partition).
    pub local_starts: u64,
    /// Corrupted checkpoint transfers detected and re-sent (chaos).
    pub ckpt_retries: u64,
    /// Jobs handed to another pool at a window barrier (sharded runs).
    pub jobs_forwarded: u64,
    /// Jobs received from another pool at a window barrier (sharded runs).
    pub jobs_adopted: u64,
    /// Speculative replicas spawned (redundancy policy).
    pub replicas_spawned: u64,
    /// Replicas cancelled — by a rival copy finishing first, a returning
    /// owner, a crash, a reservation fence, a policy preemption, or the
    /// horizon. Replicas that *win* complete instead of cancelling, so
    /// `replicas_spawned - replicas_cancelled` is the number of jobs a
    /// replica finished.
    pub replicas_cancelled: u64,
    /// Reference-machine work thrown away with cancelled replicas, in
    /// milliseconds — the price paid for the speculation.
    pub wasted_replica_work: u64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunOutput {
    /// Name of the allocation policy used.
    pub policy_name: String,
    /// Number of stations simulated.
    pub stations: usize,
    /// The run horizon (end of observation).
    pub horizon: SimTime,
    /// Final job table (index = job id).
    pub jobs: Vec<Job>,
    /// The event trace (empty if disabled).
    pub trace: Trace,
    /// Aggregate counters.
    pub totals: Totals,
    /// Jobs in the system over time (queued + placed + running — the
    /// paper's Fig. 3/7 "queue length" counts jobs in service).
    pub queue_total: StepSeries,
    /// Per-user queue lengths.
    pub queue_by_user: BTreeMap<UserId, StepSeries>,
    /// Owner-active CPU-milliseconds per hourly bucket (local utilization
    /// numerator).
    pub local_busy: BucketAccumulator,
    /// Foreign-job CPU-milliseconds per hourly bucket (remote utilization
    /// numerator).
    pub remote_busy: BucketAccumulator,
    /// Total payload bytes moved over the network.
    pub bus_bytes_moved: u64,
    /// Bulk transfers booked on the network.
    pub bus_transfers: u64,
    /// Events simulated over the run: dispatched by the engine, or — for
    /// the owner transitions of stations nobody was looking at — folded at
    /// a poll. Independent of observers (a traced run dispatches every one
    /// of them and reports the same number), so it is the denominator for
    /// events/sec-equivalent throughput reporting.
    pub events_dispatched: u64,
    /// The O(1)-memory telemetry summary, populated on every run — even
    /// with `record_trace: false`, so long horizons still report.
    pub telemetry: Telemetry,
}

impl RunOutput {
    /// Folds the buffered trace into per-job lifecycle spans.
    ///
    /// Returns an empty log for a run with `record_trace: false` — attach
    /// a live [`crate::spans::SpanSink`] via [`Run::sink`] for span
    /// folding without the trace buffer.
    pub fn spans(&self) -> crate::spans::SpanLog {
        crate::spans::SpanSink::fold(self.trace.events(), self.horizon)
    }

    /// Station-hours the fleet was available for remote execution
    /// (owner idle), the paper's "12438 hours were available" figure.
    pub fn available_station_hours(&self) -> f64 {
        let total = self.horizon.as_hours_f64() * self.stations as f64;
        total - self.local_busy.total() / 3_600_000.0
    }

    /// CPU-hours actually consumed by remote execution (the paper's 4771).
    pub fn consumed_cpu_hours(&self) -> f64 {
        self.remote_busy.total() / 3_600_000.0
    }

    /// Mean local (owner) utilization over the run.
    pub fn mean_local_utilization(&self) -> f64 {
        self.local_busy.total() / (self.horizon.as_millis() as f64 * self.stations as f64)
    }

    /// Mean system utilization (owners + foreign jobs).
    pub fn mean_system_utilization(&self) -> f64 {
        (self.local_busy.total() + self.remote_busy.total())
            / (self.horizon.as_millis() as f64 * self.stations as f64)
    }

    /// Hourly local-utilization series (fractions of fleet capacity).
    pub fn local_utilization_hourly(&self) -> Vec<f64> {
        let n = (self.horizon.as_millis() / 3_600_000) as usize;
        let cap = 3_600_000.0 * self.stations as f64;
        self.local_busy
            .bucket_totals(n)
            .into_iter()
            .map(|v| v / cap)
            .collect()
    }

    /// Hourly system-utilization series (local + remote fractions).
    pub fn system_utilization_hourly(&self) -> Vec<f64> {
        let n = (self.horizon.as_millis() / 3_600_000) as usize;
        let cap = 3_600_000.0 * self.stations as f64;
        let local = self.local_busy.bucket_totals(n);
        let remote = self.remote_busy.bucket_totals(n);
        local
            .into_iter()
            .zip(remote)
            .map(|(l, r)| (l + r) / cap)
            .collect()
    }

    /// Completed jobs only.
    pub fn completed_jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter().filter(|j| j.state == JobState::Completed)
    }
}

/// The cluster model. Most users go through [`Run`]; direct use
/// allows mid-run inspection and fault injection (see
/// [`Cluster::set_coordinator_down`]).
#[derive(Debug)]
pub struct Cluster {
    config: ClusterConfig,
    stations: Vec<Station>,
    /// Each station's owner — process, dwell stream, state, streak and
    /// idle history — parallel to `stations`.
    lanes: Vec<OwnerLane>,
    /// Next owner transition of each station that owns no queue entry,
    /// filed by poll slot.
    lazy: LazyFlips,
    jobs: Vec<Job>,
    /// The workload's jobs by arrival (stably: equal instants keep id
    /// order), planted one at a time: `arrivals[next_arrival]` is the next
    /// to be scheduled, under the sequence number `arrival_seq + id`
    /// reserved in [`Cluster::prime`]. Ids are `u32`: 2³² jobs would take
    /// most of a TiB of job table.
    arrivals: Vec<u32>,
    next_arrival: usize,
    arrival_seq: u64,
    policy: PolicyHolder,
    bus: SharedBus,
    trace: Trace,
    /// Always-on telemetry aggregation (cheap: O(1) per event).
    stats: StatsSink,
    /// Caller-attached observers, fed before the legacy trace, each with
    /// the kinds it asked for when it was attached.
    extra_sinks: Vec<(KindMask, Box<dyn TraceSink + Send>)>,
    totals: Totals,
    queue_total: StepSeries,
    /// Per-user queue series, indexed by dense user slot (see
    /// `user_ids`). Rebuilt into the `RunOutput` map at the end of a run.
    queue_by_user: Vec<StepSeries>,
    /// Distinct submitting users, ascending id; `user_slots` maps jobs
    /// onto indices of this table.
    user_ids: Vec<UserId>,
    /// Dense user slot per job (index = job id).
    user_slots: Vec<u32>,
    /// User slots whose series ever changed — only these appear in the
    /// output map, matching the old lazily-populated `BTreeMap` exactly
    /// (a user whose every job was rejected never shows up).
    user_touched: Vec<bool>,
    local_busy: BucketAccumulator,
    remote_busy: BucketAccumulator,
    coordinator_down: bool,
    /// Reverse dependency edges, keyed by prerequisite: completing job `i`
    /// may release the jobs in `dependents[&i]` (paper §5(2) pipelines /
    /// DAGs). Jobs nothing depends on have no entry.
    dependents: BTreeMap<JobId, Vec<JobId>>,
    /// Outstanding dependency count per job.
    pending_deps: Vec<u32>,
    /// Gangs currently holding stations, indexed by job id. Boxed so the
    /// common width-1 fleet pays one pointer per job, and a `Vec` (not a
    /// hash map) so iteration order is deterministic.
    gangs: Vec<Option<Box<GangState>>>,
    /// Incrementally maintained poll snapshot.
    coord: CoordCache,
    /// Live fault-injection state; `None` (no chaos schedule) keeps the
    /// chaos machinery to a single branch on the hot paths.
    chaos: Option<ChaosState>,
    /// Live replica bookkeeping for [`PolicyKind::Redundant`]; `None`
    /// (any other policy) keeps the replica machinery to a single branch
    /// on the hot paths and the trace bit-identical.
    redundancy: Option<RedundancyRuntime>,
    /// Whether resident-free stations give up their `OwnerFlip` queue
    /// entry and are folded at the poll instead (see
    /// [`Cluster::fold_owner_flips`]). Derived once, in
    /// [`Cluster::prime`]: off whenever something observes individual
    /// events or looks at idle stations at instants the poll grid cannot
    /// order against (details there).
    fold_flips: bool,
    /// Owner transitions applied by a fold rather than dispatched by the
    /// engine; added to `RunOutput::events_dispatched`.
    folded_flips: u64,
}

/// Owned polymorphic policy (kept concrete-debuggable).
#[derive(Debug)]
enum PolicyHolder {
    UpDown(UpDown),
    Fifo(FifoPolicy),
    RoundRobin(RoundRobinPolicy),
    Random(RandomPolicy),
    Frac(FracPolicy),
    /// Up-Down's orders; the replicas are the cluster's own (`replicas`).
    Redundant(UpDown),
}

impl PolicyHolder {
    fn as_dyn(&mut self) -> &mut dyn AllocationPolicy {
        match self {
            PolicyHolder::UpDown(p) | PolicyHolder::Redundant(p) => p,
            PolicyHolder::Fifo(p) => p,
            PolicyHolder::RoundRobin(p) => p,
            PolicyHolder::Random(p) => p,
            PolicyHolder::Frac(p) => p,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            PolicyHolder::UpDown(_) => "up-down",
            PolicyHolder::Fifo(_) => "fifo",
            PolicyHolder::RoundRobin(_) => "round-robin",
            PolicyHolder::Random(_) => "random",
            PolicyHolder::Frac(_) => "frac",
            PolicyHolder::Redundant(_) => "redundant",
        }
    }
}

impl Cluster {
    /// Builds a cluster from a configuration and the complete set of job
    /// submissions (arrival events are planted by [`Run::execute`] /
    /// [`Cluster::prime`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or job ids are not the dense
    /// sequence `0..n` in order; [`Cluster::try_new`] reports the same
    /// conditions as a [`ConfigError`] instead.
    pub fn new(config: ClusterConfig, specs: Vec<JobSpec>) -> Self {
        match Cluster::try_new(config, specs) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Cluster::new`]: rejects invalid configurations
    /// and malformed job sets with a typed error.
    pub fn try_new(config: ClusterConfig, specs: Vec<JobSpec>) -> Result<Self, ConfigError> {
        config.check()?;
        for (i, s) in specs.iter().enumerate() {
            if s.id.0 as usize != i {
                return Err(ConfigError::JobIdsNotDense);
            }
            if s.home.as_usize() >= config.stations {
                return Err(ConfigError::JobHomeOutsideFleet { job: s.id, home: s.home });
            }
            for dep in &s.depends_on {
                if dep.0 >= s.id.0 {
                    return Err(ConfigError::JobDependencyOrder { job: s.id, dep: *dep });
                }
            }
            if s.width == 0 {
                return Err(ConfigError::JobZeroWidth { job: s.id });
            }
            if s.width as usize > config.stations {
                return Err(ConfigError::JobWidthExceedsFleet {
                    job: s.id,
                    width: s.width as usize,
                    stations: config.stations,
                });
            }
            if s.resources.cpu_milli == 0 {
                return Err(ConfigError::JobZeroCpuDemand { job: s.id });
            }
            // Gangs coordinate whole machines; fractional members would
            // break the collective suspend/checkpoint protocol.
            if s.width > 1 && !s.resources.is_whole() {
                return Err(ConfigError::GangFractionalResources { job: s.id });
            }
        }
        let owners = build_fleet(
            config.stations,
            &config.owner,
            config.owner_heterogeneity,
            config.seed,
        );
        let root = condor_sim::rng::SimRng::seed_from(config.seed);
        let lanes = owners
            .into_iter()
            .enumerate()
            .map(|(i, owner)| {
                OwnerLane::new(owner, root.substream(config.seed, &format!("station-dwell-{i}")))
            })
            .collect();
        let stations = (0..config.stations)
            .map(|i| Station {
                queue: BackgroundQueue::default(),
                residents: Vec::new(),
                capacity: config.capacity_profiles[i % config.capacity_profiles.len()],
                disk_capacity: config.disk_capacity,
                disk_used: 0,
                detection_pending: false,
                failed: false,
                reserved_for: None,
                run_overlaps: Vec::new(),
            })
            .collect();
        let policy = match config.policy {
            PolicyKind::UpDown => PolicyHolder::UpDown(UpDown::new(UpDownConfig::default())),
            PolicyKind::Fifo => PolicyHolder::Fifo(FifoPolicy::new()),
            PolicyKind::RoundRobin => PolicyHolder::RoundRobin(RoundRobinPolicy::new()),
            PolicyKind::Random => PolicyHolder::Random(RandomPolicy::new(config.seed)),
            PolicyKind::Frac => PolicyHolder::Frac(FracPolicy::new()),
            PolicyKind::Redundant => PolicyHolder::Redundant(UpDown::new(UpDownConfig::default())),
        };
        let redundancy = (config.policy == PolicyKind::Redundant)
            .then(|| RedundancyRuntime { by_job: vec![Vec::new(); specs.len()] });
        let trace = if config.record_trace {
            Trace::new()
        } else {
            Trace::disabled()
        };
        let bus = SharedBus::new(config.bus);
        let mut dependents: BTreeMap<JobId, Vec<JobId>> = BTreeMap::new();
        let pending_deps: Vec<u32> = specs
            .iter()
            .map(|s| {
                for dep in &s.depends_on {
                    dependents.entry(*dep).or_default().push(s.id);
                }
                s.depends_on.len() as u32
            })
            .collect();
        // Intern users into dense slots so per-job bookkeeping indexes a
        // `Vec` instead of probing a map keyed by sparse user ids.
        let mut user_ids: Vec<UserId> = specs.iter().map(|s| s.user).collect();
        user_ids.sort_unstable();
        user_ids.dedup();
        let user_slots: Vec<u32> = specs
            .iter()
            .map(|s| user_ids.partition_point(|&u| u < s.user) as u32)
            .collect();
        let chaos = config
            .chaos
            .as_ref()
            .map(|c| ChaosState::new(c.clone(), config.stations, specs.len()));
        let mut cluster = Cluster {
            lazy: LazyFlips::new(config.stations, config.costs.coordinator_poll_interval),
            stations,
            lanes,
            dependents,
            pending_deps,
            gangs: specs.iter().map(|_| None).collect(),
            queue_by_user: user_ids.iter().map(|_| StepSeries::new(0.0)).collect(),
            user_touched: vec![false; user_ids.len()],
            user_ids,
            user_slots,
            jobs: specs.into_iter().map(Job::new).collect(),
            arrivals: Vec::new(),
            next_arrival: 0,
            arrival_seq: 0,
            policy,
            bus,
            trace,
            stats: StatsSink::new(),
            extra_sinks: Vec::new(),
            totals: Totals::default(),
            queue_total: StepSeries::new(0.0),
            local_busy: BucketAccumulator::new(SimDuration::HOUR),
            remote_busy: BucketAccumulator::new(SimDuration::HOUR),
            coordinator_down: false,
            coord: CoordCache::new(config.stations),
            chaos,
            redundancy,
            fold_flips: false,
            folded_flips: 0,
            config,
        };
        cluster.coord.derived = cluster.derive_coord();
        Ok(cluster)
    }

    /// Plants the initial event set: job arrivals, owner transitions, and
    /// the first coordinator poll. Call once before running the engine,
    /// after attaching every sink.
    ///
    /// This is also where the run decides whether unobserved stations keep
    /// a queue entry. A station's individual transitions matter only to a
    /// resident job (the 30-second check) or to someone recording events;
    /// otherwise the coordinator learns its state at the poll, so the
    /// station keeps just its next transition time and the poll applies
    /// what fell due (`on_poll`). That mode is off — every station stays
    /// in the queue, the classic path — when
    ///
    /// * the trace is recorded or a sink is attached: they are promised
    ///   events in simulation order;
    /// * a chaos schedule with at least one fault, or stochastic failures,
    ///   are configured: a delayed poll, the autonomy sweep and the
    ///   crash/repair chain look at idle stations (or draw from their
    ///   dwell streams) at instants whose order against a same-millisecond
    ///   transition the poll grid cannot reconstruct, so those runs do not
    ///   guess. An empty schedule plants no fault and does not count — in
    ///   a sharded run that is every pool no fault was routed to.
    ///
    /// Either way the run's result is the same: observing a run never
    /// changes it.
    pub fn prime(engine: &mut Engine<Cluster>) {
        let first_poll = SimTime::ZERO + engine.model().config.costs.coordinator_poll_interval;
        let n_jobs = engine.model().jobs.len();
        let n_stations = engine.model().stations.len();
        let fold_flips = {
            let c = engine.model();
            !c.config.record_trace
                && c.extra_sinks.is_empty()
                && c.chaos.as_ref().is_none_or(|s| s.schedule.entries.is_empty())
                && c.config.failures.is_none()
        };
        engine.model_mut().fold_flips = fold_flips;
        // Owner processes: each station's first transition.
        for i in 0..n_stations {
            let lane = &mut engine.model_mut().lanes[i];
            let at = SimTime::ZERO + lane.process.dwell_and_flip(SimTime::ZERO, &mut lane.rng);
            // A first transition on the first poll's very instant is
            // scheduled before that poll (below), so it keeps its entry
            // and the queue orders the two; see `on_poll` for the rule.
            if fold_flips && at != first_poll {
                engine.model_mut().lazy.set(i, at);
            } else {
                engine.scheduler().at(at, Event::OwnerFlip { station: i as u32 });
            }
        }
        // Arrivals take their place in the scheduling order here, as one
        // reserved block, but enter the queue one at a time: each arrival
        // plants the next, so the heap the busy events sift through holds
        // one of them, not the whole workload.
        let arrival_seq = engine.scheduler().reserve_seqs(n_jobs as u64);
        let c = engine.model_mut();
        let mut arrivals: Vec<u32> = (0..n_jobs as u32).collect();
        if !arrivals.is_sorted_by_key(|&j| c.jobs[j as usize].spec.arrival) {
            arrivals.sort_by_key(|&j| c.jobs[j as usize].spec.arrival);
        }
        c.arrivals = arrivals;
        c.arrival_seq = arrival_seq;
        if let Some((at, seq, ev)) = engine.model_mut().next_planted_arrival() {
            engine.scheduler().at_reserved(at, seq, ev);
        }
        let reservations = engine.model().config.reservations.clone();
        for (idx, r) in reservations.iter().enumerate() {
            engine
                .scheduler()
                .at(r.from, Event::ReservationStart { idx: idx as u32 });
            engine
                .scheduler()
                .at(r.until, Event::ReservationEnd { idx: idx as u32 });
        }
        if let Some(failures) = engine.model().config.failures {
            for i in 0..n_stations {
                let ttf = engine.model_mut().draw_fault_delay(i, failures.mtbf);
                engine
                    .scheduler()
                    .at(SimTime::ZERO + ttf, Event::StationCrash { station: i as u32 });
            }
        }
        // Chaos schedules are pre-expanded data: each entry plants one
        // fault event, so an empty schedule perturbs nothing at all.
        let faults: Vec<SimTime> = engine
            .model()
            .chaos
            .iter()
            .flat_map(|c| c.schedule.entries.iter().map(|e| e.at))
            .collect();
        for (idx, at) in faults.into_iter().enumerate() {
            engine.scheduler().at(at, Event::ChaosFault { idx: idx as u32 });
        }
        engine.scheduler().at(first_poll, Event::Poll);
    }

    /// The workload's next arrival and its reserved sequence number, moving
    /// the cursor past it; `None` once every arrival has been planted.
    fn next_planted_arrival(&mut self) -> Option<(SimTime, u64, Event)> {
        let &j = self.arrivals.get(self.next_arrival)?;
        self.next_arrival += 1;
        let at = self.jobs[j as usize].spec.arrival;
        Some((at, self.arrival_seq + u64::from(j), Event::Arrival(JobId(u64::from(j)))))
    }

    /// Takes the coordinator offline (`true`) or back online. While down,
    /// polls are skipped: no new placements or priority preemptions, but
    /// running jobs, owner detection, grace timers, and checkpoints proceed
    /// untouched — the paper's §2.1 failure-isolation property.
    pub fn set_coordinator_down(&mut self, down: bool) {
        self.coordinator_down = down;
    }

    /// The job table (current states mid-run).
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The telemetry summary accumulated so far. Mid-run, in a run nobody
    /// records, the owner transitions of stations that host nothing are
    /// counted up to the last poll (they are folded there); the final
    /// summary is complete.
    pub fn telemetry(&self) -> &Telemetry {
        self.stats.telemetry()
    }

    /// Attaches an additional observer of the event stream. Attach before
    /// [`Cluster::prime`]: a sink present at `prime` keeps every station in
    /// the event queue and sees every event in simulation order; one
    /// attached later misses the owner transitions of stations that host
    /// nothing (they are folded at the poll, unseen). `finish` runs when
    /// the cluster finalizes. Use a
    /// [`SharedSink`](crate::telemetry::SharedSink) handle to keep access
    /// to the sink after the run.
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink + Send>) {
        self.extra_sinks.push((sink.interest(), sink));
    }

    /// Routes one event through every observer: the always-on stats sink,
    /// caller-attached sinks, then the legacy trace.
    fn emit(&mut self, at: SimTime, kind: TraceKind) {
        let ev = TraceEvent { at, kind };
        self.stats.record(&ev);
        if !self.extra_sinks.is_empty() {
            self.emit_extra(&ev);
        }
        self.trace.record(at, kind);
    }

    /// The attached-observer fan-out, out of line so the common
    /// no-extra-sinks emit path stays branch-and-return small.
    #[cold]
    fn emit_extra(&mut self, ev: &TraceEvent) {
        for (interest, s) in &mut self.extra_sinks {
            if interest.contains(&ev.kind) {
                s.record(ev);
            }
        }
    }

    /// Routes one gauge sample through every observer.
    fn emit_sample(&mut self, s: GaugeSample) {
        self.stats.sample(&s);
        for (interest, sink) in &mut self.extra_sinks {
            if interest.samples() {
                sink.sample(&s);
            }
        }
    }

    /// Aggregate counters so far.
    pub fn totals(&self) -> &Totals {
        &self.totals
    }

    /// The Up-Down schedule index of a station, if the Up-Down policy is in
    /// force.
    pub fn updown_index(&self, node: NodeId) -> Option<f64> {
        match &self.policy {
            PolicyHolder::UpDown(p) | PolicyHolder::Redundant(p) => Some(p.index_of(node)),
            _ => None,
        }
    }

    /// The architecture of station `i` under the configured pattern.
    pub fn station_arch(&self, i: usize) -> condor_model::station::Arch {
        self.config.arch_pattern[i % self.config.arch_pattern.len()]
    }

    // ----- queue-length bookkeeping -------------------------------------

    fn queue_delta(&mut self, now: SimTime, job: JobId, delta: f64) {
        self.queue_total.add(now, delta);
        let slot = self.user_slots[job.0 as usize] as usize;
        self.user_touched[slot] = true;
        self.queue_by_user[slot].add(now, delta);
    }

    // ----- pool-shard support -------------------------------------------

    /// Capacity summary for window-barrier forwarding decisions:
    /// `(free_stations, waiting_jobs)` after refreshing the coordinator
    /// cache. Free stations are those the coordinator could place on right
    /// now; waiting jobs is the raw queued total across the shard.
    ///
    /// `barrier` is the window barrier's instant. Events at that instant
    /// have not been delivered yet, so lazily tracked stations are folded
    /// up to — excluding — it first: the free count must be the one the
    /// fully queued run has between the two windows.
    pub(crate) fn capacity_snapshot(&mut self, barrier: SimTime) -> (u32, u32) {
        self.fold_owner_flips(barrier);
        self.flush_dirty();
        (self.coord.derived.free_bits.count(), self.coord.derived.raw_queue_total)
    }

    /// Pulls one forwardable job out of this shard's queues for delivery
    /// to `to_pool`, or `None` if nothing movable is waiting.
    ///
    /// Only simple jobs move: queued, width 1, no dependency edges in
    /// either direction, and never placed (no work accrued, no image in
    /// flight). The job leaves its local queue, frees the standing image
    /// on its home disk, and its state becomes [`JobState::Forwarded`];
    /// the returned spec is everything the destination pool needs to
    /// adopt it.
    pub(crate) fn extract_forwardable(&mut self, now: SimTime, to_pool: u32) -> Option<JobSpec> {
        // Longest raw queue first (ties: lowest station id) so forwarding
        // relieves the most backed-up corner of the shard.
        let src = (0..self.stations.len())
            .max_by_key(|&i| (self.stations[i].queue.len(), std::cmp::Reverse(i)))?;
        let job = self.stations[src].queue.iter().find(|j| {
            let job = &self.jobs[j.0 as usize];
            job.state == JobState::Queued
                && job.spec.width == 1
                && job.spec.depends_on.is_empty()
                && !self.dependents.contains_key(j)
                && job.work_done.is_zero()
                && job.placements == 0
                // A job with live replicas must finish (or cancel them)
                // in this pool; forwarding it would orphan the copies.
                && self
                    .redundancy
                    .as_ref()
                    .is_none_or(|r| r.by_job[j.0 as usize].is_empty())
        })?;
        self.stations[src].queue.remove(job);
        let image = self.jobs[job.0 as usize].spec.image_bytes;
        if !self.config.checkpoint_server {
            self.stations[src].disk_used = self.stations[src].disk_used.saturating_sub(image);
        }
        self.jobs[job.0 as usize].state = JobState::Forwarded;
        self.coord.mark(src);
        self.queue_delta(now, job, -1.0);
        self.totals.jobs_forwarded += 1;
        self.emit(now, TraceKind::JobForwarded { job, to_pool });
        Some(self.jobs[job.0 as usize].spec.clone())
    }

    /// Registers a job forwarded from another pool. Returns the local id
    /// the job arrives under; the caller schedules the arrival event at
    /// the delivery instant. The shortest local queue (ties: lowest
    /// station id) becomes the job's new home.
    pub(crate) fn adopt_spec(&mut self, spec: JobSpec) -> JobId {
        let local = JobId(self.jobs.len() as u64);
        // Prefer a home whose capacity can ever grant the job's demand —
        // a fractional fleet may mix machine sizes — falling back to the
        // plain shortest queue when nothing in this shard fits.
        let home = (0..self.stations.len())
            .filter(|&i| spec.resources.fits(self.stations[i].capacity))
            .min_by_key(|&i| (self.stations[i].queue.len(), i))
            .or_else(|| (0..self.stations.len()).min_by_key(|&i| (self.stations[i].queue.len(), i)))
            .expect("shard has stations");
        let slot = match self.user_ids.binary_search(&spec.user) {
            Ok(pos) => pos,
            Err(pos) => {
                // A user this shard has never seen: splice a new dense
                // slot in and shift every existing mapping above it.
                self.user_ids.insert(pos, spec.user);
                self.queue_by_user.insert(pos, StepSeries::new(0.0));
                self.user_touched.insert(pos, false);
                for s in &mut self.user_slots {
                    if *s as usize >= pos {
                        *s += 1;
                    }
                }
                pos
            }
        };
        self.user_slots.push(slot as u32);
        let spec =
            JobSpec { id: local, home: NodeId::new(home as u32), depends_on: Vec::new(), ..spec };
        let mut job = Job::new(spec);
        job.adopted = true;
        self.jobs.push(job);
        self.pending_deps.push(0);
        self.gangs.push(None);
        if let Some(c) = self.chaos.as_mut() {
            c.retry_attempts.push(0);
        }
        if let Some(r) = self.redundancy.as_mut() {
            r.by_job.push(Vec::new());
        }
        local
    }

    /// Closes open accounting intervals at the end of observation.
    fn finalize(&mut self, horizon: SimTime) {
        // Transitions strictly before the horizon happened; one due at the
        // horizon itself would not have been delivered either.
        self.fold_owner_flips(horizon);
        // Horizon cut: every live replica dies unfinished and its progress
        // is wasted — conservation demands the books close on them before
        // the sinks do. No scheduler exists any more, and none is needed:
        // pending events will never fire.
        let live_replicas: Vec<(JobId, u32)> = self
            .redundancy
            .iter()
            .flat_map(|r| r.by_job.iter().enumerate())
            .flat_map(|(j, stations)| stations.iter().map(move |&s| (JobId(j as u64), s)))
            .collect();
        for (job, s) in live_replicas {
            self.cancel_replica(horizon, s as usize, job, None);
        }
        // Running gangs: accrue and deposit each member's utilization.
        // `gangs` is a job-indexed Vec, so this iteration is deterministic.
        let running_gangs: Vec<(JobId, Vec<u32>)> = self
            .gangs
            .iter()
            .enumerate()
            .filter_map(|(j, g)| Some((JobId(j as u64), g.as_deref().filter(|g| g.running)?.members.clone())))
            .collect();
        for (job, members) in running_gangs {
            if self.jobs[job.0 as usize].running_since < horizon {
                self.close_run_segment(horizon, job, &members, SegmentEnd::Interrupted);
                self.jobs[job.0 as usize].running_since = horizon;
            }
        }
        for i in 0..self.stations.len() {
            let running_jobs: Vec<JobId> = self.stations[i]
                .residents
                .iter()
                .filter_map(|slot| matches!(slot.phase, Phase::Running { .. }).then_some(slot.job))
                .collect();
            for job in running_jobs {
                if self.jobs[job.0 as usize].running_since < horizon {
                    // An owner who returned inside the last, not-yet-detected
                    // window owns the tail: the deposit stops at their return.
                    self.close_run_segment(horizon, job, &[i as u32], SegmentEnd::Interrupted);
                    self.jobs[job.0 as usize].running_since = horizon;
                }
            }
            if let Some(t) = self.lanes[i].active_since().filter(|&t| t < horizon) {
                self.local_busy
                    .deposit_interval(t, horizon, horizon.since(t).as_millis() as f64);
            }
        }
        self.stats.finish(horizon);
        for (_, s) in &mut self.extra_sinks {
            s.finish(horizon);
        }
    }
}

impl Model for Cluster {
    type Event = Event;

    fn handle(&mut self, now: SimTime, ev: Event, sched: &mut Scheduler<Event>) {
        match ev {
            Event::Arrival(job) => {
                // A forwarded job's arrival was scheduled by the sharded
                // runner; the workload's own each plant the next.
                if !self.jobs[job.0 as usize].adopted {
                    if let Some((at, seq, ev)) = self.next_planted_arrival() {
                        sched.at_reserved(at, seq, ev);
                    }
                }
                self.on_arrival(now, job)
            }
            Event::OwnerFlip { station } => self.on_owner_flip(now, station, sched),
            Event::DetectOwner { station } => self.on_detect_owner(now, station, sched),
            Event::Poll => self.on_poll(now, sched),
            Event::PlacementDone { job, target, seq } => {
                self.on_placement_done(now, job, target, seq, sched)
            }
            Event::CheckpointDone { job, from, seq } => {
                self.on_checkpoint_done(now, job, from, seq, sched)
            }
            Event::Finish { job, on } => self.on_finish(now, job, on, sched),
            Event::GraceOver { station, job } => self.on_grace_over(now, station, job, sched),
            Event::PeriodicCkpt { job, on, epoch } => {
                self.on_periodic_ckpt(now, job, on, epoch, sched)
            }
            Event::ReservationStart { idx } => self.on_reservation_start(now, idx, sched),
            Event::ReservationEnd { idx } => self.on_reservation_end(now, idx),
            Event::StationCrash { station } => self.on_station_crash(now, station, sched),
            Event::StationRecover { station } => self.on_station_recover(now, station, sched),
            Event::ChaosFault { idx } => self.on_chaos_fault(now, idx, sched),
            Event::ChaosHeal { idx } => self.on_chaos_heal(now, idx),
            Event::ChaosDelayedPoll { delay_ms } => {
                self.on_chaos_delayed_poll(now, delay_ms, sched)
            }
            Event::ChaosAutonomySweep => self.on_chaos_autonomy_sweep(now, sched),
            Event::ChaosCkptRetry { job, from, seq } => {
                self.on_chaos_ckpt_retry(now, job, from, seq, sched)
            }
            Event::ReplicaPlaced { job, target } => {
                self.on_replica_placed(now, job, target, sched)
            }
            Event::ReplicaFinish { job, on } => self.on_replica_finish(now, job, on, sched),
        }
    }
}

/// Unified entry point for executing a simulation.
///
/// Configure what you need, then call [`execute`](Run::execute). A config
/// carrying a
/// [`PoolTopology`](crate::config::PoolTopology) runs on the sharded
/// space-parallel engine (worker count from [`threads`](Run::threads), or
/// `CONDOR_THREADS` when unset); otherwise the run is serial.
///
/// # Examples
///
/// ```
/// use condor_core::cluster::Run;
/// use condor_core::config::ClusterConfig;
/// use condor_core::job::{JobId, JobSpec, UserId};
/// use condor_net::NodeId;
/// use condor_sim::time::{SimDuration, SimTime};
///
/// let spec = JobSpec::new(
///     JobId(0),
///     UserId(0),
///     NodeId::new(0),
///     SimTime::from_hours(1),
///     SimDuration::from_hours(2),
/// );
/// let out = Run::new(ClusterConfig::default())
///     .specs(vec![spec])
///     .horizon(SimDuration::from_days(2))
///     .execute();
/// assert_eq!(out.jobs.len(), 1);
/// ```
///
/// Streaming observers attach with [`sink`](Run::sink); keep a
/// [`SharedSink`](crate::telemetry::SharedSink) handle to read one back
/// after the run:
///
/// ```
/// use condor_core::cluster::Run;
/// use condor_core::config::ClusterConfig;
/// use condor_core::telemetry::{SharedSink, VecSink};
/// use condor_sim::time::SimDuration;
///
/// let events = SharedSink::new(VecSink::new());
/// let config = ClusterConfig { stations: 4, record_trace: false, ..ClusterConfig::default() };
/// let out = Run::new(config)
///     .horizon(SimDuration::from_hours(6))
///     .sink(Box::new(events.clone()))
///     .execute();
/// // The sink saw the owner activity even though the trace was off.
/// assert_eq!(events.with(|s| s.len()) as u64, out.telemetry.events_total);
/// ```
pub struct Run {
    config: ClusterConfig,
    specs: Vec<JobSpec>,
    horizon: SimDuration,
    sinks: Vec<Box<dyn TraceSink + Send>>,
    threads: Option<usize>,
}

impl std::fmt::Debug for Run {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Run")
            .field("stations", &self.config.stations)
            .field("specs", &self.specs.len())
            .field("horizon", &self.horizon)
            .field("sinks", &self.sinks.len())
            .field("threads", &self.threads)
            .finish()
    }
}

impl Run {
    /// Starts a run description over `config` with no jobs, no sinks, and a
    /// zero horizon (set one with [`horizon`](Run::horizon) or the run ends
    /// immediately).
    pub fn new(config: ClusterConfig) -> Self {
        Run {
            config,
            specs: Vec::new(),
            horizon: SimDuration::ZERO,
            sinks: Vec::new(),
            threads: None,
        }
    }

    /// Sets the workload submitted to the cluster.
    pub fn specs(mut self, specs: Vec<JobSpec>) -> Self {
        self.specs = specs;
        self
    }

    /// Sets how long the simulation runs.
    pub fn horizon(mut self, horizon: SimDuration) -> Self {
        self.horizon = horizon;
        self
    }

    /// Attaches a streaming [`TraceSink`] observer before the first event.
    /// May be called repeatedly; sinks see events in emit order.
    pub fn sink(mut self, sink: Box<dyn TraceSink + Send>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Pins the sharded engine to exactly `threads` worker threads instead
    /// of reading `CONDOR_THREADS`. The config must carry a
    /// [`PoolTopology`](crate::config::PoolTopology).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Builds, primes, and runs the cluster, returning the complete output.
    pub fn execute(self) -> RunOutput {
        let Run { config, specs, horizon, sinks, threads } = self;
        if let Some(topo) = config.topology.clone() {
            return crate::shard::run_sharded(config, topo, specs, horizon, sinks, threads);
        }
        assert!(threads.is_none(), "Run::threads requires a pool topology on the config");
        let mut cluster = Cluster::new(config, specs);
        for sink in sinks {
            cluster.attach_sink(sink);
        }
        let mut engine = Engine::new(cluster);
        Cluster::prime(&mut engine);
        let end = SimTime::ZERO + horizon;
        engine.run_until(end);
        finish_run(engine, end)
    }
}

/// Drains a finished engine into a [`RunOutput`]: closes open accounting
/// intervals at `end` and re-keys the per-user series. Shared by the
/// serial runner and each shard of the parallel runner.
pub(crate) fn finish_run(engine: Engine<Cluster>, end: SimTime) -> RunOutput {
    let dispatched = engine.events_dispatched();
    let mut model = engine.into_model();
    model.finalize(end);
    let events_dispatched = dispatched + model.folded_flips;
    let policy_name = model.policy.name().to_string();
    // Re-key the dense per-user-slot series by user id. Only touched slots
    // appear, matching the old lazily-populated map: a user whose every
    // job was rejected at submission never shows up.
    let queue_by_user: BTreeMap<UserId, StepSeries> = model
        .user_ids
        .iter()
        .zip(model.queue_by_user)
        .zip(&model.user_touched)
        .filter_map(|((user, series), touched)| touched.then_some((*user, series)))
        .collect();
    RunOutput {
        policy_name,
        stations: model.config.stations,
        horizon: end,
        bus_bytes_moved: model.bus.bytes_moved(),
        bus_transfers: model.bus.transfers_booked(),
        jobs: model.jobs,
        trace: model.trace,
        totals: model.totals,
        queue_total: model.queue_total,
        queue_by_user,
        local_busy: model.local_busy,
        remote_busy: model.remote_busy,
        events_dispatched,
        telemetry: model.stats.into_telemetry(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An owner who came back inside the last, not-yet-detected window is
    /// billed once: `[return, horizon)` belongs to the owner alone, so the
    /// final bucket never holds more than one station's worth of time.
    #[test]
    fn finalize_caps_a_running_job_at_an_undetected_owner_return() {
        let job = JobId(0);
        let spec = JobSpec::new(
            job,
            UserId(0),
            NodeId::new(0),
            SimTime::ZERO,
            SimDuration::from_hours(5),
        );
        let config = ClusterConfig { stations: 1, ..ClusterConfig::default() };
        let mut engine = Engine::new(Cluster::try_new(config, vec![spec]).expect("valid config"));
        let horizon = SimTime::ZERO + SimDuration::from_minutes(50);
        let owner_back = horizon - SimDuration::from_secs(20);
        // Hand-built state: the job has run since t = 0 and the owner sat
        // down 20 s before the horizon, inside the 30 s detection grid.
        let finish = engine.scheduler().at(SimTime::from_hours(5), Event::Finish { job, on: 0 });
        let c = engine.model_mut();
        c.occupy(0, job, Phase::Running { finish });
        c.jobs[0].state = JobState::Running { on: NodeId::new(0) };
        c.lanes[0].state = condor_model::owner::OwnerState::Active;
        c.lanes[0].since = owner_back;

        let out = finish_run(engine, horizon);
        let (local, remote) = (out.local_busy.total(), out.remote_busy.total());
        assert_eq!(local, 20_000.0, "the owner's 20 s");
        assert_eq!(remote, owner_back.as_millis() as f64, "the job's share stops at the return");
        assert!(local + remote <= horizon.as_millis() as f64, "one station, one station's time");
        // The job itself still accrued every background cycle it received.
        assert_eq!(out.jobs[0].work_done, SimDuration::from_minutes(50));
    }
}
