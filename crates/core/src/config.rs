//! Cluster configuration.

use condor_model::costs::CostModel;
use condor_model::owner::{check_spread, OwnerConfig, OwnerConfigError};
use condor_model::station::{Arch, ResourceVec};
use condor_net::{BusConfig, NodeId};
use condor_sim::time::{SimDuration, SimTime};

use crate::chaos::ChaosSchedule;
use crate::job::JobId;

/// Why a configuration (or the job set submitted with it) is invalid.
///
/// Produced by [`ClusterConfig::check`], [`FailureConfig::check`],
/// [`Reservation::check`], and
/// [`Cluster::try_new`](crate::cluster::Cluster::try_new).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `stations` is zero.
    NoStations,
    /// `placements_per_poll` is zero.
    ZeroPlacementsPerPoll,
    /// The coordinator poll interval is zero.
    ZeroPollInterval,
    /// Immediate-kill eviction with a zero periodic-checkpoint interval.
    ZeroPeriodicCheckpoint,
    /// Failure injection with a zero mean time between failures.
    ZeroMtbf,
    /// Failure injection with a zero mean time to repair.
    ZeroMttr,
    /// An owner parameter (`owner` or `owner_heterogeneity`) outside its
    /// range.
    Owner(OwnerConfigError),
    /// `arch_pattern` is empty.
    EmptyArchPattern,
    /// `capacity_profiles` is empty.
    EmptyCapacityProfiles,
    /// A capacity profile with zero CPU — such a station could never host
    /// anything, which is always a configuration mistake (fence stations
    /// with reservations or failures instead).
    CapacityProfileZeroCpu {
        /// Index of the offending profile in `capacity_profiles`.
        index: usize,
    },
    /// A job demanding zero CPU — it would never make progress.
    JobZeroCpuDemand {
        /// The job.
        job: JobId,
    },
    /// A gang (`width > 1`) with a fractional resource demand; gangs
    /// coordinate whole machines and cannot share them.
    GangFractionalResources {
        /// The job.
        job: JobId,
    },
    /// A reservation fences zero machines.
    ReservationZeroMachines,
    /// A reservation window with `from >= until`.
    ReservationEmptyWindow,
    /// A reservation whose holder does not index a station.
    ReservationHolderOutsideFleet {
        /// The configured holder.
        holder: NodeId,
    },
    /// A reservation fencing every machine in the fleet (or more).
    ReservationWholeFleet {
        /// Machines the reservation asked for.
        machines: usize,
        /// Fleet size.
        stations: usize,
    },
    /// Submitted job ids are not `0, 1, 2, …` in order.
    JobIdsNotDense,
    /// A job's home station does not exist.
    JobHomeOutsideFleet {
        /// The job.
        job: JobId,
        /// Its configured home.
        home: NodeId,
    },
    /// A job depends on a job with an equal or higher id.
    JobDependencyOrder {
        /// The job.
        job: JobId,
        /// The offending dependency.
        dep: JobId,
    },
    /// A job requests zero machines.
    JobZeroWidth {
        /// The job.
        job: JobId,
    },
    /// A job requests more machines than the fleet has.
    JobWidthExceedsFleet {
        /// The job.
        job: JobId,
        /// Machines requested.
        width: usize,
        /// Fleet size.
        stations: usize,
    },
    /// Chaos schedule entries are not sorted by injection time.
    ChaosScheduleUnsorted,
    /// A chaos fault with a zero-length window or delay.
    ChaosZeroDuration,
    /// A chaos partition cutting off zero machines.
    ChaosPartitionZeroMachines,
    /// A chaos partition naming stations outside the fleet.
    ChaosPartitionOutsideFleet {
        /// First station in the partitioned range.
        first_station: u32,
        /// Number of stations cut off.
        machines: u32,
        /// Fleet size.
        stations: usize,
    },
    /// A pool topology with zero pools.
    TopologyNoPools,
    /// A pool topology with more pools than stations.
    TopologyMorePoolsThanStations {
        /// Pools requested.
        pools: usize,
        /// Fleet size.
        stations: usize,
    },
    /// A pool topology with a zero inter-pool latency, which leaves no
    /// lookahead for the synchronisation window.
    TopologyZeroLatency,
    /// A pool topology whose synchronisation window exceeds the inter-pool
    /// link latency — the conservative lookahead bound would be violated.
    TopologyWindowExceedsLookahead {
        /// The configured window.
        window: SimDuration,
        /// The inter-pool latency (the lookahead bound).
        lookahead: SimDuration,
    },
    /// A job depends on a job homed in a different pool; cross-pool
    /// dependency release is not part of the sharded model.
    TopologyCrossPoolDependency {
        /// The dependent job.
        job: JobId,
        /// The dependency in another pool.
        dep: JobId,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoStations => f.write_str("a cluster needs at least one station"),
            ConfigError::ZeroPlacementsPerPoll => {
                f.write_str("placements_per_poll must be positive")
            }
            ConfigError::ZeroPollInterval => f.write_str("zero poll interval"),
            ConfigError::ZeroPeriodicCheckpoint => {
                f.write_str("zero periodic-checkpoint interval")
            }
            ConfigError::ZeroMtbf => f.write_str("zero MTBF"),
            ConfigError::ZeroMttr => f.write_str("zero MTTR"),
            ConfigError::Owner(e) => write!(f, "owner process: {e}"),
            ConfigError::EmptyArchPattern => f.write_str("empty architecture pattern"),
            ConfigError::EmptyCapacityProfiles => f.write_str("empty capacity-profile pattern"),
            ConfigError::CapacityProfileZeroCpu { index } => {
                write!(f, "capacity profile {index} has zero CPU")
            }
            ConfigError::JobZeroCpuDemand { job } => {
                write!(f, "job {} demands zero CPU", job.0)
            }
            ConfigError::GangFractionalResources { job } => {
                write!(
                    f,
                    "job {} is a gang with a fractional resource demand — gangs need whole machines",
                    job.0
                )
            }
            ConfigError::ReservationZeroMachines => f.write_str("zero-machine reservation"),
            ConfigError::ReservationEmptyWindow => f.write_str("empty reservation window"),
            ConfigError::TopologyNoPools => f.write_str("a pool topology needs at least one pool"),
            ConfigError::TopologyMorePoolsThanStations { pools, stations } => {
                write!(f, "{pools} pools cannot partition {stations} stations")
            }
            ConfigError::TopologyZeroLatency => {
                f.write_str("zero inter-pool latency gives no lookahead")
            }
            ConfigError::TopologyWindowExceedsLookahead { window, lookahead } => write!(
                f,
                "synchronisation window {window} exceeds the {lookahead} inter-pool \
                 lookahead bound"
            ),
            ConfigError::TopologyCrossPoolDependency { job, dep } => write!(
                f,
                "{job} depends on {dep}, which is homed in a different pool"
            ),
            ConfigError::ReservationHolderOutsideFleet { holder } => {
                write!(f, "reservation holder {holder} outside the fleet")
            }
            ConfigError::ReservationWholeFleet { machines, stations } => {
                write!(f, "cannot reserve the entire fleet ({machines} of {stations})")
            }
            ConfigError::JobIdsNotDense => f.write_str("job ids must be dense and ordered"),
            ConfigError::JobHomeOutsideFleet { job, home } => {
                write!(f, "job {} homed at nonexistent station {home}", job.0)
            }
            ConfigError::JobDependencyOrder { job, dep } => {
                write!(
                    f,
                    "job {} depends on {} — dependencies must reference lower ids",
                    job.0, dep.0
                )
            }
            ConfigError::JobZeroWidth { job } => write!(f, "job {} has zero width", job.0),
            ConfigError::JobWidthExceedsFleet { job, width, stations } => {
                write!(
                    f,
                    "job {} needs {width} machines but the fleet has {stations}",
                    job.0
                )
            }
            ConfigError::ChaosScheduleUnsorted => {
                f.write_str("chaos schedule entries must be sorted by time")
            }
            ConfigError::ChaosZeroDuration => {
                f.write_str("chaos fault with a zero duration or delay")
            }
            ConfigError::ChaosPartitionZeroMachines => {
                f.write_str("chaos partition cuts off zero machines")
            }
            ConfigError::ChaosPartitionOutsideFleet { first_station, machines, stations } => {
                write!(
                    f,
                    "chaos partition [{first_station}, {}) outside the {stations}-station fleet",
                    first_station + machines
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Stochastic station-failure injection.
///
/// The paper's §1 requirement: *"if a remote site running a background job
/// fails, the job should be restarted automatically at some other location
/// to guarantee job completion."* With failures enabled, each station
/// crashes after an exponential time-to-failure and recovers after an
/// exponential repair time; a crash destroys the foreign image on that
/// station (the job restarts from its last checkpoint at home) and freezes
/// the station's own queue until recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureConfig {
    /// Mean time between failures per station.
    pub mtbf: SimDuration,
    /// Mean time to repair.
    pub mttr: SimDuration,
}

impl FailureConfig {
    /// Checks the configuration, rejecting zero means.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.mtbf.is_zero() {
            return Err(ConfigError::ZeroMtbf);
        }
        if self.mttr.is_zero() {
            return Err(ConfigError::ZeroMttr);
        }
        Ok(())
    }
}

/// An advance reservation of remote capacity (paper §5, future-work item
/// 3: "Reservations guarantee computing capacity for users in advance in
/// order to conduct experiments in distributed computations").
///
/// During the window, up to `machines` stations are *fenced* for the
/// holder: foreign jobs of other users are evicted at the start, and only
/// the holder's queue may be served on fenced machines. Owners always keep
/// absolute priority — a fenced machine whose owner sits down is still
/// surrendered immediately, exactly like any other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reservation {
    /// The station whose queue the reserved capacity serves.
    pub holder: NodeId,
    /// Number of machines to fence.
    pub machines: usize,
    /// Window start.
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl Reservation {
    /// Checks the reservation against a fleet of `stations` machines.
    pub fn check(&self, stations: usize) -> Result<(), ConfigError> {
        if self.machines == 0 {
            return Err(ConfigError::ReservationZeroMachines);
        }
        if self.from >= self.until {
            return Err(ConfigError::ReservationEmptyWindow);
        }
        if self.holder.as_usize() >= stations {
            return Err(ConfigError::ReservationHolderOutsideFleet { holder: self.holder });
        }
        if self.machines >= stations {
            return Err(ConfigError::ReservationWholeFleet { machines: self.machines, stations });
        }
        Ok(())
    }
}

/// What happens when a workstation owner returns while a foreign job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EvictionStrategy {
    /// The 1988 implementation (paper §4): stop the job in place and wait
    /// out a grace period; if the owner is still active when it expires,
    /// checkpoint and move. No work is ever lost, but the job's image
    /// occupies the owner's disk during the grace window.
    GraceThenCheckpoint {
        /// How long to wait before vacating (paper: 5 minutes).
        grace: SimDuration,
    },
    /// The §4 alternative the authors were considering: kill the job
    /// immediately (minimal owner interference) and rely on periodic
    /// checkpoints; work since the last checkpoint is redone.
    ImmediateKill {
        /// Interval between periodic while-running checkpoints.
        checkpoint_every: SimDuration,
    },
}

impl Default for EvictionStrategy {
    fn default() -> Self {
        EvictionStrategy::GraceThenCheckpoint {
            grace: SimDuration::from_minutes(5),
        }
    }
}

/// Which allocation policy the coordinator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// The paper's Up-Down algorithm.
    #[default]
    UpDown,
    /// First-come-first-served over stations; no preemption.
    Fifo,
    /// Round-robin over demanding stations; no preemption.
    RoundRobin,
    /// Uniformly random demanding station; no preemption.
    Random,
    /// Capacity-aware best-fit packing for fractional workloads: serves
    /// requesting stations first-come-first-served but targets the free
    /// station with the *least* free CPU that still has any, packing
    /// residents together and keeping whole machines open for whole-demand
    /// jobs. No preemption.
    Frac,
    /// Up-Down plus speculative replicas under cancel-on-first-finish
    /// (see the `replicas` module of [`crate::cluster`]). Primary
    /// placements, preemptions and the fairness index are Up-Down's.
    Redundant,
}

/// Full configuration of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of workstations (the paper observed 23).
    pub stations: usize,
    /// Master seed; every stochastic component derives a substream.
    pub seed: u64,
    /// The coordinator's allocation policy.
    pub policy: PolicyKind,
    /// Control-plane intervals and per-operation costs.
    pub costs: CostModel,
    /// Owner-return handling.
    pub eviction: EvictionStrategy,
    /// Owner-activity process parameters (shared base; stations get
    /// heterogeneous scales via `owner_heterogeneity`).
    pub owner: OwnerConfig,
    /// Spread of per-station activity scales (0 = identical owners).
    pub owner_heterogeneity: f64,
    /// Disk bytes each station has for foreign checkpoint and executable
    /// images.
    pub disk_capacity: u64,
    /// Network parameters.
    pub bus: BusConfig,
    /// Maximum placements started per coordinator poll (paper §4: one).
    pub placements_per_poll: usize,
    /// Prefer placement targets with the longest expected idle periods
    /// (paper §5 future-work item 1).
    pub history_aware_placement: bool,
    /// Optional stochastic station failures (None = stations never fail).
    pub failures: Option<FailureConfig>,
    /// Architecture of each station, cycled over the fleet (station `i`
    /// has `arch_pattern[i % len]`). The 1988 fleet is all-VAX
    /// (`vec![Arch::Vax]`); a mixed pattern reproduces the §5(4) planned
    /// SUN port, where placement must respect job binaries.
    pub arch_pattern: Vec<Arch>,
    /// Capacity vector of each station, cycled over the fleet (station `i`
    /// has `capacity_profiles[i % len]`), mirroring `arch_pattern`. The
    /// default — `vec![ResourceVec::WHOLE]` — gives every station exactly
    /// one whole machine, which together with whole-machine job demands
    /// reproduces the legacy single-occupancy model bit for bit.
    pub capacity_profiles: Vec<ResourceVec>,
    /// Store checkpoint files on a dedicated checkpoint server instead of
    /// the submitting workstation's disk (the §4 disk-server idea). The
    /// server has unbounded capacity, so home disks only gate the number
    /// of *executable* images, not standing checkpoints.
    pub checkpoint_server: bool,
    /// Advance capacity reservations (paper §5(3)).
    pub reservations: Vec<Reservation>,
    /// Record the full event trace (disable for huge benchmark runs).
    pub record_trace: bool,
    /// Optional deterministic fault injection (see [`crate::chaos`]).
    /// `None` — and `Some` with an empty schedule — leave the run
    /// bit-identical to an unconfigured one.
    pub chaos: Option<ChaosSchedule>,
    /// Optional pool topology. `None` runs the classic monolithic
    /// simulation; `Some` partitions the fleet into per-pool shards that
    /// run as a conservative space-parallel simulation (see
    /// [`crate::shard`]). A one-pool topology is bit-identical to `None`.
    pub topology: Option<PoolTopology>,
}

/// Partition of the fleet into independently simulated pools.
///
/// Stations are split into `pools` contiguous, near-equal ranges; each
/// pool gets its own coordinator, queues, and event wheel. Pools exchange
/// cross-shard traffic (overflow job forwards) only at synchronisation
/// barriers, and any message sent at a barrier arrives no earlier than the
/// inter-pool `latency` later — which is what lets shards advance one
/// window ahead of each other without risk of causality violations.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolTopology {
    /// Number of pools the fleet is split into.
    pub pools: usize,
    /// One-way latency of every link between two pool coordinators; it
    /// bounds the lookahead.
    pub latency: SimDuration,
    /// Synchronisation-window length. `None` uses the full lookahead
    /// (`latency`); an explicit value must not exceed it.
    pub window: Option<SimDuration>,
    /// Cap on overflow jobs a saturated pool may forward to an idle pool
    /// at each barrier. Zero disables cross-pool forwarding entirely.
    pub max_forwards_per_window: u32,
}

impl PoolTopology {
    /// A uniform mesh: `pools` pools, one `latency` on every inter-pool
    /// link, window equal to the lookahead, one forward per barrier.
    pub fn uniform(pools: usize, latency: SimDuration) -> Self {
        PoolTopology {
            pools,
            latency,
            window: None,
            max_forwards_per_window: 1,
        }
    }

    /// The effective synchronisation window: the explicit `window` if set,
    /// otherwise the full conservative lookahead.
    pub fn effective_window(&self) -> SimDuration {
        self.window.unwrap_or(self.latency)
    }

    /// The station-index range owned by pool `pool` when partitioning
    /// `stations` stations: contiguous ranges, sizes differing by at most
    /// one, earlier pools taking the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `pool >= self.pools`.
    pub fn range(&self, pool: usize, stations: usize) -> std::ops::Range<usize> {
        assert!(pool < self.pools, "pool {pool} out of range");
        let base = stations / self.pools;
        let rem = stations % self.pools;
        let start = pool * base + pool.min(rem);
        let len = base + usize::from(pool < rem);
        start..start + len
    }

    /// The pool owning global station index `station`.
    ///
    /// # Panics
    ///
    /// Panics if `station >= stations`.
    pub fn pool_of(&self, station: usize, stations: usize) -> usize {
        assert!(station < stations, "station {station} outside the fleet");
        let base = stations / self.pools;
        let rem = stations % self.pools;
        let fat = rem * (base + 1); // stations held by the larger pools
        if station < fat {
            station / (base + 1)
        } else {
            rem + (station - fat) / base.max(1)
        }
    }

    /// Checks the topology against a fleet size.
    pub fn check(&self, stations: usize) -> Result<(), ConfigError> {
        if self.pools == 0 {
            return Err(ConfigError::TopologyNoPools);
        }
        if self.pools > stations {
            return Err(ConfigError::TopologyMorePoolsThanStations {
                pools: self.pools,
                stations,
            });
        }
        if self.latency.is_zero() {
            return Err(ConfigError::TopologyZeroLatency);
        }
        if let Some(w) = self.window {
            // A zero window would never make progress; report it through
            // the same lookahead-bound error (an empty window is outside
            // the valid (0, lookahead] interval on both ends).
            if w.is_zero() || w > self.latency {
                return Err(ConfigError::TopologyWindowExceedsLookahead {
                    window: w,
                    lookahead: self.latency,
                });
            }
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            stations: 23,
            seed: 1988,
            policy: PolicyKind::default(),
            costs: CostModel::default(),
            eviction: EvictionStrategy::default(),
            owner: OwnerConfig::default(),
            owner_heterogeneity: 0.4,
            // Enough scratch for a heavy user's standing queue of
            // half-megabyte images (the paper's users were occasionally
            // disk-limited, but Table 1's 918 jobs were all admitted).
            disk_capacity: 100_000_000,
            bus: BusConfig::default(),
            placements_per_poll: 1,
            history_aware_placement: false,
            failures: None,
            arch_pattern: vec![Arch::Vax],
            capacity_profiles: vec![ResourceVec::WHOLE],
            checkpoint_server: false,
            reservations: Vec::new(),
            record_trace: true,
            chaos: None,
            topology: None,
        }
    }
}

impl ClusterConfig {
    /// Checks the configuration for structural impossibilities.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.stations == 0 {
            return Err(ConfigError::NoStations);
        }
        if self.placements_per_poll == 0 {
            return Err(ConfigError::ZeroPlacementsPerPoll);
        }
        if self.costs.coordinator_poll_interval.is_zero() {
            return Err(ConfigError::ZeroPollInterval);
        }
        if let EvictionStrategy::ImmediateKill { checkpoint_every } = self.eviction {
            if checkpoint_every.is_zero() {
                return Err(ConfigError::ZeroPeriodicCheckpoint);
            }
        }
        if let Some(f) = &self.failures {
            f.check()?;
        }
        self.owner.check().map_err(ConfigError::Owner)?;
        check_spread(self.owner_heterogeneity).map_err(ConfigError::Owner)?;
        if self.arch_pattern.is_empty() {
            return Err(ConfigError::EmptyArchPattern);
        }
        if self.capacity_profiles.is_empty() {
            return Err(ConfigError::EmptyCapacityProfiles);
        }
        for (index, p) in self.capacity_profiles.iter().enumerate() {
            if p.cpu_milli == 0 {
                return Err(ConfigError::CapacityProfileZeroCpu { index });
            }
        }
        for r in &self.reservations {
            r.check(self.stations)?;
        }
        if let Some(c) = &self.chaos {
            c.check(self.stations)?;
        }
        if let Some(t) = &self.topology {
            t.check(self.stations)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_setup() {
        let c = ClusterConfig::default();
        c.check().expect("default config is valid");
        assert_eq!(c.stations, 23);
        assert_eq!(c.placements_per_poll, 1);
        assert_eq!(c.policy, PolicyKind::UpDown);
        assert!(matches!(
            c.eviction,
            EvictionStrategy::GraceThenCheckpoint { grace } if grace == SimDuration::from_minutes(5)
        ));
        assert!(!c.history_aware_placement);
        assert!(c.failures.is_none());
        assert!(!c.checkpoint_server);
        assert_eq!(c.arch_pattern, vec![Arch::Vax]);
        assert!(c.reservations.is_empty());
    }

    #[test]
    fn whole_fleet_reservation_rejected() {
        let err = ClusterConfig {
            reservations: vec![Reservation {
                holder: NodeId::new(0),
                machines: 23,
                from: SimTime::ZERO,
                until: SimTime::from_hours(1),
            }],
            ..ClusterConfig::default()
        }
        .check()
        .unwrap_err();
        assert_eq!(err, ConfigError::ReservationWholeFleet { machines: 23, stations: 23 });
        assert!(err.to_string().contains("entire fleet"));
    }

    #[test]
    fn zero_mtbf_rejected() {
        let err = ClusterConfig {
            failures: Some(FailureConfig {
                mtbf: SimDuration::ZERO,
                mttr: SimDuration::HOUR,
            }),
            ..ClusterConfig::default()
        }
        .check()
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroMtbf);
        assert_eq!(err.to_string(), "zero MTBF");
    }

    #[test]
    fn zero_stations_rejected() {
        let err = ClusterConfig { stations: 0, ..ClusterConfig::default() }
            .check()
            .unwrap_err();
        assert_eq!(err, ConfigError::NoStations);
        assert!(err.to_string().contains("at least one station"));
    }

    #[test]
    fn zero_placements_rejected() {
        let err = ClusterConfig { placements_per_poll: 0, ..ClusterConfig::default() }
            .check()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroPlacementsPerPoll);
    }

    #[test]
    fn zero_periodic_checkpoint_rejected() {
        let err = ClusterConfig {
            eviction: EvictionStrategy::ImmediateKill {
                checkpoint_every: SimDuration::ZERO,
            },
            ..ClusterConfig::default()
        }
        .check()
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroPeriodicCheckpoint);
        assert!(err.to_string().contains("periodic-checkpoint"));
    }

    #[test]
    fn capacity_profiles_validated() {
        let err = ClusterConfig { capacity_profiles: Vec::new(), ..ClusterConfig::default() }
            .check()
            .unwrap_err();
        assert_eq!(err, ConfigError::EmptyCapacityProfiles);

        let err = ClusterConfig {
            capacity_profiles: vec![ResourceVec::WHOLE, ResourceVec::new(0, 1000)],
            ..ClusterConfig::default()
        }
        .check()
        .unwrap_err();
        assert_eq!(err, ConfigError::CapacityProfileZeroCpu { index: 1 });
        assert!(err.to_string().contains("zero CPU"));

        let oversized = ClusterConfig {
            capacity_profiles: vec![ResourceVec::share(2000)],
            ..ClusterConfig::default()
        };
        assert_eq!(oversized.check(), Ok(()), "oversized capacity is legal");
    }

    #[test]
    fn owner_parameters_outside_their_ranges_are_typed_errors() {
        use crate::cluster::Cluster;
        let base = ClusterConfig { stations: 4, ..ClusterConfig::default() };
        let spread = |s: f64| ClusterConfig { owner_heterogeneity: s, ..base.clone() };
        let owner = |edit: fn(&mut OwnerConfig)| {
            let mut c = base.clone();
            edit(&mut c.owner);
            c
        };
        let rejected = [
            ("spread 1", spread(1.0)),
            ("spread below 0", spread(-0.01)),
            ("spread NaN", spread(f64::NAN)),
            ("zero active period", owner(|o| o.mean_active_period = SimDuration::ZERO)),
        ];
        for (case, config) in rejected {
            let err = Cluster::try_new(config, Vec::new()).err();
            assert!(matches!(err, Some(ConfigError::Owner(_))), "{case}: {err:?}");
        }
        let accepted = [
            ("spread 0", spread(0.0)),
            ("spread just below 1", spread(0.99)),
            ("shortest active period", owner(|o| o.mean_active_period = SimDuration::MILLISECOND)),
        ];
        for (case, config) in accepted {
            assert!(Cluster::try_new(config, Vec::new()).is_ok(), "{case}");
        }
        let err = spread(1.0).check().unwrap_err();
        assert_eq!(err.to_string(), "owner process: spread 1 outside [0, 1)");
    }

    #[test]
    fn a_zero_inter_pool_latency_is_a_typed_error() {
        let err = ClusterConfig {
            topology: Some(PoolTopology::uniform(2, SimDuration::ZERO)),
            ..ClusterConfig::default()
        }
        .check()
        .unwrap_err();
        assert_eq!(err, ConfigError::TopologyZeroLatency);
        assert!(err.to_string().contains("no lookahead"));
    }

    #[test]
    fn reservation_checks_run_standalone() {
        let r = Reservation {
            holder: NodeId::new(5),
            machines: 2,
            from: SimTime::ZERO,
            until: SimTime::from_hours(1),
        };
        assert_eq!(r.check(23), Ok(()));
        assert_eq!(
            r.check(4),
            Err(ConfigError::ReservationHolderOutsideFleet { holder: NodeId::new(5) })
        );
        let empty = Reservation { until: SimTime::ZERO, ..r };
        assert_eq!(empty.check(23), Err(ConfigError::ReservationEmptyWindow));
        let none = Reservation { machines: 0, ..r };
        assert_eq!(none.check(23), Err(ConfigError::ReservationZeroMachines));
    }
}
