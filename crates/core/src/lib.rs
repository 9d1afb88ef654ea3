//! # condor-core — the Condor scheduler
//!
//! A faithful reconstruction of the scheduling system of *Condor — A Hunter
//! of Idle Workstations* (Litzkow, Livny & Mutka, ICDCS 1988):
//!
//! * [`job`] — job specifications, lifecycle, and the per-job ledgers
//!   behind the paper's wait-ratio, checkpoint-rate, and leverage figures;
//! * [`queue`] — the autonomous per-station background queue;
//! * [`policy`] — the coordinator-side allocation policies: the trait, and
//!   FIFO / round-robin / random baselines;
//! * [`updown`] — the Up-Down fair-allocation algorithm (paper §2.4);
//! * [`config`] — cluster configuration, including the §4 eviction
//!   strategies (grace-then-checkpoint vs immediate-kill);
//! * [`cluster`] — the full discrete-event cluster model binding owners,
//!   local schedulers, the coordinator, the network, and cost accounting,
//!   plus the speculative replicas of [`PolicyKind::Redundant`];
//! * [`trace`] — the replayable event trace experiments consume;
//! * [`telemetry`] — streaming trace sinks and the O(1)-memory
//!   [`Telemetry`] summary every run produces;
//! * [`chaos`] — deterministic fault injection (control-message loss /
//!   delay / duplication, checkpoint corruption with retry, partitions,
//!   coordinator outages) plus the schedule-exploring, shrinking harness.
//!
//! ## Example: run a small cluster
//!
//! ```
//! use condor_core::cluster::Run;
//! use condor_core::config::ClusterConfig;
//! use condor_core::job::{JobId, JobSpec, UserId};
//! use condor_net::NodeId;
//! use condor_sim::time::{SimDuration, SimTime};
//!
//! let jobs: Vec<JobSpec> = (0..4)
//!     .map(|i| {
//!         let (arrival, demand) = (SimTime::from_hours(1), SimDuration::from_hours(2));
//!         JobSpec::new(JobId(i), UserId(0), NodeId::new(0), arrival, demand)
//!     })
//!     .collect();
//! let out = Run::new(ClusterConfig::default())
//!     .specs(jobs)
//!     .horizon(SimDuration::from_days(3))
//!     .execute();
//! assert!(out.totals.placements > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bits;
mod dense;
mod fold;
pub mod audit;
pub mod chaos;
pub mod cluster;
pub mod config;
pub mod job;
pub mod policy;
pub mod queue;
pub mod shard;
pub mod spans;
pub mod telemetry;
pub mod trace;
pub mod updown;

pub use audit::{AuditSink, AuditViolation, AuditViolationKind};
pub use chaos::{
    ChaosEntry, ChaosFailure, ChaosGen, ChaosParseError, ChaosSchedule, ExploreReport, Fault,
};
pub use cluster::{Cluster, Event, Run, RunOutput, Totals};
pub use config::{
    ClusterConfig, ConfigError, EvictionStrategy, FailureConfig, PolicyKind, Reservation,
};
pub use job::{Job, JobId, JobSpec, JobState, PreemptReason, SpeedupCurve, UserId};
pub use policy::{AllocationPolicy, FifoPolicy, Order, RandomPolicy, RoundRobinPolicy, StationView};
pub use queue::BackgroundQueue;
pub use spans::{
    Breakdown, JobBreakdown, JobSpans, Occupancy, Span, SpanLog, SpanMarker, SpanPhase, SpanSink,
};
pub use telemetry::{
    GaugeSample, KindFilterSink, KindMask, RingSink, SharedSink, StatsSink, Telemetry, TraceSink,
    VecSink,
};
pub use trace::{Trace, TraceEvent, TraceKind, TraceParseError};
pub use updown::{UpDown, UpDownConfig};
