//! Fixtures shared by the `cluster_*` integration tests: the names the
//! tests speak in, a job built from whole hours, and two owner climates.

#![allow(dead_code, unused_imports)] // each test binary uses its own subset

pub use condor_core::cluster::{Cluster, Event, Run};
pub use condor_core::config::{ClusterConfig, EvictionStrategy, PolicyKind};
pub use condor_core::job::{Job, JobId, JobSpec, JobState, UserId};
pub use condor_core::trace::TraceKind;
pub use condor_model::diurnal::DiurnalProfile;
pub use condor_model::owner::OwnerConfig;
pub use condor_net::NodeId;
pub use condor_sim::engine::Engine;
pub use condor_sim::time::{SimDuration, SimTime};

/// A default job submitted by `user` from station `home`, arriving at
/// hour `arrival_h` and demanding `demand_h` hours.
pub fn spec(id: u64, user: u32, home: u32, arrival_h: u64, demand_h: u64) -> JobSpec {
    JobSpec::new(
        JobId(id),
        UserId(user),
        NodeId::new(home),
        SimTime::from_hours(arrival_h),
        SimDuration::from_hours(demand_h),
    )
}

/// A config with quiet owners so jobs run undisturbed unless a test
/// wants otherwise.
pub fn quiet_config(stations: usize) -> ClusterConfig {
    ClusterConfig {
        stations,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.02),
            ..OwnerConfig::default()
        },
        owner_heterogeneity: 0.0,
        ..ClusterConfig::default()
    }
}

/// A config with busy, flappy owners to exercise preemption paths.
pub fn stormy_config(stations: usize) -> ClusterConfig {
    ClusterConfig {
        stations,
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.5),
            mean_active_period: SimDuration::from_minutes(8),
        },
        ..ClusterConfig::default()
    }
}
