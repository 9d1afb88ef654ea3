//! Mixed-architecture fleets (paper §5(4)): placement respects job
//! binaries, and executed work binds a job to its first architecture.

mod common;
use common::*;
use condor_model::station::{Arch, ArchSet};

fn spec_with_binaries(id: u64, home: u32, demand_h: u64, binaries: ArchSet) -> JobSpec {
    JobSpec { binaries, ..spec(id, 0, home, 1, demand_h) }
}

fn mixed_fleet(stations: usize) -> ClusterConfig {
    ClusterConfig { arch_pattern: vec![Arch::Vax, Arch::Sun], ..quiet_config(stations) }
}

#[test]
fn vax_only_jobs_never_run_on_suns() {
    // Fleet alternates VAX (even) / SUN (odd).
    let jobs: Vec<JobSpec> =
        (0..6).map(|i| spec_with_binaries(i, 0, 2, ArchSet::vax_only())).collect();
    let out = Run::new(mixed_fleet(6)).specs(jobs).horizon(SimDuration::from_days(3)).execute();
    assert_eq!(out.completed_jobs().count(), 6);
    for ev in out.trace.events() {
        if let TraceKind::JobStarted { on, .. } = ev.kind {
            assert_eq!(
                on.index() % 2,
                0,
                "VAX-only job started on SUN station {on}"
            );
        }
    }
}

#[test]
fn dual_binary_jobs_use_the_whole_fleet() {
    let jobs: Vec<JobSpec> =
        (0..8).map(|i| spec_with_binaries(i, 0, 3, ArchSet::both())).collect();
    let out = Run::new(mixed_fleet(4)).specs(jobs).horizon(SimDuration::from_days(4)).execute();
    assert_eq!(out.completed_jobs().count(), 8);
    let mut archs_used = std::collections::HashSet::new();
    for ev in out.trace.events() {
        if let TraceKind::JobStarted { on, .. } = ev.kind {
            archs_used.insert(on.index() % 2);
        }
    }
    assert_eq!(archs_used.len(), 2, "dual binaries should reach both arches");
}

#[test]
fn work_binds_jobs_to_their_first_architecture() {
    // Stormy owners force migrations; a dual-binary job must keep
    // migrating within its first architecture.
    let cfg = ClusterConfig {
        stations: 6,
        arch_pattern: vec![Arch::Vax, Arch::Sun],
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.5),
            mean_active_period: SimDuration::from_minutes(15),
        },
        ..ClusterConfig::default()
    };
    let jobs = vec![spec_with_binaries(0, 0, 20, ArchSet::both())];
    let out = Run::new(cfg).specs(jobs).horizon(SimDuration::from_days(12)).execute();
    let hosts: Vec<u32> = out
        .trace
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::JobStarted { on, .. } => Some(on.index()),
            _ => None,
        })
        .collect();
    assert!(hosts.len() > 1, "expected migrations, hosts: {hosts:?}");
    let first_arch = hosts[0] % 2;
    assert!(
        hosts.iter().all(|h| h % 2 == first_arch),
        "job crossed architectures after binding: {hosts:?}"
    );
    assert_eq!(out.jobs[0].state, JobState::Completed);
    assert_eq!(
        out.jobs[0].bound_arch,
        Some(if first_arch == 0 { Arch::Vax } else { Arch::Sun })
    );
}

#[test]
fn arch_starvation_is_counted() {
    // Only SUN machines are ever idle (1-station VAX fleet is the
    // home and owner-busy there is irrelevant: home hosts jobs too).
    // Construct: 2 stations [Vax, Sun]; a SUN-only... simpler: jobs are
    // SUN-only, fleet has a VAX; grants to the VAX waste.
    let cfg = ClusterConfig {
        stations: 2,
        arch_pattern: vec![Arch::Vax, Arch::Sun],
        owner: OwnerConfig {
            profile: DiurnalProfile::flat(0.02),
            ..OwnerConfig::default()
        },
        ..ClusterConfig::default()
    };
    let jobs: Vec<JobSpec> =
        (0..3).map(|i| spec_with_binaries(i, 0, 1, ArchSet::sun_only())).collect();
    let out = Run::new(cfg).specs(jobs).horizon(SimDuration::from_days(2)).execute();
    assert_eq!(out.completed_jobs().count(), 3, "{:?}", out.totals);
    assert!(
        out.totals.arch_starvation > 0,
        "grants to the VAX machine must be wasted: {:?}",
        out.totals
    );
    for ev in out.trace.events() {
        if let TraceKind::JobStarted { on, .. } = ev.kind {
            assert_eq!(on.index(), 1, "SUN-only job on the VAX");
        }
    }
}
