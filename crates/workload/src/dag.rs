//! Dependency-graph workloads (paper §5(2)).
//!
//! The paper's second future-work item asks for `fork`/`exec`/`pipe`
//! support so process pipelines can run under Condor. In batch terms a
//! pipeline is a dependency chain — the construct that later grew into
//! HTCondor's DAGMan. These builders assemble common DAG shapes over
//! `JobSpec`s; the cluster holds each job until its dependencies complete.

use condor_core::job::{JobId, JobSpec, UserId};
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

/// Builds job DAGs with dense ids and consistent metadata.
///
/// # Examples
///
/// ```
/// use condor_workload::dag::DagBuilder;
/// use condor_sim::time::SimDuration;
///
/// let mut dag = DagBuilder::new(0, 0);
/// let prep = dag.job(SimDuration::from_hours(1), &[]);
/// let sims: Vec<_> = (0..4).map(|_| dag.job(SimDuration::from_hours(3), &[prep])).collect();
/// let _report = dag.job(SimDuration::from_hours(1), &sims);
/// let jobs = dag.build();
/// assert_eq!(jobs.len(), 6);
/// assert_eq!(jobs[5].depends_on.len(), 4);
/// ```
#[derive(Debug)]
pub struct DagBuilder {
    user: UserId,
    home: NodeId,
    arrival: SimTime,
    image_bytes: u64,
    syscalls_per_cpu_sec: f64,
    first_id: u64,
    jobs: Vec<JobSpec>,
}

impl DagBuilder {
    /// Starts a DAG for `user` submitting from station `home`, with jobs
    /// numbered from 0 and arriving at time zero.
    pub fn new(user: u32, home: u32) -> DagBuilder {
        DagBuilder {
            user: UserId(user),
            home: NodeId::new(home),
            arrival: SimTime::ZERO,
            image_bytes: 500_000,
            syscalls_per_cpu_sec: 0.5,
            first_id: 0,
            jobs: Vec::new(),
        }
    }

    /// Sets the submission instant for subsequently added jobs.
    pub fn arriving_at(&mut self, at: SimTime) -> &mut DagBuilder {
        self.arrival = at;
        self
    }

    /// Sets the first job id (for merging multiple DAGs).
    pub fn first_id(&mut self, id: u64) -> &mut DagBuilder {
        assert!(self.jobs.is_empty(), "set first_id before adding jobs");
        self.first_id = id;
        self
    }

    /// Adds a width-k gang job (paper §5(2) parallel program) with the
    /// given per-member demand and dependencies; returns its id.
    pub fn gang(&mut self, width: u32, demand: SimDuration, deps: &[JobId]) -> JobId {
        assert!(width >= 1, "zero-width gang");
        let id = self.job(demand, deps);
        self.jobs.last_mut().expect("just pushed").width = width;
        id
    }

    /// Adds one job with the given demand and dependencies; returns its id.
    pub fn job(&mut self, demand: SimDuration, deps: &[JobId]) -> JobId {
        let id = JobId(self.first_id + self.jobs.len() as u64);
        for d in deps {
            assert!(d.0 < id.0, "dependency {d} does not precede {id}");
        }
        self.jobs.push(JobSpec {
            image_bytes: self.image_bytes,
            syscalls_per_cpu_sec: self.syscalls_per_cpu_sec,
            depends_on: deps.to_vec(),
            ..JobSpec::new(id, self.user, self.home, self.arrival, demand)
        });
        id
    }

    /// Adds a linear pipeline of `stages` jobs, each depending on the
    /// previous; returns the stage ids.
    pub fn pipeline(&mut self, stages: usize, demand_each: SimDuration) -> Vec<JobId> {
        assert!(stages > 0, "empty pipeline");
        let mut ids = Vec::with_capacity(stages);
        let mut prev: Option<JobId> = None;
        for _ in 0..stages {
            let deps: Vec<JobId> = prev.into_iter().collect();
            let id = self.job(demand_each, &deps);
            prev = Some(id);
            ids.push(id);
        }
        ids
    }

    /// Adds a fork-join: one setup job, `width` parallel branches, one
    /// join. Returns `(setup, branches, join)`.
    pub fn fork_join(
        &mut self,
        width: usize,
        setup: SimDuration,
        branch: SimDuration,
        join: SimDuration,
    ) -> (JobId, Vec<JobId>, JobId) {
        assert!(width > 0, "zero-width fork");
        let s = self.job(setup, &[]);
        let branches: Vec<JobId> = (0..width).map(|_| self.job(branch, &[s])).collect();
        let j = self.job(join, &branches);
        (s, branches, j)
    }

    /// Finishes the DAG, returning the job list.
    pub fn build(self) -> Vec<JobSpec> {
        self.jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_chains_dependencies() {
        let mut dag = DagBuilder::new(0, 0);
        let ids = dag.pipeline(4, SimDuration::HOUR);
        let jobs = dag.build();
        assert_eq!(ids.len(), 4);
        assert!(jobs[0].depends_on.is_empty());
        for (i, job) in jobs.iter().enumerate().skip(1) {
            assert_eq!(job.depends_on, vec![JobId(i as u64 - 1)]);
        }
    }

    #[test]
    fn fork_join_shape() {
        let mut dag = DagBuilder::new(1, 2);
        let (setup, branches, join) = dag.fork_join(
            3,
            SimDuration::HOUR,
            SimDuration::from_hours(2),
            SimDuration::HOUR,
        );
        let jobs = dag.build();
        assert_eq!(jobs.len(), 5);
        for b in &branches {
            assert_eq!(jobs[b.0 as usize].depends_on, vec![setup]);
        }
        assert_eq!(jobs[join.0 as usize].depends_on, branches);
        assert!(jobs.iter().all(|j| j.user == UserId(1)));
    }

    #[test]
    fn first_id_offsets_everything() {
        let mut dag = DagBuilder::new(0, 0);
        dag.first_id(100);
        let a = dag.job(SimDuration::HOUR, &[]);
        let b = dag.job(SimDuration::HOUR, &[a]);
        assert_eq!(a, JobId(100));
        assert_eq!(b, JobId(101));
    }

    #[test]
    #[should_panic(expected = "does not precede")]
    fn forward_reference_rejected() {
        let mut dag = DagBuilder::new(0, 0);
        dag.job(SimDuration::HOUR, &[JobId(5)]);
    }

    #[test]
    fn gang_jobs_carry_width() {
        let mut dag = DagBuilder::new(0, 0);
        let prep = dag.job(SimDuration::HOUR, &[]);
        let sim = dag.gang(4, SimDuration::from_hours(6), &[prep]);
        let jobs = dag.build();
        assert_eq!(jobs[sim.0 as usize].width, 4);
        assert_eq!(jobs[prep.0 as usize].width, 1);
        assert_eq!(jobs[sim.0 as usize].depends_on, vec![prep]);
    }

    #[test]
    fn end_to_end_fork_join_completes_in_order() {
        use condor_core::cluster::Run;
        use condor_core::config::ClusterConfig;
        use condor_core::job::JobState;
        use condor_model::diurnal::DiurnalProfile;
        use condor_model::owner::OwnerConfig;

        let mut dag = DagBuilder::new(0, 0);
        let (setup, branches, join) = dag.fork_join(
            4,
            SimDuration::HOUR,
            SimDuration::from_hours(2),
            SimDuration::HOUR,
        );
        let jobs = dag.build();
        let config = ClusterConfig {
            stations: 6,
            owner: OwnerConfig {
                profile: DiurnalProfile::flat(0.02),
                ..OwnerConfig::default()
            },
            ..ClusterConfig::default()
        };
        let out = Run::new(config).specs(jobs).horizon(SimDuration::from_days(2)).execute();
        assert!(out.jobs.iter().all(|j| j.state == JobState::Completed));
        let t = |id: JobId| out.jobs[id.0 as usize].completed_at.unwrap();
        for b in &branches {
            assert!(t(setup) <= t(*b));
            assert!(t(*b) <= t(join));
        }
    }
}
