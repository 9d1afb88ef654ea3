//! The live coordinator: Up-Down scheduling over real worker threads.
//!
//! [`Runtime`] is a miniature, in-process Condor pool. Worker threads play
//! workstations (with owner-activity flags), jobs are real
//! [`JobProgram`](crate::program::JobProgram) computations, checkpoints are
//! real `condor-ckpt` images held in per-home [`CheckpointStore`]s, and the
//! coordinator is the *same* [`UpDown`] policy the simulator uses —
//! demonstrating that the control plane is independent of the substrate.
//!
//! Timescales shrink (a "2-minute poll" becomes ~20 ms) but every protocol
//! element of the paper is present: polling, queueing at the home station,
//! placement, owner detection between work slices, a grace period,
//! eviction checkpoints, and migration with zero lost results.
//!
//! The coordinator is event-driven. It sleeps on the workers' event
//! channel until a message arrives or its next timer is due, and it has
//! only two kinds of timer: the poll, and one grace timer per owner
//! interruption. A finished, evicted or interrupted job is handled the
//! moment its worker reports it, and an idle pool costs one wake-up per
//! poll.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use condor_ckpt::image::CheckpointBuilder;
use condor_ckpt::image::SegmentKind;
use condor_ckpt::store::CheckpointStore;
use condor_core::policy::{Order, StationView};
use condor_core::updown::{UpDown, UpDownConfig};
use condor_net::NodeId;
use crossbeam::channel::{Receiver, RecvTimeoutError};

use crate::worker::{Command, Worker, WorkerEvent};

/// Tunables of the live runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads ("workstations").
    pub workers: usize,
    /// Work units per slice between owner checks.
    pub slice_units: u64,
    /// Coordinator poll interval (the paper's 2 minutes, scaled).
    pub poll_interval: Duration,
    /// Grace period before an interrupted job is evicted (the paper's
    /// 5 minutes, scaled — keep the 2.5× ratio to the poll).
    pub grace: Duration,
    /// Maximum placements per poll (the paper's throttle).
    pub placements_per_poll: usize,
    /// Per-home checkpoint-store capacity in bytes.
    pub store_capacity: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            slice_units: 2_000,
            poll_interval: Duration::from_millis(20),
            grace: Duration::from_millis(50),
            placements_per_poll: 1,
            store_capacity: 64 << 20,
        }
    }
}

/// Where a live job is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveState {
    /// Waiting in the home queue.
    Queued,
    /// Placement command sent; not yet confirmed started.
    Placing {
        /// Destination worker.
        on: usize,
    },
    /// Executing.
    Running {
        /// Hosting worker.
        on: usize,
    },
    /// Owner active at the host; grace clock running.
    Suspended {
        /// Hosting worker.
        on: usize,
    },
    /// Finished.
    Done,
}

#[derive(Debug)]
struct LiveJob {
    home: usize,
    kind: String,
    state: LiveState,
    /// When the current owner interruption began; names its grace timer.
    suspended_at: Option<Instant>,
    migrations: u32,
    units_total: u64,
    result: Option<Vec<u8>>,
}

/// Final report of a [`Runtime::run`] call.
#[derive(Debug)]
pub struct RuntimeReport {
    /// Results of completed jobs, by job id.
    pub results: HashMap<u64, Vec<u8>>,
    /// Jobs still unfinished when the deadline hit.
    pub unfinished: Vec<u64>,
    /// Total eviction migrations performed.
    pub migrations: u64,
    /// Owner interruptions observed.
    pub interruptions: u64,
    /// In-place resumes (owner left within the grace period).
    pub resumes_in_place: u64,
    /// Coordinator polls executed.
    pub polls: u64,
    /// Jobs started autonomously on their idle home while the coordinator
    /// flag was down (the hybrid structure's degraded mode).
    pub local_starts: u64,
    /// Times the coordinator woke from waiting: for a worker message, a
    /// poll or grace timer, or the end of a `run`.
    pub wakeups: u64,
}

/// A live mini-Condor pool.
///
/// # Examples
///
/// ```
/// use condor_runtime::program::{JobProgram, PrimeCounter};
/// use condor_runtime::runtime::{Runtime, RuntimeConfig};
/// use std::time::Duration;
///
/// let mut rt = Runtime::new(RuntimeConfig { workers: 2, ..RuntimeConfig::default() });
/// let job = rt.submit(0, &PrimeCounter::new(2_000));
/// let report = rt.run(Duration::from_secs(30));
/// assert_eq!(
///     u64::from_le_bytes(report.results[&job].clone().try_into().unwrap()),
///     303, // primes below 2000
/// );
/// ```
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    workers: Vec<Worker>,
    event_rx: Receiver<WorkerEvent>,
    policy: UpDown,
    jobs: HashMap<u64, LiveJob>,
    /// Submitted jobs not yet done; `run` returns when none is left.
    open: usize,
    /// One grace timer per owner interruption: when it began, and the job.
    /// The grace is one constant, so the order they began in is the order
    /// they expire in. A timer whose job resumed or left since is stale and
    /// is dropped when it expires.
    grace_timers: VecDeque<(Instant, u64)>,
    queues: Vec<VecDeque<u64>>,
    hosting: Vec<Option<u64>>,
    stores: Vec<CheckpointStore>,
    next_job: u64,
    migrations: u64,
    interruptions: u64,
    resumes: u64,
    polls: u64,
    coordinator_down: std::sync::Arc<std::sync::atomic::AtomicBool>,
    local_starts: u64,
    wakeups: u64,
}

impl Runtime {
    /// Spawns the worker threads and an idle coordinator.
    ///
    /// # Panics
    ///
    /// Panics on a zero-worker configuration.
    pub fn new(config: RuntimeConfig) -> Runtime {
        assert!(config.workers > 0, "need at least one worker");
        assert!(config.placements_per_poll > 0, "placement budget");
        let (event_tx, event_rx) = crossbeam::channel::unbounded();
        let workers: Vec<Worker> = (0..config.workers)
            .map(|i| Worker::spawn(i, config.slice_units, event_tx.clone()))
            .collect();
        let stores = (0..config.workers)
            .map(|_| CheckpointStore::new(config.store_capacity))
            .collect();
        Runtime {
            workers,
            event_rx,
            policy: UpDown::new(UpDownConfig::default()),
            jobs: HashMap::new(),
            open: 0,
            grace_timers: VecDeque::new(),
            queues: vec![VecDeque::new(); config.workers],
            hosting: vec![None; config.workers],
            stores,
            next_job: 0,
            migrations: 0,
            interruptions: 0,
            resumes: 0,
            polls: 0,
            coordinator_down: std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)),
            local_starts: 0,
            wakeups: 0,
            config,
        }
    }

    /// Submits a program from `home`'s queue; returns the job id.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range or the home checkpoint store is
    /// full.
    pub fn submit(&mut self, home: usize, program: &dyn crate::program::JobProgram) -> u64 {
        assert!(home < self.config.workers, "home {home} out of range");
        let id = self.next_job;
        self.next_job += 1;
        let snapshot = program.snapshot();
        self.store_snapshot(home, id, 0, &snapshot);
        self.jobs.insert(
            id,
            LiveJob {
                home,
                kind: program.kind().to_string(),
                state: LiveState::Queued,
                suspended_at: None,
                migrations: 0,
                units_total: 0,
                result: None,
            },
        );
        self.open += 1;
        self.queues[home].push_back(id);
        id
    }

    /// Simulates the owner of worker `station` arriving or leaving.
    ///
    /// # Panics
    ///
    /// Panics if `station` is out of range.
    pub fn set_owner_active(&self, station: usize, active: bool) {
        self.workers[station].set_owner_active(active);
    }

    /// The owner flags of every worker, for an external owner driver.
    pub fn owner_flags(&self) -> Vec<std::sync::Arc<std::sync::atomic::AtomicBool>> {
        self.workers.iter().map(|w| w.owner_flag()).collect()
    }

    /// Takes the coordinator down (`true`) or brings it back (`false`).
    ///
    /// While down, polls stop fleet-wide and stations degrade to autonomy:
    /// an idle, non-hosting worker starts its own queued job locally
    /// instead of waiting for placement — mirroring the simulated
    /// coordinator-outage fault in `condor_core::chaos`.
    pub fn set_coordinator_down(&self, down: bool) {
        self.coordinator_down
            .store(down, std::sync::atomic::Ordering::Relaxed);
    }

    /// The coordinator-down flag, for an external chaos driver (same
    /// pattern as [`Runtime::owner_flags`]).
    pub fn coordinator_flag(&self) -> std::sync::Arc<std::sync::atomic::AtomicBool> {
        self.coordinator_down.clone()
    }

    /// The Up-Down schedule index of a station's home (for inspection).
    pub fn updown_index(&self, station: usize) -> f64 {
        self.policy.index_of(NodeId::new(station as u32))
    }

    fn store_snapshot(&mut self, home: usize, job: u64, sequence: u32, snapshot: &[u8]) {
        let image = CheckpointBuilder::new(job, sequence)
            .segment(SegmentKind::Data, 0, snapshot.to_vec())
            .build()
            .expect("no outstanding replies in the live runtime");
        self.stores[home]
            .put(&image)
            .expect("home checkpoint store full");
    }

    /// The job's latest snapshot. One is stored at submit and replaced at
    /// every eviction, and it leaves the home store only when the job
    /// finishes, so a job that can be placed has one.
    fn fetch_snapshot(&self, home: usize, job: u64) -> Vec<u8> {
        self.stores[home]
            .get(job)
            .ok()
            .and_then(|image| Some(image.segment(SegmentKind::Data)?.payload().to_vec()))
            .expect("a queued job's snapshot is at its home")
    }

    fn drain_events(&mut self) {
        while let Ok(ev) = self.event_rx.try_recv() {
            self.handle(ev);
        }
    }

    fn handle(&mut self, ev: WorkerEvent) {
        match ev {
            WorkerEvent::Started { worker, job } => {
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.state = LiveState::Running { on: worker };
                }
            }
            WorkerEvent::PlaceFailed { worker, job, reason } => {
                // Snapshot corrupt at the host: requeue from home copy.
                self.hosting[worker] = None;
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.state = LiveState::Queued;
                    self.queues[j.home].push_front(job);
                }
                debug_assert!(false, "placement failed: {reason}");
            }
            WorkerEvent::OwnerInterrupted { worker, job } => {
                self.interruptions += 1;
                if let Some(j) = self.jobs.get_mut(&job) {
                    let now = Instant::now();
                    j.state = LiveState::Suspended { on: worker };
                    j.suspended_at = Some(now);
                    self.grace_timers.push_back((now, job));
                }
            }
            WorkerEvent::ResumedInPlace { worker, job } => {
                self.resumes += 1;
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.state = LiveState::Running { on: worker };
                    j.suspended_at = None;
                }
            }
            WorkerEvent::Finished { worker, job, result, units_here } => {
                self.hosting[worker] = None;
                if let Some(j) = self.jobs.get_mut(&job) {
                    if j.state != LiveState::Done {
                        self.open -= 1;
                    }
                    j.state = LiveState::Done;
                    j.result = Some(result);
                    j.units_total += units_here;
                    self.stores[j.home].remove(job);
                }
            }
            WorkerEvent::Evicted { worker, job, snapshot, kind: _, units_here } => {
                self.hosting[worker] = None;
                self.migrations += 1;
                let Some(j) = self.jobs.get_mut(&job) else {
                    return;
                };
                j.migrations += 1;
                j.units_total += units_here;
                j.state = LiveState::Queued;
                j.suspended_at = None;
                let (home, seq) = (j.home, j.migrations);
                self.store_snapshot(home, job, seq, &snapshot);
                self.queues[home].push_front(job);
            }
            WorkerEvent::Killed { worker, job } => {
                self.hosting[worker] = None;
                if let Some(j) = self.jobs.get_mut(&job) {
                    // Restart from the last stored checkpoint.
                    j.state = LiveState::Queued;
                    j.suspended_at = None;
                    self.queues[j.home].push_front(job);
                }
            }
            WorkerEvent::CommandMiss { .. } => {}
        }
    }

    /// Fires every grace timer due by `now`: a job still suspended by the
    /// interruption that set the timer is evicted.
    fn expire_grace(&mut self, now: Instant) {
        let grace = self.config.grace;
        while let Some(&(since, job)) = self.grace_timers.front() {
            if now < since + grace {
                break;
            }
            self.grace_timers.pop_front();
            match self.jobs.get(&job) {
                Some(&LiveJob { state: LiveState::Suspended { on }, suspended_at, .. })
                    if suspended_at == Some(since) =>
                {
                    self.workers[on].send(Command::Evict { job });
                }
                _ => {}
            }
        }
    }

    /// The earlier of the next poll and the next grace expiry.
    fn next_timer(&self, next_poll: Instant) -> Instant {
        self.grace_timers
            .front()
            .map_or(next_poll, |&(since, _)| next_poll.min(since + self.config.grace))
    }

    /// Degraded-mode scheduling while the coordinator is down: each idle,
    /// non-hosting worker starts the next job of its *own* queue. No
    /// cross-station placement and no policy charge — autonomy, not
    /// allocation.
    fn autonomy_sweep(&mut self) {
        for i in 0..self.config.workers {
            if self.workers[i].owner_active() || self.hosting[i].is_some() {
                continue;
            }
            let Some(job) = self.queues[i].pop_front() else {
                continue;
            };
            let snapshot = self.fetch_snapshot(i, job);
            let kind = self.jobs[&job].kind.clone();
            self.hosting[i] = Some(job);
            if let Some(j) = self.jobs.get_mut(&job) {
                j.state = LiveState::Placing { on: i };
            }
            self.local_starts += 1;
            self.workers[i].send(Command::Place { job, kind, snapshot });
        }
    }

    fn poll(&mut self) {
        self.polls += 1;
        let views: Vec<StationView> = (0..self.config.workers)
            .map(|i| StationView {
                node: NodeId::new(i as u32),
                can_host: !self.workers[i].owner_active() && self.hosting[i].is_none(),
                free_cpu_milli: if !self.workers[i].owner_active() && self.hosting[i].is_none() {
                    1000
                } else {
                    0
                },
                hosting_for: self.hosting[i].and_then(|job| {
                    let j = &self.jobs[&job];
                    matches!(j.state, LiveState::Running { .. })
                        .then(|| NodeId::new(j.home as u32))
                }),
                waiting_jobs: self.queues[i].len(),
            })
            .collect();
        let free: Vec<NodeId> = views.iter().filter(|v| v.can_host).map(|v| v.node).collect();
        let orders = condor_core::policy::decide_from_views(
            &mut self.policy,
            Default::default(),
            &views,
            &free,
            self.config.placements_per_poll,
        );
        for order in orders {
            match order {
                Order::Assign { home, target } => {
                    let Some(job) = self.queues[home.as_usize()].pop_front() else {
                        continue;
                    };
                    let snapshot = self.fetch_snapshot(home.as_usize(), job);
                    let kind = self.jobs[&job].kind.clone();
                    self.hosting[target.as_usize()] = Some(job);
                    if let Some(j) = self.jobs.get_mut(&job) {
                        j.state = LiveState::Placing { on: target.as_usize() };
                    }
                    self.workers[target.as_usize()].send(Command::Place { job, kind, snapshot });
                }
                Order::Preempt { target } => {
                    if let Some(job) = self.hosting[target.as_usize()] {
                        self.workers[target.as_usize()].send(Command::Evict { job });
                    }
                }
            }
        }
    }

    /// Drives the pool until every submitted job completes or `deadline`
    /// elapses, then reports. Owner flags may be toggled concurrently from
    /// other threads (or between `run` calls).
    ///
    /// Every call polls at once and then every `poll_interval`. Between
    /// timers the coordinator sleeps until a worker reports.
    pub fn run(&mut self, deadline: Duration) -> RuntimeReport {
        let started = Instant::now();
        // A deadline past what `Instant` can represent never ends the run.
        let end = started.checked_add(deadline);
        let mut next_poll = started;
        let mut now = started;
        while end.is_none_or(|end| now < end) {
            self.drain_events();
            self.expire_grace(now);
            if now >= next_poll {
                next_poll = now + self.config.poll_interval;
                if self.coordinator_down.load(std::sync::atomic::Ordering::Relaxed) {
                    self.autonomy_sweep();
                } else {
                    self.poll();
                }
            }
            if self.open == 0 {
                break;
            }
            let wake = self.next_timer(next_poll);
            let wake = end.map_or(wake, |end| wake.min(end));
            self.wakeups += 1;
            match self.event_rx.recv_timeout(wake.saturating_duration_since(Instant::now())) {
                Ok(ev) => self.handle(ev),
                Err(RecvTimeoutError::Timeout) => {}
                // Every worker thread is gone: nothing will report again.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            now = Instant::now();
        }
        self.drain_events();
        let mut results = HashMap::new();
        let mut unfinished = Vec::new();
        for (&id, j) in &self.jobs {
            match (&j.state, &j.result) {
                (LiveState::Done, Some(r)) => {
                    results.insert(id, r.clone());
                }
                _ => unfinished.push(id),
            }
        }
        unfinished.sort_unstable();
        RuntimeReport {
            results,
            unfinished,
            migrations: self.migrations,
            interruptions: self.interruptions,
            resumes_in_place: self.resumes,
            polls: self.polls,
            local_starts: self.local_starts,
            wakeups: self.wakeups,
        }
    }

    /// Stops all workers and returns the total units they executed.
    pub fn shutdown(self) -> u64 {
        self.workers.into_iter().map(Worker::shutdown).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{run_to_completion, MonteCarloPi, PrimeCounter, SeriesSum};

    fn fast_config(workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            slice_units: 500,
            poll_interval: Duration::from_millis(5),
            grace: Duration::from_millis(15),
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn single_job_runs_to_completion() {
        let mut rt = Runtime::new(fast_config(2));
        let job = rt.submit(0, &PrimeCounter::new(3_000));
        let report = rt.run(Duration::from_secs(30));
        assert!(report.unfinished.is_empty(), "{report:?}");
        let expected = run_to_completion(&mut PrimeCounter::new(3_000));
        assert_eq!(report.results[&job], expected);
        assert!(rt.shutdown() > 0);
    }

    #[test]
    fn many_jobs_from_many_homes_all_complete() {
        let mut rt = Runtime::new(fast_config(4));
        let mut expected = HashMap::new();
        for i in 0..8u64 {
            let prog = SeriesSum::new(200_000 + i * 10_000, 1_000_003);
            let want = {
                let mut p = prog.clone();
                run_to_completion(&mut p)
            };
            let id = rt.submit((i % 4) as usize, &prog);
            expected.insert(id, want);
        }
        let report = rt.run(Duration::from_secs(60));
        assert!(report.unfinished.is_empty(), "{report:?}");
        for (id, want) in expected {
            assert_eq!(report.results[&id], want, "job {id}");
        }
        rt.shutdown();
    }

    #[test]
    fn owner_interference_migrates_without_corrupting_results() {
        let mut rt = Runtime::new(fast_config(3));
        // Long-ish stochastic job: the RNG stream must survive migration.
        let prog = MonteCarloPi::new(42, 40_000_000);
        let expected = {
            let mut p = prog.clone();
            run_to_completion(&mut p)
        };
        let job = rt.submit(0, &prog);
        // Harass whichever machines host it: flip owners on and off.
        let flip = |rt: &Runtime, on: bool| {
            for w in 0..3 {
                rt.set_owner_active(w, on && w != 0);
            }
        };
        let mut report = None;
        for round in 0..200 {
            flip(&rt, round % 2 == 0);
            let r = rt.run(Duration::from_millis(100));
            if r.unfinished.is_empty() {
                report = Some(r);
                break;
            }
        }
        // Clear owners and finish if still pending.
        flip(&rt, false);
        let report = match report {
            Some(r) => r,
            None => rt.run(Duration::from_secs(120)),
        };
        assert!(report.unfinished.is_empty(), "{report:?}");
        assert_eq!(report.results[&job], expected, "result corrupted by migration");
        rt.shutdown();
    }

    #[test]
    fn grace_period_evicts_persistently_busy_station() {
        let mut rt = Runtime::new(RuntimeConfig {
            workers: 2,
            slice_units: 200,
            poll_interval: Duration::from_millis(5),
            grace: Duration::from_millis(10),
            ..RuntimeConfig::default()
        });
        let prog = SeriesSum::new(u64::MAX / 4, 1_000_003); // effectively endless
        let _job = rt.submit(0, &prog);
        // Let it get placed and start.
        let _ = rt.run(Duration::from_millis(200));
        // Make every station busy: the job gets interrupted, grace expires,
        // and an eviction checkpoint happens.
        rt.set_owner_active(0, true);
        rt.set_owner_active(1, true);
        let _ = rt.run(Duration::from_millis(300));
        assert!(rt.migrations >= 1 || rt.interruptions >= 1, "no interference observed");
        rt.set_owner_active(0, false);
        rt.set_owner_active(1, false);
        rt.shutdown();
    }

    #[test]
    fn coordinator_outage_degrades_to_autonomous_local_starts() {
        let mut rt = Runtime::new(fast_config(2));
        rt.set_coordinator_down(true);
        let job = rt.submit(0, &PrimeCounter::new(3_000));
        let report = rt.run(Duration::from_secs(30));
        assert!(report.unfinished.is_empty(), "{report:?}");
        assert_eq!(report.polls, 0, "polls while the coordinator is down");
        assert!(report.local_starts >= 1, "{report:?}");
        let expected = run_to_completion(&mut PrimeCounter::new(3_000));
        assert_eq!(report.results[&job], expected);
        // Recovery: polls resume and placement works normally again.
        rt.set_coordinator_down(false);
        let job2 = rt.submit(1, &PrimeCounter::new(2_000));
        let report = rt.run(Duration::from_secs(30));
        assert!(report.unfinished.is_empty(), "{report:?}");
        assert!(report.polls > 0, "polls must resume after recovery");
        assert_eq!(
            report.results[&job2],
            run_to_completion(&mut PrimeCounter::new(2_000))
        );
        rt.shutdown();
    }

    #[test]
    fn a_busy_pool_wakes_for_polls_and_messages_only() {
        let mut rt = Runtime::new(RuntimeConfig {
            poll_interval: Duration::from_millis(10),
            ..fast_config(2)
        });
        let _ = rt.submit(0, &SeriesSum::new(u64::MAX / 4, 1_000_003));
        let report = rt.run(Duration::from_millis(200));
        assert!(report.unfinished.len() == 1 && report.polls >= 2, "{report:?}");
        // A poll timer per poll after the first, the job's `Started`, and
        // the end of the run; a little room for a timer the OS fires early.
        assert!(report.wakeups <= report.polls + 4, "{report:?}");
        rt.shutdown();
    }

    #[test]
    fn a_finished_job_ends_the_run_before_the_next_poll() {
        let mut rt = Runtime::new(RuntimeConfig {
            poll_interval: Duration::from_secs(10),
            ..fast_config(2)
        });
        let job = rt.submit(0, &PrimeCounter::new(3_000));
        let t0 = Instant::now();
        let report = rt.run(Duration::from_secs(30));
        assert!(t0.elapsed() < Duration::from_secs(5), "waited for a timer");
        assert_eq!(report.polls, 1);
        assert_eq!(report.results[&job], run_to_completion(&mut PrimeCounter::new(3_000)));
        rt.shutdown();
    }

    #[test]
    fn the_grace_timer_evicts_between_polls() {
        let mut rt = Runtime::new(RuntimeConfig {
            poll_interval: Duration::from_secs(10),
            grace: Duration::from_millis(20),
            ..fast_config(2)
        });
        let job = rt.submit(0, &SeriesSum::new(u64::MAX / 4, 1_000_003));
        let _ = rt.run(Duration::from_millis(50));
        assert!(matches!(rt.jobs[&job].state, LiveState::Running { .. }));
        rt.set_owner_active(0, true);
        rt.set_owner_active(1, true);
        let mut report = rt.run(Duration::from_millis(500));
        // Only the poll each `run` starts with: the eviction came from the
        // grace timer alone.
        assert_eq!(report.polls, 2);
        for _ in 0..20 {
            if report.migrations > 0 {
                break;
            }
            report = rt.run(Duration::from_millis(500));
        }
        assert_eq!((report.interruptions, report.migrations), (1, 1), "{report:?}");
        assert_eq!(rt.jobs[&job].state, LiveState::Queued);
        rt.set_owner_active(0, false);
        rt.set_owner_active(1, false);
        rt.shutdown();
    }

    #[test]
    fn a_resumed_interruption_leaves_no_live_timer_behind() {
        let mut rt = Runtime::new(RuntimeConfig {
            poll_interval: Duration::from_secs(10),
            grace: Duration::from_millis(300),
            ..fast_config(2)
        });
        let _ = rt.submit(0, &SeriesSum::new(u64::MAX / 4, 1_000_003));
        let _ = rt.run(Duration::from_millis(50));
        // Owners sit down, leave at 100 ms and are back at 200 ms: the
        // first interruption's timer (300 ms) is stale, the second's is
        // due at 500 ms.
        let flags = rt.owner_flags();
        let owners = std::thread::spawn(move || {
            for active in [true, false, true] {
                flags.iter().for_each(|f| f.store(active, std::sync::atomic::Ordering::SeqCst));
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let report = rt.run(Duration::from_millis(400));
        owners.join().unwrap();
        assert_eq!(
            (report.interruptions, report.resumes_in_place, report.migrations),
            (2, 1, 0),
            "{report:?}"
        );
        let mut report = rt.run(Duration::from_millis(200));
        for _ in 0..20 {
            if report.migrations > 0 {
                break;
            }
            report = rt.run(Duration::from_millis(200));
        }
        assert_eq!(report.migrations, 1, "{report:?}");
        rt.set_owner_active(0, false);
        rt.set_owner_active(1, false);
        rt.shutdown();
    }

    #[test]
    fn updown_index_rises_for_consuming_home() {
        let mut rt = Runtime::new(fast_config(3));
        let _ = rt.submit(0, &SeriesSum::new(500_000_000, 1_000_003));
        let _ = rt.run(Duration::from_millis(300));
        assert!(
            rt.updown_index(0) > 0.0,
            "home 0 is consuming remote capacity, index {}",
            rt.updown_index(0)
        );
        rt.shutdown();
    }
}

#[cfg(test)]
mod fairness_tests {
    use super::*;
    use crate::program::SeriesSum;

    /// The live Up-Down coordinator preempts a monopolising home for a
    /// newcomer, just like the simulator.
    #[test]
    fn live_updown_preempts_for_the_light_home() {
        let mut rt = Runtime::new(RuntimeConfig {
            workers: 3,
            slice_units: 300,
            poll_interval: Duration::from_millis(5),
            grace: Duration::from_millis(15),
            ..RuntimeConfig::default()
        });
        // Heavy home 0 floods: effectively endless jobs on every machine.
        for _ in 0..6 {
            rt.submit(0, &SeriesSum::new(u64::MAX / 4, 1_000_003));
        }
        // Let the flood soak up the pool and build up home 0's index.
        let _ = rt.run(Duration::from_millis(400));
        assert!(rt.updown_index(0) > 0.0, "heavy home must accumulate index");
        // The light home asks for a short job.
        let light = rt.submit(1, &SeriesSum::new(2_000_000, 1_000_003));
        let mut done = false;
        for _ in 0..100 {
            let r = rt.run(Duration::from_millis(100));
            if r.results.contains_key(&light) {
                done = true;
                break;
            }
        }
        assert!(done, "the light home's job must run despite the flood");
        assert!(
            rt.migrations > 0,
            "serving the light job requires preempting the flood: migrations {}",
            rt.migrations
        );
        rt.shutdown();
    }
}
