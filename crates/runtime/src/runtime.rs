//! The live pool: Up-Down scheduling over real worker threads.
//!
//! [`Runtime`] is a miniature, in-process Condor pool. Worker threads play
//! workstations (with owner-activity flags), jobs are real
//! [`JobProgram`](crate::program::JobProgram) computations, checkpoints are
//! real `condor-ckpt` images held at each job's home, and the coordinator
//! is the *same* `UpDown` policy the simulator uses — demonstrating that
//! the control plane is independent of the substrate.
//!
//! Timescales shrink (a "2-minute poll" becomes ~20 ms) but every protocol
//! element of the paper is present: polling, queueing at the home station,
//! placement, owner detection between work slices, a grace period,
//! eviction checkpoints, and migration with zero lost results.
//!
//! Every decision is made by the clock-free `Coordinator`
//! (`coordinator.rs`); `Runtime` is the shell around it.
//! It spawns the workers, reads the clock, sleeps on the workers' event
//! channel until a message arrives or the coordinator's next timer is
//! due, samples the owner flags and the coordinator-down bit for each
//! tick, and forwards the commands. A finished, evicted or interrupted job
//! is handled the moment its worker reports it, and an idle pool costs one
//! wake-up per poll.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError};

use crate::coordinator::{Coordinator, Input};
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
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            slice_units: 2_000,
            poll_interval: Duration::from_millis(20),
            grace: Duration::from_millis(50),
        }
    }
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
    workers: Vec<Worker>,
    event_rx: Receiver<WorkerEvent>,
    coordinator: Coordinator,
    /// The coordinator's time zero.
    born: Instant,
    /// Set by `set_coordinator_down`, sampled at every tick.
    coordinator_down: bool,
    /// The owner flags sampled at a tick, reused.
    owners: Vec<bool>,
    /// The commands a step returns, reused.
    out: Vec<(usize, Command)>,
    wakeups: u64,
}

impl Runtime {
    /// Spawns the worker threads and an idle coordinator.
    ///
    /// # Panics
    ///
    /// Panics on a zero-worker configuration.
    pub fn new(config: RuntimeConfig) -> Runtime {
        let (event_tx, event_rx) = crossbeam::channel::unbounded();
        let workers = (0..config.workers)
            .map(|i| Worker::spawn(i, config.slice_units, event_tx.clone()))
            .collect();
        Runtime {
            workers,
            event_rx,
            coordinator: Coordinator::new(config),
            born: Instant::now(),
            coordinator_down: false,
            owners: Vec::new(),
            out: Vec::new(),
            wakeups: 0,
        }
    }

    /// Submits a program from `home`'s queue; returns the job id.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range or the home checkpoint store is
    /// full.
    pub fn submit(&mut self, home: usize, program: &dyn crate::program::JobProgram) -> u64 {
        self.coordinator.submit(home, program)
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
    pub fn set_coordinator_down(&mut self, down: bool) {
        self.coordinator_down = down;
    }

    /// The Up-Down schedule index of a station's home (for inspection).
    pub fn updown_index(&self, station: usize) -> f64 {
        self.coordinator.updown_index(station)
    }

    /// Hands every queued worker message to the coordinator.
    fn drain(&mut self, now: Duration) {
        while let Ok(ev) = self.event_rx.try_recv() {
            self.coordinator.step(now, Input::Event(ev), &mut self.out);
        }
    }

    /// Drives the pool until every submitted job completes or fails, or
    /// `deadline` elapses, then reports. Owner flags may be toggled
    /// concurrently from other threads (or between `run` calls).
    ///
    /// Every call polls at once and then every `poll_interval`. Between
    /// timers the coordinator sleeps until a worker reports.
    pub fn run(&mut self, deadline: Duration) -> RuntimeReport {
        let mut now = self.born.elapsed();
        // A deadline past what `Duration` can represent never ends the run.
        let end = now.checked_add(deadline);
        let mut new_run = true;
        while end.is_none_or(|end| now < end) {
            self.drain(now);
            self.owners.clear();
            self.owners.extend(self.workers.iter().map(Worker::owner_active));
            let down = self.coordinator_down;
            let tick = Input::Tick { owners: &self.owners, down, new_run };
            let wake = self.coordinator.step(now, tick, &mut self.out);
            new_run = false;
            for (worker, command) in self.out.drain(..) {
                self.workers[worker].send(command);
            }
            let Some(wake) = wake else { break };
            let wake = end.map_or(wake, |end| wake.min(end));
            self.wakeups += 1;
            match self.event_rx.recv_timeout(wake.saturating_sub(self.born.elapsed())) {
                Ok(ev) => {
                    self.coordinator.step(self.born.elapsed(), Input::Event(ev), &mut self.out);
                }
                Err(RecvTimeoutError::Timeout) => {}
                // Every worker thread is gone: nothing will report again.
                Err(RecvTimeoutError::Disconnected) => break,
            }
            now = self.born.elapsed();
        }
        self.drain(self.born.elapsed());
        self.coordinator.report(self.wakeups)
    }

    /// Stops all workers and returns the total units they executed.
    pub fn shutdown(self) -> u64 {
        self.workers.into_iter().map(Worker::shutdown).sum()
    }
}

#[cfg(test)]
mod tests {
    //! A smoke set of the shell on real threads. The coordinator's timer
    //! semantics are checked on virtual time in `coordinator.rs`.
    use super::*;
    use crate::program::{run_to_completion, PrimeCounter, SeriesSum};

    fn fast_config(workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            slice_units: 500,
            poll_interval: Duration::from_millis(5),
            grace: Duration::from_millis(15),
        }
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
        assert!(rt.shutdown() > 0);
    }

    /// Each tick sees the owner flags and the coordinator-down bit as they
    /// are: while the coordinator is down a busy owner keeps its station,
    /// and its own job starts there once the owner leaves.
    #[test]
    fn ticks_sample_the_owner_flags_and_the_down_bit() {
        let mut rt = Runtime::new(fast_config(2));
        rt.set_coordinator_down(true);
        rt.set_owner_active(0, true);
        let job = rt.submit(0, &PrimeCounter::new(3_000));
        assert_eq!(rt.run(Duration::from_millis(20)).local_starts, 0);
        rt.set_owner_active(0, false);
        let report = rt.run(Duration::from_secs(30));
        assert_eq!((report.polls, report.local_starts), (0, 1), "{report:?}");
        assert_eq!(report.results[&job], run_to_completion(&mut PrimeCounter::new(3_000)));
        rt.shutdown();
    }
}
