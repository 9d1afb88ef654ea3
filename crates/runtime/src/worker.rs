//! Worker threads: the live counterpart of an idle workstation.
//!
//! A [`Worker`] owns one OS thread that executes at most one foreign job at
//! a time, in metered slices of real computation. Between slices it checks
//! an owner-activity flag (the live analogue of the paper's 30-second local
//! scheduler check): while the owner is active the worker yields the CPU
//! and reports the interruption; the coordinator decides — exactly as in
//! the paper — whether to wait out a grace period or order an eviction
//! checkpoint.
//!
//! An idle worker blocks on its command channel. Only a worker whose owner
//! is active wakes on a timer, every `OWNER_CHECK`, to see whether the
//! owner has left; a command still reaches it at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::program::{restore, JobProgram, StepOutcome};

/// Commands from the coordinator to one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Install and start a job from a snapshot.
    Place {
        /// Job id.
        job: u64,
        /// Program kind (registry key).
        kind: String,
        /// Program snapshot to restore from.
        snapshot: Vec<u8>,
    },
    /// Checkpoint the job and vacate the machine (grace expired or
    /// priority preemption).
    Evict {
        /// Job id to vacate.
        job: u64,
    },
    /// Stop the worker thread.
    Shutdown,
}

/// Events from a worker to the coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerEvent {
    /// The job was restored and is executing.
    Started {
        /// Worker index.
        worker: usize,
        /// Job id.
        job: u64,
    },
    /// The placement failed (corrupt snapshot / unknown kind).
    PlaceFailed {
        /// Worker index.
        worker: usize,
        /// Job id.
        job: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// The owner became active while the job ran; the worker has stopped
    /// executing slices (job still resident).
    OwnerInterrupted {
        /// Worker index.
        worker: usize,
        /// Job id.
        job: u64,
    },
    /// The owner went idle again before any eviction; execution resumed in
    /// place.
    ResumedInPlace {
        /// Worker index.
        worker: usize,
        /// Job id.
        job: u64,
    },
    /// The job completed; the result and final snapshot travel home.
    Finished {
        /// Worker index.
        worker: usize,
        /// Job id.
        job: u64,
        /// The program's result bytes.
        result: Vec<u8>,
    },
    /// Eviction checkpoint taken; the machine is free again.
    Evicted {
        /// Worker index.
        worker: usize,
        /// Job id.
        job: u64,
        /// The checkpoint snapshot.
        snapshot: Vec<u8>,
    },
    /// An `Evict` arrived for a job no longer resident (it finished
    /// first); harmless race, reported for observability.
    CommandMiss {
        /// Worker index.
        worker: usize,
        /// Job id the command named.
        job: u64,
    },
}

/// How often a worker whose owner is active looks at the owner flag again.
const OWNER_CHECK: Duration = Duration::from_micros(200);

/// Handle to a running worker thread.
#[derive(Debug)]
pub struct Worker {
    cmd_tx: Sender<Command>,
    owner_active: Arc<AtomicBool>,
    join: Option<JoinHandle<u64>>,
}

impl Worker {
    /// Spawns a worker thread. `slice_units` is the work metered between
    /// owner checks (the live analogue of the 30-second check interval).
    pub fn spawn(index: usize, slice_units: u64, event_tx: Sender<WorkerEvent>) -> Worker {
        assert!(slice_units > 0, "zero slice");
        let (cmd_tx, cmd_rx) = crossbeam::channel::unbounded();
        let owner_active = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&owner_active);
        let join = std::thread::Builder::new()
            .name(format!("condor-worker-{index}"))
            .spawn(move || worker_loop(index, slice_units, &cmd_rx, &event_tx, &flag))
            .expect("spawn worker thread");
        Worker {
            cmd_tx,
            owner_active,
            join: Some(join),
        }
    }

    /// Simulates the owner sitting down (`true`) or leaving (`false`).
    pub fn set_owner_active(&self, active: bool) {
        self.owner_active.store(active, Ordering::SeqCst);
    }

    /// Whether the owner is currently active.
    pub fn owner_active(&self) -> bool {
        self.owner_active.load(Ordering::SeqCst)
    }

    /// The shared owner flag, for external drivers such as
    /// [`OwnerSimulator`](crate::owners::OwnerSimulator).
    pub fn owner_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.owner_active)
    }

    /// Sends a command to the worker.
    pub fn send(&self, cmd: Command) {
        // A send can only fail after shutdown; ignore (teardown path).
        let _ = self.cmd_tx.send(cmd);
    }

    /// Stops the thread and returns the total work units it executed. A
    /// panic on the worker thread resumes here.
    pub fn shutdown(mut self) -> u64 {
        match self.stop() {
            Some(Ok(units)) => units,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => 0,
        }
    }

    /// Stops and joins the thread, the first time only.
    fn stop(&mut self) -> Option<std::thread::Result<u64>> {
        let join = self.join.take()?;
        let _ = self.cmd_tx.send(Command::Shutdown);
        Some(join.join())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

struct Resident {
    job: u64,
    program: Box<dyn JobProgram>,
    interrupted: bool,
}

fn worker_loop(
    index: usize,
    slice_units: u64,
    cmd_rx: &Receiver<Command>,
    event_tx: &Sender<WorkerEvent>,
    owner_active: &AtomicBool,
) -> u64 {
    let mut resident: Option<Resident> = None;
    let mut total_units = 0u64;
    loop {
        let cmd = match &mut resident {
            // Idle: nothing to do until the coordinator sends something.
            None => match cmd_rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return total_units,
            },
            // The owner has the machine: report it once, then look again
            // after one owner check unless a command comes first.
            Some(r) if owner_active.load(Ordering::SeqCst) => {
                if !r.interrupted {
                    r.interrupted = true;
                    let _ = event_tx.send(WorkerEvent::OwnerInterrupted { worker: index, job: r.job });
                }
                match cmd_rx.recv_timeout(OWNER_CHECK) {
                    Ok(cmd) => Some(cmd),
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return total_units,
                }
            }
            Some(_) => cmd_rx.try_recv().ok(),
        };
        if let Some(cmd) = cmd {
            match cmd {
                Command::Shutdown => return total_units,
                Command::Place { job, kind, snapshot } => match restore(&kind, &snapshot) {
                    Ok(program) => {
                        resident = Some(Resident { job, program, interrupted: false });
                        let _ = event_tx.send(WorkerEvent::Started { worker: index, job });
                    }
                    Err(e) => {
                        let _ = event_tx.send(WorkerEvent::PlaceFailed {
                            worker: index,
                            job,
                            reason: e.to_string(),
                        });
                    }
                },
                Command::Evict { job } => {
                    match resident.take_if(|r| r.job == job) {
                        Some(r) => {
                            let _ = event_tx.send(WorkerEvent::Evicted {
                                worker: index,
                                job,
                                snapshot: r.program.snapshot(),
                            });
                        }
                        None => {
                            let _ = event_tx.send(WorkerEvent::CommandMiss { worker: index, job });
                        }
                    }
                }
            }
            continue;
        }

        // No command, and the owner was away at the last look: run a slice.
        let Some(r) = &mut resident else { continue };
        if r.interrupted {
            r.interrupted = false;
            let _ = event_tx.send(WorkerEvent::ResumedInPlace { worker: index, job: r.job });
        }
        let outcome = r.program.step(slice_units);
        total_units += slice_units;
        if outcome == StepOutcome::Finished {
            if let Some(r) = resident.take() {
                let _ = event_tx.send(WorkerEvent::Finished {
                    worker: index,
                    job: r.job,
                    result: r.program.result().expect("finished program has result"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{PrimeCounter, SeriesSum};

    fn recv(rx: &Receiver<WorkerEvent>) -> WorkerEvent {
        rx.recv_timeout(Duration::from_secs(10)).expect("event within 10 s")
    }

    #[test]
    fn place_run_finish() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let w = Worker::spawn(0, 1_000, tx);
        let p = PrimeCounter::new(5_000);
        w.send(Command::Place {
            job: 1,
            kind: PrimeCounter::KIND.into(),
            snapshot: p.snapshot(),
        });
        assert_eq!(recv(&rx), WorkerEvent::Started { worker: 0, job: 1 });
        match recv(&rx) {
            WorkerEvent::Finished { job: 1, result, .. } => {
                assert_eq!(u64::from_le_bytes(result.try_into().unwrap()), 669);
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        assert!(w.shutdown() > 0);
    }

    #[test]
    fn owner_activity_pauses_execution() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let w = Worker::spawn(3, 500, tx);
        // A long job.
        let p = SeriesSum::new(u64::MAX / 2, 1_000_003);
        w.send(Command::Place {
            job: 9,
            kind: SeriesSum::KIND.into(),
            snapshot: p.snapshot(),
        });
        assert_eq!(recv(&rx), WorkerEvent::Started { worker: 3, job: 9 });
        w.set_owner_active(true);
        assert_eq!(recv(&rx), WorkerEvent::OwnerInterrupted { worker: 3, job: 9 });
        w.set_owner_active(false);
        assert_eq!(recv(&rx), WorkerEvent::ResumedInPlace { worker: 3, job: 9 });
        // The eviction checkpoint is exactly the program after the units it
        // ran, so a restore anywhere continues it (see `program`'s tests).
        w.send(Command::Evict { job: 9 });
        match recv(&rx) {
            WorkerEvent::Evicted { job: 9, snapshot, .. } => {
                let left = restore(SeriesSum::KIND, &snapshot).expect("restores").remaining_units();
                let mut reference = p.clone();
                reference.step(p.remaining_units() - left);
                assert!(left < p.remaining_units() && reference.snapshot() == snapshot);
            }
            other => panic!("expected Evicted, got {other:?}"),
        }
        // The job has left: a second eviction misses.
        w.send(Command::Evict { job: 9 });
        assert_eq!(recv(&rx), WorkerEvent::CommandMiss { worker: 3, job: 9 });
        w.shutdown();
    }

    #[test]
    fn bad_placement_reports_failure() {
        let (tx, rx) = crossbeam::channel::unbounded();
        let w = Worker::spawn(0, 100, tx);
        w.send(Command::Place {
            job: 3,
            kind: "no-such".into(),
            snapshot: vec![],
        });
        match recv(&rx) {
            WorkerEvent::PlaceFailed { job: 3, reason, .. } => {
                assert!(reason.contains("no-such"));
            }
            other => panic!("expected PlaceFailed, got {other:?}"),
        }
        w.shutdown();
    }

    #[test]
    fn drop_cleans_up_thread() {
        let (tx, _rx) = crossbeam::channel::unbounded();
        let w = Worker::spawn(0, 100, tx);
        drop(w); // must not hang or panic
    }
}
