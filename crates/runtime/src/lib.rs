//! # condor-runtime — the live mini-Condor
//!
//! The simulator (condor-core) reproduces the paper's *measurements*; this
//! crate reproduces its *system*: a working in-process Condor pool where
//!
//! * worker threads play workstations, executing **real computations**
//!   ([`program`]: prime counting, Monte-Carlo π, series sums) in metered
//!   slices;
//! * owner activity is a flag checked between slices (the live analogue of
//!   the paper's 30-second local-scheduler check) — an active owner gets
//!   the CPU back immediately ([`worker`]);
//! * the coordinator runs the *same* Up-Down policy as the simulator, with
//!   scaled-down poll and grace intervals;
//! * checkpoints are real `condor-ckpt` images stored at the submitting
//!   home, and migration provably never changes a job's final result —
//!   even for stochastic programs, whose RNG state rides in the
//!   checkpoint.
//!
//! The coordinator is split in two. A crate-private `Coordinator` makes
//! every decision — the job table, home queues, checkpoint stores, grace
//! timers, poll or autonomy sweep, the Up-Down call and the counters —
//! through one clock-free `step(now, input, &mut out) -> next_wake`, so
//! its timer semantics are tested on virtual time and a seeded
//! interleaver checks the paper's guarantees on it. [`Runtime`] is the
//! threaded shell around it ([`runtime`]): it spawns the workers, reads
//! the clock, waits on the workers' channel until the next wake-up,
//! samples the owner flags and the coordinator-down bit for each tick,
//! and forwards the commands.
//!
//! ## Example
//!
//! ```
//! use condor_runtime::program::PrimeCounter;
//! use condor_runtime::runtime::{Runtime, RuntimeConfig};
//! use std::time::Duration;
//!
//! let mut rt = Runtime::new(RuntimeConfig { workers: 2, ..RuntimeConfig::default() });
//! let job = rt.submit(0, &PrimeCounter::new(1_000));
//! let report = rt.run(Duration::from_secs(30));
//! assert!(report.results.contains_key(&job));
//! rt.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coordinator;
pub mod owners;
pub mod program;
pub mod runtime;
pub mod worker;

pub use owners::OwnerSimulator;
pub use program::{restore, JobProgram, MonteCarloPi, PrimeCounter, RestoreError, SeriesSum, StepOutcome};
pub use runtime::{Runtime, RuntimeConfig, RuntimeReport};
pub use worker::{Command, Worker, WorkerEvent};
