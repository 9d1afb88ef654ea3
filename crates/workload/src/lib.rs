//! # condor-workload — the users of the system
//!
//! Workload generation calibrated to the paper's one-month observation:
//!
//! * [`user`] — statistical user profiles (heavy user A with standing
//!   30-job queues; light users B–E with occasional ≈ 5-job batches),
//!   right-skewed service demands, half-megabyte images, and the
//!   constant-total-I/O property behind the leverage figure;
//! * [`trace`] — merging per-user submissions into one dense trace,
//!   Table 1 summarisation, and CSV round-tripping;
//! * [`scenarios`] — the ready-made experiment inputs: the Table 1 month,
//!   the Figures 6–7 week, a controlled heavy-vs-light fairness duel, and
//!   the §5(4) mixed-architecture month.
//!
//! ## Example
//!
//! ```
//! use condor_workload::scenarios::paper_month;
//! use condor_workload::trace::table1_rows;
//!
//! let scenario = paper_month(1988);
//! assert_eq!(scenario.jobs.len(), 918); // the paper's job count
//! let rows = table1_rows(&scenario.jobs);
//! assert_eq!(rows[0].jobs, 690); // user A
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod scenarios;
pub mod trace;
pub mod user;

pub use scenarios::{
    assign_speedup_mix, fairness_duel, mixed_arch_month, one_week, paper_month, Scenario,
    PAPER_USERS,
};
pub use trace::{from_csv, merge_users, table1_rows, to_csv, CsvError, UserRow};
pub use user::UserProfile;
