//! # condor-model — workstations, owners, and costs
//!
//! The environmental models under the Condor scheduler:
//!
//! * [`costs`] — every measured constant from the paper (2-minute polls,
//!   30-second owner checks, 5 s/MB image moves, 10 ms remote system
//!   calls, …);
//! * [`diurnal`] — weekly activity profiles (afternoon peaks, quiet nights
//!   and weekends) matching the utilization shapes of Figures 5–6;
//! * [`owner`] — the stochastic owner-activity process with regime
//!   persistence (long available intervals follow long ones, per the
//!   paper's companion study) and per-station heterogeneity;
//! * [`station`] — static hardware facts (capacity vectors and
//!   architectures).
//!
//! ## Example
//!
//! ```
//! use condor_model::costs::transfer_cpu_cost;
//! use condor_model::owner::{build_fleet, OwnerConfig};
//!
//! // Half-megabyte image → 2.5 s of local CPU per move, like the paper.
//! assert_eq!(transfer_cpu_cost(500_000).as_millis(), 2_500);
//!
//! // 23 stations with heterogeneous owners, deterministic in the seed.
//! let fleet = build_fleet(23, &OwnerConfig::default(), 0.4, 1988);
//! assert_eq!(fleet.len(), 23);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod costs;
pub mod diurnal;
pub mod owner;
pub mod station;

pub use costs::{CostModel, MEGABYTE};
pub use diurnal::DiurnalProfile;
pub use owner::{build_fleet, OwnerConfig, OwnerProcess, OwnerState};
pub use station::{Arch, ArchSet};
