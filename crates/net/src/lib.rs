//! # condor-net — a simulated departmental LAN
//!
//! Condor's 1988 testbed hung 23 VAXstations off a shared 10 Mbit/s
//! Ethernet. Two properties of that network matter to the scheduler:
//!
//! 1. **Control messages are cheap but not free** — coordinator polls and
//!    status replies see per-message latency;
//! 2. **Checkpoint/placement transfers are serialised and slow** — moving a
//!    half-megabyte image takes real seconds and competes for the shared
//!    medium, which is why Condor throttles itself to one placement per two
//!    minutes (paper §4).
//!
//! [`SharedBus`] models the medium: each bulk transfer occupies the bus for
//! `setup + size/bandwidth`, transfers queue FIFO, and small control
//! messages bypass the queue with pure latency (they are negligible against
//! megabyte images). Everything is deterministic — the same request
//! sequence produces the same delivery times.
//!
//! ## Example
//!
//! ```
//! use condor_net::{BusConfig, NodeId, SharedBus};
//! use condor_sim::time::SimTime;
//!
//! let mut bus = SharedBus::new(BusConfig::default());
//! let booking = bus.book_transfer(SimTime::ZERO, NodeId::new(0), NodeId::new(5), 500_000);
//! assert!(booking.completes_at > SimTime::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bus;
pub mod node;

pub use bus::{BusConfig, SharedBus, Transfer};
pub use node::NodeId;
