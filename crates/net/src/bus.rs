//! The shared-medium network model.
//!
//! A [`SharedBus`] answers one question for the scheduler: *if I start this
//! transfer now, when does it complete?* Bulk transfers (checkpoint images,
//! job placements) serialise FIFO on the medium; control messages (polls,
//! status replies, preemption orders) do not occupy it, because their few
//! hundred bytes are negligible next to megabyte images.
//!
//! The model is deliberately coarse — Condor's behaviour depends on
//! transfer *duration* and *serialisation*, not on CSMA/CD micro-dynamics —
//! but it is conservative in the right direction: concurrent image moves
//! slow each other down, which is exactly the effect that motivated the
//! paper's one-placement-per-two-minutes throttle.

use condor_sim::time::{SimDuration, SimTime};

use crate::node::NodeId;

/// Fixed overhead of every bulk transfer (connection establishment,
/// process creation on the serving side).
const TRANSFER_SETUP: SimDuration = SimDuration::from_millis(200);

/// Static parameters of the shared medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusConfig {
    /// Sustained payload bandwidth in bytes per second. The default models
    /// 10 Mbit/s Ethernet at ~60% goodput: 750 kB/s.
    pub bandwidth_bytes_per_sec: u64,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig { bandwidth_bytes_per_sec: 750_000 }
    }
}

impl BusConfig {
    /// Pure transmission time for `bytes` at the configured bandwidth
    /// (excluding setup).
    pub fn transmission_time(&self, bytes: u64) -> SimDuration {
        assert!(self.bandwidth_bytes_per_sec > 0, "zero bandwidth");
        SimDuration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec as f64)
    }
}

/// A completed transfer booking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// When the transfer starts occupying the medium (may be later than the
    /// request time if the bus is busy).
    pub starts_at: SimTime,
    /// When the last byte arrives.
    pub completes_at: SimTime,
}

/// The shared network medium. All bulk transfers serialise through it.
///
/// # Examples
///
/// ```
/// use condor_net::{BusConfig, NodeId, SharedBus};
/// use condor_sim::time::SimTime;
///
/// let mut bus = SharedBus::new(BusConfig::default());
/// let t0 = SimTime::ZERO;
/// let a = bus.book_transfer(t0, NodeId::new(0), NodeId::new(1), 500_000);
/// let b = bus.book_transfer(t0, NodeId::new(2), NodeId::new(3), 500_000);
/// // The second transfer waits for the first to clear the medium.
/// assert!(b.starts_at >= a.completes_at);
/// ```
#[derive(Debug, Clone)]
pub struct SharedBus {
    config: BusConfig,
    busy_until: SimTime,
    transfers_booked: u64,
    bytes_moved: u64,
    /// Cumulative time the medium spent occupied by bulk transfers.
    busy_time: SimDuration,
    /// Start of the current (latest) contiguous busy run. Bookings that
    /// find the medium free open a new run; bookings that queue extend
    /// it. Lets [`SharedBus::utilization`] clamp the not-yet-elapsed
    /// overhang to the run it actually belongs to.
    run_start: SimTime,
}

impl SharedBus {
    /// Creates an idle bus with the given configuration.
    pub fn new(config: BusConfig) -> Self {
        SharedBus {
            config,
            busy_until: SimTime::ZERO,
            transfers_booked: 0,
            bytes_moved: 0,
            busy_time: SimDuration::ZERO,
            run_start: SimTime::ZERO,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &BusConfig {
        &self.config
    }

    /// Books a bulk transfer of `bytes` from `from` to `to`, requested at
    /// `now`. The transfer begins when the medium frees up and occupies it
    /// for setup + transmission; the returned booking says when the payload
    /// lands.
    pub fn book_transfer(&mut self, now: SimTime, from: NodeId, to: NodeId, bytes: u64) -> Transfer {
        let starts_at = self.busy_until.max(now);
        if starts_at > self.busy_until {
            // The medium was idle: this booking opens a new busy run.
            self.run_start = starts_at;
        }
        let occupies = TRANSFER_SETUP + self.config.transmission_time(bytes);
        let completes_at = starts_at + occupies;
        self.busy_until = completes_at;
        self.transfers_booked += 1;
        self.bytes_moved += bytes;
        self.busy_time += occupies;
        Transfer {
            from,
            to,
            bytes,
            starts_at,
            completes_at,
        }
    }

    /// How long a transfer booked at `now` would wait before starting:
    /// the time until the medium frees, zero when it already is.
    ///
    /// The medium is a single FIFO track that never backfills: a booking
    /// always starts when the latest booking completes, even if requested
    /// during an idle gap *before* the latest booking was made. A query
    /// with `now` earlier than that booking therefore reports the full
    /// wait such a booking would really experience — idle gap included —
    /// not just the transmission time queued ahead of it.
    pub fn backlog_at(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Total bulk transfers booked.
    pub fn transfers_booked(&self) -> u64 {
        self.transfers_booked
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Cumulative time the medium has been occupied by bulk transfers.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Medium utilisation over `[SimTime::ZERO, now]` as a fraction.
    ///
    /// Exact for any `now` at or after the start of the latest busy run
    /// (in particular, for every monotone probe), and for any `now` in
    /// the idle gap just before it. For `now` earlier still — inside or
    /// before an already-completed busy run — the answer counts that
    /// whole run as elapsed and is an upper bound: per-run history is
    /// not retained.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        // The latest busy run [run_start, busy_until] is contiguous, so
        // the portion after `now` — the overhang — is pure busy time and
        // can be subtracted from the cumulative total. Clamping to
        // run_start keeps an idle gap before the run (when `now`
        // precedes the last booking) out of the subtraction.
        let overhang = self.busy_until.saturating_since(now.max(self.run_start));
        let elapsed_busy = self.busy_time.saturating_sub(overhang);
        elapsed_busy.as_millis() as f64 / now.as_millis() as f64
    }
}


#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> SharedBus {
        SharedBus::new(BusConfig::default())
    }

    #[test]
    fn transmission_time_scales_with_size() {
        let cfg = BusConfig::default();
        // 750 kB at 750 kB/s = 1 s.
        assert_eq!(cfg.transmission_time(750_000), SimDuration::from_secs(1));
        assert_eq!(cfg.transmission_time(0), SimDuration::ZERO);
        assert_eq!(cfg.transmission_time(375_000), SimDuration::from_millis(500));
    }

    #[test]
    fn single_transfer_timing() {
        let mut b = bus();
        let t = b.book_transfer(SimTime::from_secs(10), NodeId::new(0), NodeId::new(1), 750_000);
        assert_eq!(t.starts_at, SimTime::from_secs(10));
        // setup 200 ms + 1 s transmission.
        assert_eq!(t.completes_at, SimTime::from_millis(11_200));
        assert_eq!(b.bytes_moved(), 750_000);
        assert_eq!(b.transfers_booked(), 1);
    }

    #[test]
    fn concurrent_transfers_serialize_fifo() {
        let mut b = bus();
        let t0 = SimTime::ZERO;
        let first = b.book_transfer(t0, NodeId::new(0), NodeId::new(1), 750_000);
        let second = b.book_transfer(t0, NodeId::new(2), NodeId::new(3), 750_000);
        let third = b.book_transfer(t0, NodeId::new(4), NodeId::new(5), 750_000);
        assert_eq!(second.starts_at, first.completes_at);
        assert_eq!(third.starts_at, second.completes_at);
        assert_eq!(b.backlog_at(t0), third.completes_at.saturating_since(t0));
    }

    #[test]
    fn bus_frees_up_between_spaced_transfers() {
        let mut b = bus();
        let first = b.book_transfer(SimTime::ZERO, NodeId::new(0), NodeId::new(1), 100_000);
        assert_eq!(b.backlog_at(SimTime::from_hours(1)), SimDuration::ZERO);
        let second = b.book_transfer(SimTime::from_hours(1), NodeId::new(1), NodeId::new(0), 100_000);
        assert_eq!(second.starts_at, SimTime::from_hours(1));
        assert!(second.starts_at > first.completes_at);
    }

    #[test]
    fn utilization_fraction() {
        let mut b = bus();
        // Occupies 1.2 s of the first 12 s.
        b.book_transfer(SimTime::ZERO, NodeId::new(0), NodeId::new(1), 750_000);
        let u = b.utilization(SimTime::from_secs(12));
        assert!((u - 0.1).abs() < 1e-9, "utilization {u}");
        assert_eq!(b.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn utilization_excludes_future_overhang() {
        let mut b = bus();
        b.book_transfer(SimTime::ZERO, NodeId::new(0), NodeId::new(1), 7_500_000); // ~10.2 s
        // At t=5 s the transfer is still running; only 5 s of busy counts.
        let u = b.utilization(SimTime::from_secs(5));
        assert!((u - 1.0).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn utilization_is_exact_across_an_idle_gap() {
        let mut b = bus();
        // Run one: [0, 1.2 s]. Run two: [10, 11.2 s].
        b.book_transfer(SimTime::ZERO, NodeId::new(0), NodeId::new(1), 750_000);
        b.book_transfer(SimTime::from_secs(10), NodeId::new(2), NodeId::new(3), 750_000);
        // Query inside the gap, before the last booking: only the first
        // run has elapsed. The naive overhang subtraction would report 0.
        let u = b.utilization(SimTime::from_secs(5));
        assert!((u - 1.2 / 5.0).abs() < 1e-9, "utilization {u}");
        // Query inside the second run: the gap stays excluded.
        let u = b.utilization(SimTime::from_millis(10_600));
        assert!((u - 1.8 / 10.6).abs() < 1e-9, "utilization {u}");
        // Query after both runs: the full 2.4 s counts.
        let u = b.utilization(SimTime::from_secs(12));
        assert!((u - 2.4 / 12.0).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    fn backlog_before_last_booking_reports_the_real_wait() {
        let mut b = bus();
        b.book_transfer(SimTime::from_secs(10), NodeId::new(0), NodeId::new(1), 750_000);
        // The medium never backfills: a booking requested at 5 s would
        // still start at busy_until (11.2 s), so the reported backlog is
        // that full wait, idle gap included.
        assert_eq!(b.backlog_at(SimTime::from_secs(5)), SimDuration::from_millis(6_200));
        assert_eq!(b.backlog_at(SimTime::from_millis(11_200)), SimDuration::ZERO);
    }

    #[test]
    fn paper_image_transfer_takes_seconds() {
        // A half-megabyte checkpoint (the paper's observed average) should
        // take on the order of a second on period hardware — the medium is
        // not the 5 s/MB bottleneck; the end-host copying is (see
        // condor-model's cost model).
        let mut b = bus();
        let t = b.book_transfer(SimTime::ZERO, NodeId::new(0), NodeId::new(1), 500_000);
        let d = t.completes_at.saturating_since(SimTime::ZERO);
        assert!(d >= SimDuration::from_millis(500) && d <= SimDuration::from_secs(2), "{d}");
    }
}
