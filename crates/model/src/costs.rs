//! The cost model: every constant the paper reports or implies.
//!
//! The control-plane intervals and per-operation costs live here so that
//! experiments reference one authoritative source. They are the paper's
//! measured values on VAXstation II hardware (§2.1, §3.1), and no run
//! changes them, so they are constants; only the coordinator's poll
//! interval is settable ([`CostModel`]). The §4 policy constants, the
//! five-minute eviction grace and the one placement per poll, are
//! scheduler knobs on the cluster configuration instead.

use condor_sim::time::SimDuration;

/// One megabyte, the unit of the paper's "5 seconds per megabyte" rule.
pub const MEGABYTE: u64 = 1_000_000;

/// How often a local scheduler checks for owner activity while a foreign
/// job runs (paper §2.1: every ½ minute).
pub const OWNER_CHECK_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Local CPU consumed to place or checkpoint a job, per megabyte of image
/// (paper §3.1: ≈ 5 seconds per megabyte).
const TRANSFER_CPU_PER_MB: SimDuration = SimDuration::from_secs(5);

/// Local CPU consumed on the *home* workstation for each remote system call
/// executed through the shadow (paper §3.1: ≈ 10 ms, twenty times the cost
/// of the same call executed locally).
pub const REMOTE_SYSCALL_COST: SimDuration = SimDuration::from_millis(10);

/// Fraction of a workstation's capacity consumed by its local scheduler
/// while hosting or submitting (paper §3.1: < 1%).
pub const LOCAL_SCHEDULER_OVERHEAD: f64 = 0.005;

/// Fraction of the hosting workstation's capacity consumed by the central
/// coordinator (paper §3.1: < 1% even at 40 stations).
pub const COORDINATOR_OVERHEAD: f64 = 0.005;

/// The settable part of the control plane.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// How often the central coordinator polls all stations (paper §2.1:
    /// every two minutes).
    pub coordinator_poll_interval: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { coordinator_poll_interval: SimDuration::from_minutes(2) }
    }
}

/// Local CPU charged to the home workstation for moving an image of
/// `bytes` (placement **or** checkpoint — the paper treats them
/// symmetrically).
pub fn transfer_cpu_cost(bytes: u64) -> SimDuration {
    TRANSFER_CPU_PER_MB.mul_f64(bytes as f64 / MEGABYTE as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        assert_eq!(CostModel::default().coordinator_poll_interval, SimDuration::from_secs(120));
        const { assert!(LOCAL_SCHEDULER_OVERHEAD < 0.01 && COORDINATOR_OVERHEAD < 0.01) };
    }

    #[test]
    fn half_megabyte_costs_two_and_a_half_seconds() {
        // Paper §3.1: average image 0.5 MB → ≈ 2.5 s per move.
        assert_eq!(transfer_cpu_cost(MEGABYTE / 2), SimDuration::from_millis(2_500));
    }

    #[test]
    fn transfer_cost_is_linear_in_size() {
        assert_eq!(transfer_cpu_cost(0), SimDuration::ZERO);
        assert_eq!(transfer_cpu_cost(MEGABYTE), SimDuration::from_secs(5));
        assert_eq!(transfer_cpu_cost(3 * MEGABYTE), SimDuration::from_secs(15));
    }
}
