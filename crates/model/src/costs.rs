//! The cost model: every constant the paper reports or implies.
//!
//! The control-plane intervals and per-operation costs live here so that
//! experiments can reference one authoritative source and ablations can
//! perturb a single knob. Defaults are the paper's measured values on
//! VAXstation II hardware (§2.1, §3.1). The §4 policy constants, the
//! five-minute eviction grace and the one placement per poll, are
//! scheduler knobs on the cluster configuration instead.

use condor_sim::time::SimDuration;

/// One megabyte, the unit of the paper's "5 seconds per megabyte" rule.
pub const MEGABYTE: u64 = 1_000_000;

/// Control-plane and per-operation costs of the Condor machinery.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// How often the central coordinator polls all stations (paper §2.1:
    /// every two minutes).
    pub coordinator_poll_interval: SimDuration,
    /// How often a local scheduler checks for owner activity while a
    /// foreign job runs (paper §2.1: every ½ minute).
    pub owner_check_interval: SimDuration,
    /// Local CPU consumed to place or checkpoint a job, per byte of image
    /// (paper §3.1: ≈ 5 seconds per megabyte).
    pub transfer_cpu_per_mb: SimDuration,
    /// Local CPU consumed on the *home* workstation for each remote system
    /// call executed through the shadow (paper §3.1: ≈ 10 ms, twenty times
    /// the cost of the same call executed locally).
    pub remote_syscall_cost: SimDuration,
    /// Fraction of a workstation's capacity consumed by its local scheduler
    /// while hosting or submitting (paper §3.1: < 1%).
    pub local_scheduler_overhead: f64,
    /// Fraction of the hosting workstation's capacity consumed by the
    /// central coordinator (paper §3.1: < 1% even at 40 stations).
    pub coordinator_overhead: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            coordinator_poll_interval: SimDuration::from_minutes(2),
            owner_check_interval: SimDuration::from_secs(30),
            transfer_cpu_per_mb: SimDuration::from_secs(5),
            remote_syscall_cost: SimDuration::from_millis(10),
            local_scheduler_overhead: 0.005,
            coordinator_overhead: 0.005,
        }
    }
}

impl CostModel {
    /// Local CPU charged to the home workstation for moving an image of
    /// `bytes` (placement **or** checkpoint — the paper treats them
    /// symmetrically).
    pub fn transfer_cpu_cost(&self, bytes: u64) -> SimDuration {
        self.transfer_cpu_per_mb
            .mul_f64(bytes as f64 / MEGABYTE as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = CostModel::default();
        assert_eq!(c.coordinator_poll_interval, SimDuration::from_secs(120));
        assert_eq!(c.owner_check_interval, SimDuration::from_secs(30));
        assert_eq!(c.transfer_cpu_per_mb, SimDuration::from_secs(5));
        assert_eq!(c.remote_syscall_cost, SimDuration::from_millis(10));
        assert!(c.local_scheduler_overhead < 0.01);
        assert!(c.coordinator_overhead < 0.01);
    }

    #[test]
    fn half_megabyte_costs_two_and_a_half_seconds() {
        // Paper §3.1: average image 0.5 MB → ≈ 2.5 s per move.
        let c = CostModel::default();
        assert_eq!(
            c.transfer_cpu_cost(MEGABYTE / 2),
            SimDuration::from_millis(2_500)
        );
    }

    #[test]
    fn transfer_cost_is_linear_in_size() {
        let c = CostModel::default();
        assert_eq!(c.transfer_cpu_cost(0), SimDuration::ZERO);
        assert_eq!(c.transfer_cpu_cost(MEGABYTE), SimDuration::from_secs(5));
        assert_eq!(c.transfer_cpu_cost(3 * MEGABYTE), SimDuration::from_secs(15));
    }
}
