//! The owner-activity process: when is a workstation's owner at the keyboard?
//!
//! Each station alternates between **Active** (owner using it — Condor must
//! stay away) and **Idle** (available as a cycle server). The process has
//! three structural features taken from the paper and its companion study
//! (Mutka & Livny, *Profiling Workstations' Available Capacity*, ref. \[1\]):
//!
//! 1. **Diurnal/weekly modulation** — the probability of being active
//!    follows a [`DiurnalProfile`] (afternoon peaks, quiet nights and
//!    weekends), realised by stretching idle periods when target activity
//!    is low;
//! 2. **Regime persistence** — stations that just had a long available
//!    interval tend to have another long one (and vice versa). A latent
//!    two-state regime (Long/Short) persists across intervals with
//!    a fixed probability (0.8), multiplying idle durations by
//!    reciprocal factors so the *mean* stays on target while
//!    autocorrelation appears;
//! 3. **Station heterogeneity** — owners differ; [`build_fleet`] gives each
//!    owner its own activity scale so some machines are habitually busier
//!    than others.

use std::fmt;
use std::sync::Arc;

use condor_sim::rng::SimRng;
use condor_sim::time::{SimDuration, SimTime};

use crate::diurnal::DiurnalProfile;

/// Whether the owner is using the workstation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OwnerState {
    /// The owner is at the keyboard; no foreign job may run.
    Active,
    /// The station is idle and available as a source of remote cycles.
    Idle,
}

impl OwnerState {
    /// The other state.
    pub fn flipped(self) -> OwnerState {
        match self {
            OwnerState::Active => OwnerState::Idle,
            OwnerState::Idle => OwnerState::Active,
        }
    }
}

/// Probability that the availability regime persists from one idle
/// interval to the next (0.5 would be no correlation). A calibration of
/// the companion study's finding (paper ref. \[1\]) that long available
/// intervals follow long ones.
const REGIME_PERSISTENCE: f64 = 0.8;

/// Idle-duration multiplier in the Long regime; the Short regime uses
/// `2 - LONG_REGIME_FACTOR`, so the expected multiplier is 1.
const LONG_REGIME_FACTOR: f64 = 1.6;

/// Latent availability regime (paper ref. \[1\]: interval lengths are
/// positively autocorrelated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    Long,
    Short,
}

/// Parameters of the owner-activity process.
#[derive(Debug, Clone, PartialEq)]
pub struct OwnerConfig {
    /// Weekly activity-level profile.
    pub profile: DiurnalProfile,
    /// Mean length of one active (owner-present) period.
    pub mean_active_period: SimDuration,
}

impl Default for OwnerConfig {
    fn default() -> Self {
        OwnerConfig {
            profile: DiurnalProfile::paper_department(),
            mean_active_period: SimDuration::from_minutes(30),
        }
    }
}

/// An owner parameter outside its range, found by [`OwnerConfig::check`]
/// or [`check_spread`]. NaN is outside every range.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum OwnerConfigError {
    /// A zero `mean_active_period`.
    ZeroActivePeriod,
    /// A heterogeneity spread outside `[0, 1)`, which would give some
    /// station a scale of zero or less.
    HeterogeneitySpread(f64),
}

impl fmt::Display for OwnerConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OwnerConfigError::ZeroActivePeriod => f.write_str("zero active period"),
            OwnerConfigError::HeterogeneitySpread(v) => write!(f, "spread {v} outside [0, 1)"),
        }
    }
}

impl std::error::Error for OwnerConfigError {}

impl OwnerConfig {
    /// Checks every parameter against its range.
    pub fn check(&self) -> Result<(), OwnerConfigError> {
        if self.mean_active_period.is_zero() {
            return Err(OwnerConfigError::ZeroActivePeriod);
        }
        Ok(())
    }
}

/// Checks a [`build_fleet`] heterogeneity spread: station scales are drawn
/// from `[1 − spread, 1 + spread]`, so the spread lies in `[0, 1)`.
pub fn check_spread(spread: f64) -> Result<(), OwnerConfigError> {
    if (0.0..1.0).contains(&spread) {
        Ok(())
    } else {
        Err(OwnerConfigError::HeterogeneitySpread(spread))
    }
}

/// The constructors' contract: an out-of-range parameter is a caller bug.
fn assert_in_range(checked: Result<(), OwnerConfigError>) {
    if let Err(e) = checked {
        panic!("{e}");
    }
}

/// One station's owner, stepped by the cluster simulation.
///
/// The process keeps only what is its own — the owner's activity scale,
/// the state it flips into next and the latent regime — and shares the
/// rest of its [`OwnerConfig`] with every other owner built from the same
/// one ([`build_fleet`] allocates the configuration once per fleet). A
/// fleet-scale cluster walks ten thousand of these at every poll, so the
/// three words an owner takes are three words of every poll's working set.
///
/// # Examples
///
/// ```
/// use condor_model::owner::{OwnerConfig, OwnerProcess, OwnerState};
/// use condor_sim::rng::SimRng;
/// use condor_sim::time::SimTime;
///
/// let mut rng = SimRng::seed_from(1);
/// let mut owner = OwnerProcess::new(OwnerConfig::default(), &mut rng);
/// let dwell = owner.dwell_and_flip(SimTime::ZERO, &mut rng);
/// assert!(!dwell.is_zero());
/// ```
#[derive(Debug, Clone)]
pub struct OwnerProcess {
    /// Shared by the fleet.
    config: Arc<OwnerConfig>,
    /// Multiplier on the profile's activity level (1.0 = typical owner;
    /// busier owners > 1).
    activity_scale: f64,
    state: OwnerState,
    regime: Regime,
}

// Three words: the cluster keeps one per station in its densest array, and
// a private copy of the configuration here (56 bytes, one heap-shared
// profile handle each) was most of what an owner transition dragged
// through the cache.
const _: () = assert!(std::mem::size_of::<OwnerProcess>() <= 24);

impl OwnerProcess {
    /// Creates the process, drawing the initial state from the profile's
    /// level at time zero.
    ///
    /// # Panics
    ///
    /// Panics if [`OwnerConfig::check`] rejects `config`.
    pub fn new(config: OwnerConfig, rng: &mut SimRng) -> Self {
        assert_in_range(config.check());
        Self::sharing(Arc::new(config), 1.0, rng)
    }

    /// One owner of a fleet: `config` is the fleet's (already validated),
    /// `activity_scale` this owner's own.
    fn sharing(config: Arc<OwnerConfig>, activity_scale: f64, rng: &mut SimRng) -> Self {
        let a = Self::effective_activity(&config, activity_scale, SimTime::ZERO);
        let state = if rng.chance(a) {
            OwnerState::Active
        } else {
            OwnerState::Idle
        };
        let regime = if rng.chance(0.5) { Regime::Long } else { Regime::Short };
        OwnerProcess { config, activity_scale, state, regime }
    }

    /// The current state.
    pub fn state(&self) -> OwnerState {
        self.state
    }

    fn effective_activity(config: &OwnerConfig, activity_scale: f64, now: SimTime) -> f64 {
        (config.profile.level_at(now) * activity_scale).clamp(0.005, 0.95)
    }

    /// Draws how long the *current* state lasts starting at `now`, then
    /// flips into the next state. The caller schedules the transition event
    /// `dwell` in the future.
    pub fn dwell_and_flip(&mut self, now: SimTime, rng: &mut SimRng) -> SimDuration {
        let a = Self::effective_activity(&self.config, self.activity_scale, now);
        let mean_active_s = self.config.mean_active_period.as_secs_f64();
        let dwell_s = match self.state {
            OwnerState::Active => rng.exponential(mean_active_s),
            OwnerState::Idle => {
                // Possibly switch regime, then stretch/shrink the idle
                // interval by the regime factor.
                if !rng.chance(REGIME_PERSISTENCE) {
                    self.regime = match self.regime {
                        Regime::Long => Regime::Short,
                        Regime::Short => Regime::Long,
                    };
                }
                let factor = match self.regime {
                    Regime::Long => LONG_REGIME_FACTOR,
                    Regime::Short => 2.0 - LONG_REGIME_FACTOR,
                };
                // Stationary activity = active / (active + idle) = a
                // → mean idle = mean_active · (1 − a)/a.
                let mean_idle_s = mean_active_s * (1.0 - a) / a;
                rng.exponential(mean_idle_s * factor)
            }
        };
        self.state = self.state.flipped();
        // At least one millisecond so transition events always advance time.
        SimDuration::from_secs_f64(dwell_s).max(SimDuration::MILLISECOND)
    }
}

/// Builds a heterogeneous fleet of owner processes with per-station
/// substreams, so adding stations never perturbs existing ones.
///
/// Station activity scales are spread uniformly over
/// `[1 − spread, 1 + spread]`.
///
/// # Panics
///
/// Panics if [`check_spread`] rejects the spread or
/// [`OwnerConfig::check`] rejects `base`.
pub fn build_fleet(
    n: usize,
    base: &OwnerConfig,
    heterogeneity_spread: f64,
    seed: u64,
) -> Vec<OwnerProcess> {
    assert_in_range(check_spread(heterogeneity_spread));
    assert_in_range(base.check());
    let shared = Arc::new(base.clone());
    let root = SimRng::seed_from(seed);
    (0..n)
        .map(|i| {
            let mut rng = root.substream(seed, &format!("owner-{i}"));
            let scale = if heterogeneity_spread == 0.0 {
                1.0
            } else {
                rng.uniform_range_f64(1.0 - heterogeneity_spread, 1.0 + heterogeneity_spread)
            };
            OwnerProcess::sharing(shared.clone(), scale, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulate one owner with activity scale `scale` for `horizon` and
    /// return the fraction of time spent Active.
    fn active_fraction(config: OwnerConfig, scale: f64, seed: u64, horizon: SimDuration) -> f64 {
        let mut rng = SimRng::seed_from(seed);
        let mut p = OwnerProcess::sharing(Arc::new(config), scale, &mut rng);
        let mut now = SimTime::ZERO;
        let end = SimTime::ZERO + horizon;
        let mut active = SimDuration::ZERO;
        while now < end {
            let state = p.state();
            let dwell = p.dwell_and_flip(now, &mut rng);
            let until = (now + dwell).min(end);
            if state == OwnerState::Active {
                active += until.since(now);
            }
            now += dwell;
        }
        active.as_secs_f64() / horizon.as_secs_f64()
    }

    #[test]
    fn long_run_activity_tracks_profile_mean() {
        let cfg = OwnerConfig::default();
        let target = cfg.profile.weekly_mean();
        let got = active_fraction(cfg, 1.0, 42, SimDuration::from_days(56));
        assert!(
            (got - target).abs() < 0.05,
            "activity {got} vs profile mean {target}"
        );
    }

    #[test]
    fn flat_profile_hits_exact_target() {
        let cfg = OwnerConfig {
            profile: DiurnalProfile::flat(0.4),
            ..OwnerConfig::default()
        };
        let got = active_fraction(cfg, 1.0, 7, SimDuration::from_days(60));
        assert!((got - 0.4).abs() < 0.03, "activity {got}");
    }

    #[test]
    fn busier_owner_is_busier() {
        let cfg = OwnerConfig {
            profile: DiurnalProfile::flat(0.3),
            ..OwnerConfig::default()
        };
        let f_base = active_fraction(cfg.clone(), 1.0, 11, SimDuration::from_days(40));
        let f_busy = active_fraction(cfg, 1.5, 11, SimDuration::from_days(40));
        assert!(
            f_busy > f_base + 0.08,
            "busy {f_busy} should exceed base {f_base}"
        );
    }

    #[test]
    fn idle_interval_autocorrelation_is_positive() {
        // The persisting regime makes consecutive idle intervals correlate.
        let cfg = OwnerConfig {
            profile: DiurnalProfile::flat(0.3),
            ..OwnerConfig::default()
        };
        let mut rng = SimRng::seed_from(3);
        let mut p = OwnerProcess::new(cfg, &mut rng);
        let mut now = SimTime::ZERO;
        let mut idles = Vec::new();
        for _ in 0..40_000 {
            let state = p.state();
            let dwell = p.dwell_and_flip(now, &mut rng);
            if state == OwnerState::Idle {
                idles.push(dwell.as_secs_f64());
            }
            now += dwell;
        }
        let n = idles.len() - 1;
        let mean = idles.iter().sum::<f64>() / idles.len() as f64;
        let var = idles.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / idles.len() as f64;
        let cov = (0..n)
            .map(|i| (idles[i] - mean) * (idles[i + 1] - mean))
            .sum::<f64>()
            / n as f64;
        let autocorr = cov / var;
        assert!(autocorr > 0.05, "autocorr {autocorr} should be positive");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut rng = SimRng::seed_from(seed);
            let mut p = OwnerProcess::new(OwnerConfig::default(), &mut rng);
            dwells_ms(&mut p, &mut rng, 100)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn dwell_is_never_zero() {
        let mut rng = SimRng::seed_from(9);
        let mut p = OwnerProcess::new(OwnerConfig::default(), &mut rng);
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            let d = p.dwell_and_flip(now, &mut rng);
            assert!(!d.is_zero());
            now += d;
        }
    }

    #[test]
    fn fleet_is_heterogeneous_and_stable() {
        let base = OwnerConfig::default();
        let fleet = build_fleet(23, &base, 0.4, 99);
        assert_eq!(fleet.len(), 23);
        let scales: Vec<f64> = fleet.iter().map(|p| p.activity_scale).collect();
        let min = scales.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = scales.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.2, "fleet should vary: {min}..{max}");
        // Same seed → identical fleet.
        let fleet2 = build_fleet(23, &base, 0.4, 99);
        let scales2: Vec<f64> = fleet2.iter().map(|p| p.activity_scale).collect();
        assert_eq!(scales, scales2);
        // Prefix-stability: station i is the same in a bigger fleet.
        let bigger = build_fleet(40, &base, 0.4, 99);
        let scales3: Vec<f64> = bigger.iter().take(23).map(|p| p.activity_scale).collect();
        assert_eq!(scales, scales3);
    }

    fn dwells_ms(p: &mut OwnerProcess, rng: &mut SimRng, n: usize) -> Vec<u64> {
        let mut now = SimTime::ZERO;
        (0..n)
            .map(|_| {
                let d = p.dwell_and_flip(now, rng);
                now += d;
                d.as_millis()
            })
            .collect()
    }

    /// The draws themselves, not just their self-consistency: every golden
    /// digest downstream is a function of these numbers, so a change to
    /// what an owner stores must leave them exactly where they were.
    #[test]
    fn dwell_sequences_are_pinned() {
        let mut rng = SimRng::seed_from(1988);
        let mut solo = OwnerProcess::new(OwnerConfig::default(), &mut rng);
        assert_eq!(solo.state(), OwnerState::Idle);
        assert_eq!(
            dwells_ms(&mut solo, &mut rng, 16),
            [
                27792531, 3475615, 1767503, 134265, 219286, 1537047, 866000, 6130481, 7106433,
                197720, 1944878, 5741113, 1087285, 753737, 174715, 1616666
            ]
        );
        let mut fleet = build_fleet(23, &OwnerConfig::default(), 0.4, 99);
        let mut rng = SimRng::seed_from(99);
        assert_eq!(fleet[7].state(), OwnerState::Idle);
        assert_eq!(fleet[7].activity_scale, 0.7413412748425932);
        assert_eq!(
            dwells_ms(&mut fleet[7], &mut rng, 16),
            [
                47448865, 1207574, 4124333, 1329517, 1477438, 2131317, 1859906, 1169293, 1426334,
                631157, 16540623, 2254098, 8205419, 4231065, 54263726, 2094795
            ]
        );
    }

    #[test]
    fn a_fleet_shares_one_configuration() {
        let fleet = build_fleet(23, &OwnerConfig::default(), 0.4, 99);
        assert!(fleet.iter().all(|p| Arc::ptr_eq(&p.config, &fleet[0].config)));
    }
}
