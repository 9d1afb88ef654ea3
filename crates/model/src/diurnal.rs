//! Diurnal/weekly modulation of owner activity.
//!
//! Figure 6 of the paper shows local utilization swinging from ~20% at
//! night to ~50% afternoon peaks on weekdays, with weekends flat and quiet.
//! A [`DiurnalProfile`] maps an instant to a target *activity level* — the
//! long-run fraction of time an owner is using their workstation at that
//! time of week — which the owner-activity process then realises
//! stochastically.

use std::sync::Arc;

use condor_sim::time::{SimDuration, SimTime};

/// Hour-by-hour activity levels over a week.
///
/// The week starts at simulated time zero, which is **Monday 00:00** by
/// convention; experiment binaries label their axes accordingly.
///
/// Cloning shares the table: a fleet's owner processes each hold a copy of
/// their `OwnerConfig`, and ten thousand private 168-entry tables would be
/// megabytes that every owner transition then scatters its reads over.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalProfile {
    /// 168 hourly activity levels in `[0, 1]`, Monday 00:00 first.
    hourly: Arc<[f64]>,
}

impl DiurnalProfile {
    /// Builds a profile from 168 hourly levels.
    ///
    /// # Panics
    ///
    /// Panics unless exactly 168 values in `[0, 1]` are given.
    fn from_hourly(hourly: Vec<f64>) -> Self {
        assert_eq!(hourly.len(), 168, "a week has 168 hours");
        for &v in &hourly {
            assert!((0.0..=1.0).contains(&v), "activity level {v} outside [0, 1]");
        }
        DiurnalProfile { hourly: hourly.into() }
    }

    /// A constant activity level at all hours.
    pub fn flat(level: f64) -> Self {
        DiurnalProfile::from_hourly(vec![level; 168])
    }

    /// The paper's departmental pattern: weekday nights quiet, mornings
    /// ramping, afternoon peaks near 50–60%, evenings tapering; weekends
    /// uniformly light. Calibrated so the *realised* local utilization of
    /// the owner process lands near the 25% reported in §3 (realised
    /// activity runs ~15% below the profile because idle intervals sampled
    /// during quiet hours stretch into busier ones).
    pub fn paper_department() -> Self {
        let mut hourly = Vec::with_capacity(168);
        for day in 0..7 {
            let weekend = day >= 5;
            for hour in 0..24 {
                let level = if weekend {
                    match hour {
                        10..=17 => 0.25,
                        _ => 0.18,
                    }
                } else {
                    match hour {
                        0..=7 => 0.12,
                        8..=11 => 0.45,
                        12..=16 => 0.58,
                        17..=21 => 0.35,
                        _ => 0.15,
                    }
                };
                hourly.push(level);
            }
        }
        DiurnalProfile::from_hourly(hourly)
    }

    /// The activity level at instant `t` (weeks repeat).
    pub fn level_at(&self, t: SimTime) -> f64 {
        let hour_of_week = (t % SimDuration::WEEK) / SimDuration::HOUR;
        self.hourly[hour_of_week as usize]
    }

    /// Mean activity level over the whole week.
    pub fn weekly_mean(&self) -> f64 {
        self.hourly.iter().sum::<f64>() / 168.0
    }

    /// Largest hourly level in the week.
    pub fn peak(&self) -> f64 {
        self.hourly.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_shape() {
        let p = DiurnalProfile::paper_department();
        // Monday 03:00 — night trough.
        assert_eq!(p.level_at(SimTime::from_hours(3)), 0.12);
        // Monday 14:00 — afternoon peak.
        assert_eq!(p.level_at(SimTime::from_hours(14)), 0.58);
        // Saturday 14:00 (day 5) — quiet weekend.
        assert_eq!(p.level_at(SimTime::from_hours(5 * 24 + 14)), 0.25);
        // Weekly mean near the paper's 25% local utilization (weekends pull
        // the whole-week figure under the weekday average).
        let mean = p.weekly_mean();
        assert!((0.22..=0.32).contains(&mean), "weekly mean {mean}");
        assert_eq!(p.peak(), 0.58);
    }

    #[test]
    fn weeks_repeat() {
        let p = DiurnalProfile::paper_department();
        let t = SimTime::from_hours(14);
        let next_week = t + SimDuration::WEEK;
        let in_a_month = t + SimDuration::WEEK * 4;
        assert_eq!(p.level_at(t), p.level_at(next_week));
        assert_eq!(p.level_at(t), p.level_at(in_a_month));
    }

    #[test]
    fn flat_profile() {
        let p = DiurnalProfile::flat(0.3);
        assert_eq!(p.level_at(SimTime::ZERO), 0.3);
        assert_eq!(p.level_at(SimTime::from_hours(100)), 0.3);
        assert!((p.weekly_mean() - 0.3).abs() < 1e-12);
        assert_eq!(p.peak(), 0.3);
    }

    #[test]
    #[should_panic(expected = "168 hours")]
    fn wrong_length_rejected() {
        DiurnalProfile::from_hourly(vec![0.5; 100]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_level_rejected() {
        let mut v = vec![0.5; 168];
        v[3] = 1.5;
        DiurnalProfile::from_hourly(v);
    }

    #[test]
    fn hour_boundaries() {
        let p = DiurnalProfile::paper_department();
        // 07:59:59.999 is still night; 08:00 flips to morning.
        assert_eq!(p.level_at(SimTime::from_millis(8 * 3_600_000 - 1)), 0.12);
        assert_eq!(p.level_at(SimTime::from_hours(8)), 0.45);
    }
}
