//! Validation of the owner-activity model against the paper's premises.
//!
//! The scheduler's results rest on the companion study's findings (ref. \[1\]
//! of the paper): only ~30% of workstation capacity is used by owners,
//! available intervals are often long, and interval lengths are positively
//! autocorrelated. This experiment recomputes those statistics from a
//! simulated month's owner trace — validating the substituted stochastic
//! model, not just consuming it.

use condor_core::cluster::Run;
use condor_core::telemetry::SharedSink;
use condor_metrics::availability::AvailabilitySink;
use condor_metrics::table::{num, Table};
use condor_workload::scenarios::paper_month;

use super::Ctx;
use crate::EXPERIMENT_SEED;

pub(super) fn run(_: &Ctx) {
    let mut scenario = paper_month(EXPERIMENT_SEED);
    // The profile streams out of the event feed as the month simulates —
    // no buffered trace, so the run holds no event storage at all.
    scenario.config.record_trace = false;
    let sink = SharedSink::new(AvailabilitySink::new(scenario.config.stations));
    let _out = Run::new(scenario.config)
        .specs(scenario.jobs)
        .horizon(scenario.horizon)
        .sink(Box::new(sink.clone()))
        .execute();
    let profile = sink.with(|s| s.profile());

    println!("== ref [1] premises: workstation availability profile (simulated month) ==");
    let mut t = Table::labelled(&[
        "Station",
        "Available",
        "Idle intervals",
        "Mean interval (h)",
        "Lag-1 autocorr",
    ]);
    for s in &profile.stations {
        t.row(vec![
            s.station.to_string(),
            format!("{:.0}%", s.available_fraction * 100.0),
            s.intervals.to_string(),
            num(s.mean_interval_hours, 1),
            s.interval_autocorr
                .map(|a| num(a, 2))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "fleet availability      : {:.0}%   (paper: 'only 30% of their capacity was utilized')",
        profile.mean_available * 100.0
    );
    println!(
        "mean available interval : {:.1} h  (paper: 'available intervals were often very long')",
        profile.mean_interval_hours
    );
    println!(
        "mean lag-1 autocorr     : {:+.2}  (paper: long intervals follow long intervals)",
        profile.mean_autocorr
    );
    // Station heterogeneity: some machines are much better cycle sources.
    let best = profile
        .stations
        .iter()
        .map(|s| s.mean_interval_hours)
        .fold(0.0f64, f64::max);
    let worst = profile
        .stations
        .iter()
        .map(|s| s.mean_interval_hours)
        .fold(f64::INFINITY, f64::min);
    println!(
        "interval heterogeneity  : best station {best:.1} h vs worst {worst:.1} h — why history-aware placement works"
    );
    assert!(profile.mean_available > 0.6 && profile.mean_available < 0.9);
    assert!(profile.mean_autocorr > 0.0, "autocorrelation must be positive");
    assert!(best > 1.5 * worst, "stations must differ");
}
