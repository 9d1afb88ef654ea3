//! Workspace-level live-runtime integration: the threaded mini-Condor
//! driven by the same stochastic owner model as the simulator, with result
//! correctness verified against uninterrupted reference runs.

use std::time::Duration;

use condor::model::diurnal::DiurnalProfile;
use condor::model::owner::OwnerConfig;
use condor::runtime::owners::OwnerSimulator;
use condor::runtime::program::{run_to_completion, JobProgram, MonteCarloPi, PrimeCounter, SeriesSum};
use condor::runtime::runtime::{Runtime, RuntimeConfig};

#[test]
fn live_pool_under_stochastic_owners_produces_exact_results() {
    let mut rt = Runtime::new(RuntimeConfig {
        workers: 4,
        slice_units: 1_000,
        poll_interval: Duration::from_millis(10),
        grace: Duration::from_millis(25),
    });

    // Reference results computed straight.
    let programs: [Box<dyn JobProgram>; 3] = [
        Box::new(PrimeCounter::new(60_000)),
        Box::new(MonteCarloPi::new(5, 8_000_000)),
        Box::new(SeriesSum::new(30_000_000, 1_000_003)),
    ];
    let expected: Vec<(u64, Vec<u8>)> = (0..)
        .zip(programs)
        .map(|(home, mut p)| (rt.submit(home, &*p), run_to_completion(&mut *p)))
        .collect();

    // Aggressive owners at a compressed timescale.
    let owners = OwnerSimulator::start(
        rt.owner_flags(),
        OwnerConfig {
            profile: DiurnalProfile::flat(0.4),
            mean_active_period: condor_sim::time::SimDuration::from_minutes(3),
        },
        Duration::from_millis(3), // 1 sim minute = 3 ms
        99,
    );

    let report = rt.run(Duration::from_secs(120));
    let transitions = owners.stop();
    // Drain any stragglers with owners gone.
    let report = if report.unfinished.is_empty() {
        report
    } else {
        rt.run(Duration::from_secs(120))
    };
    assert!(report.unfinished.is_empty(), "{report:?}");
    assert!(transitions > 0, "owners must have come and gone");
    for (job, want) in expected {
        assert_eq!(report.results[&job], want, "job {job} corrupted");
    }
    rt.shutdown();
}
