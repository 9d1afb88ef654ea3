//! Live cluster: the real-thread mini-Condor.
//!
//! Worker threads play workstations; real computations (prime counting,
//! Monte-Carlo π) run in metered slices; "owners" sit down at random and
//! the jobs are suspended, checkpointed, and migrated — finishing with
//! exactly the results an uninterrupted run would produce.
//!
//! Run with: `cargo run --release --example live_cluster`

use std::time::Duration;

use condor::runtime::program::{run_to_completion, MonteCarloPi, PrimeCounter};
use condor::runtime::runtime::{Runtime, RuntimeConfig};

fn main() {
    let config = RuntimeConfig {
        workers: 4,
        slice_units: 2_000,
        poll_interval: Duration::from_millis(20), // "2 minutes", scaled
        grace: Duration::from_millis(50),         // "5 minutes", scaled
    };
    let mut rt = Runtime::new(config);

    // Reference results, computed straight.
    let primes_expected = run_to_completion(&mut PrimeCounter::new(400_000));
    let pi_prog = MonteCarloPi::new(2_026, 120_000_000);
    let pi_expected = {
        let mut p = pi_prog.clone();
        run_to_completion(&mut p)
    };

    println!("submitting two real computations to a 4-worker pool…");
    let j_primes = rt.submit(0, &PrimeCounter::new(400_000));
    let j_pi = rt.submit(1, &pi_prog);

    // Owners wander in and out while the jobs run: one owner is at their
    // machine at any moment, rotating across the pool, so whichever
    // station hosts a job is regularly reclaimed. Each sitting (80 ms)
    // outlasts the scaled grace period (50 ms), so some reclaims turn
    // into eviction checkpoints and migrations, not just pauses.
    let mut report = None;
    for round in 0..1_000usize {
        let victim = round % 4;
        for w in 0..4 {
            rt.set_owner_active(w, w == victim);
        }
        let r = rt.run(Duration::from_millis(80));
        if r.unfinished.is_empty() {
            report = Some(r);
            break;
        }
    }
    for w in 0..4 {
        rt.set_owner_active(w, false);
    }
    let report = report.unwrap_or_else(|| rt.run(Duration::from_secs(120)));

    println!("\npolls run          : {}", report.polls);
    println!("owner interruptions: {}", report.interruptions);
    println!("in-place resumes   : {}", report.resumes_in_place);
    println!("eviction migrations: {}", report.migrations);
    assert!(report.unfinished.is_empty(), "jobs must complete: {report:?}");

    let primes = u64::from_le_bytes(report.results[&j_primes].clone().try_into().unwrap());
    println!("\nprimes below 400000: {primes}");
    assert_eq!(report.results[&j_primes], primes_expected, "prime result corrupted");

    let pi_bytes = &report.results[&j_pi];
    let inside = u64::from_le_bytes(pi_bytes[..8].try_into().unwrap());
    let total = u64::from_le_bytes(pi_bytes[8..].try_into().unwrap());
    println!("π estimate         : {:.5} from {total} samples", 4.0 * inside as f64 / total as f64);
    assert_eq!(pi_bytes, &pi_expected, "π result corrupted by migration");

    println!("\nboth results are bit-identical to uninterrupted runs —");
    println!("checkpointed migration lost no work and changed no answers (paper §2.3).");
    let units = rt.shutdown();
    println!("total work units executed across workers: {units}");
}
