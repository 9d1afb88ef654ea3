//! Live owner simulation: the condor-model owner process driving real
//! worker threads.
//!
//! The cluster simulator and the live runtime share one model of owner
//! behaviour. [`OwnerSimulator`] samples each station's [`OwnerProcess`]
//! dwell times, scales them down to wall-clock milliseconds, and toggles
//! the workers' owner-activity flags accordingly — so a live run sees the
//! same statistical interference pattern as a simulated month, just
//! compressed. The owner thread sleeps until the next owner is due to
//! flip, or until it is stopped.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use condor_model::owner::{build_fleet, OwnerConfig, OwnerProcess, OwnerState};
use condor_sim::rng::SimRng;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

/// Drives the owner flags of a set of live workers.
#[derive(Debug)]
pub struct OwnerSimulator {
    /// Sending on it, or dropping it, stops the owner thread.
    stop: Sender<()>,
    join: Option<JoinHandle<u64>>,
}

impl OwnerSimulator {
    /// Starts the simulator over the given worker flags. Every flag holds
    /// its owner's initial state when this returns — the fleet is drawn and
    /// published on the caller's thread, before the owner thread exists.
    ///
    /// `sim_minute` is how much wall time one simulated minute takes —
    /// e.g. `Duration::from_millis(10)` compresses the paper's 2-minute
    /// poll to 20 ms.
    ///
    /// # Panics
    ///
    /// Panics if `flags` is empty or `sim_minute` is zero.
    pub fn start(
        flags: Vec<Arc<AtomicBool>>,
        config: OwnerConfig,
        sim_minute: Duration,
        seed: u64,
    ) -> OwnerSimulator {
        assert!(!flags.is_empty(), "no workers to drive");
        assert!(!sim_minute.is_zero(), "zero time scale");
        let processes = build_fleet(flags.len(), &config, 0.3, seed);
        for (flag, process) in flags.iter().zip(&processes) {
            flag.store(process.state() == OwnerState::Active, Ordering::SeqCst);
        }
        let (stop, stop_rx) = crossbeam::channel::unbounded();
        let join = std::thread::Builder::new()
            .name("condor-owners".into())
            .spawn(move || owner_loop(&flags, processes, sim_minute, seed, &stop_rx))
            .expect("spawn owner simulator");
        OwnerSimulator {
            stop,
            join: Some(join),
        }
    }

    /// Stops the simulator, clears every owner flag, and returns the total
    /// number of owner transitions it performed. A panic on the owner
    /// thread resumes here.
    pub fn stop(mut self) -> u64 {
        match self.halt() {
            Some(Ok(transitions)) => transitions,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => 0,
        }
    }

    /// Stops and joins the owner thread, the first time only.
    fn halt(&mut self) -> Option<std::thread::Result<u64>> {
        let join = self.join.take()?;
        let _ = self.stop.send(());
        Some(join.join())
    }
}

impl Drop for OwnerSimulator {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// Drives `flags` from `processes`, whose initial states the caller has
/// already published.
fn owner_loop(
    flags: &[Arc<AtomicBool>],
    mut processes: Vec<OwnerProcess>,
    sim_minute: Duration,
    seed: u64,
    stop: &Receiver<()>,
) -> u64 {
    let n = flags.len();
    let root = SimRng::seed_from(seed);
    let mut rngs: Vec<SimRng> = (0..n)
        .map(|i| root.substream(seed, &format!("live-owner-{i}")))
        .collect();
    let scale = sim_minute.as_secs_f64() / 60.0; // wall seconds per sim second
    let start = Instant::now();
    // Simulated clock runs via the scale factor from real elapsed time.
    let mut sim_now = condor_sim::time::SimTime::ZERO;
    let mut deadlines: Vec<(Instant, OwnerState)> = Vec::with_capacity(n);
    let mut transitions = 0u64;
    for i in 0..n {
        let dwell = processes[i].dwell_and_flip(sim_now, &mut rngs[i]);
        let real = Duration::from_secs_f64(dwell.as_secs_f64() * scale);
        deadlines.push((start + real, processes[i].state()));
    }
    loop {
        let next = deadlines.iter().map(|&(at, _)| at).min().unwrap_or(start);
        match stop.recv_timeout(next.saturating_duration_since(Instant::now())) {
            Err(RecvTimeoutError::Timeout) => {}
            Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = Instant::now();
        sim_now = condor_sim::time::SimTime::from_millis(
            ((now - start).as_secs_f64() / scale * 1_000.0) as u64,
        );
        for i in 0..n {
            if now >= deadlines[i].0 {
                let entering = deadlines[i].1;
                flags[i].store(entering == OwnerState::Active, Ordering::SeqCst);
                transitions += 1;
                let dwell = processes[i].dwell_and_flip(sim_now, &mut rngs[i]);
                let real = Duration::from_secs_f64(dwell.as_secs_f64() * scale);
                deadlines[i] = (now + real.max(Duration::from_micros(200)), processes[i].state());
            }
        }
    }
    for f in flags {
        f.store(false, Ordering::SeqCst);
    }
    transitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use condor_model::diurnal::DiurnalProfile;

    fn flags(n: usize) -> Vec<Arc<AtomicBool>> {
        (0..n).map(|_| Arc::new(AtomicBool::new(false))).collect()
    }

    #[test]
    fn owners_flip_flags_over_time() {
        let f = flags(3);
        let config = OwnerConfig {
            profile: DiurnalProfile::flat(0.5),
            mean_active_period: condor_sim::time::SimDuration::from_minutes(2),
        };
        // 1 sim minute = 2 ms → flips every few ms.
        let sim = OwnerSimulator::start(f.clone(), config, Duration::from_millis(2), 42);
        let initial: Vec<bool> = f.iter().map(|x| x.load(Ordering::SeqCst)).collect();
        let mut observed_active = false;
        let mut observed_idle = false;
        let mut changed = false;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline && !(observed_active && observed_idle && changed) {
            for (i, flag) in f.iter().enumerate() {
                let v = flag.load(Ordering::SeqCst);
                if v {
                    observed_active = true;
                } else {
                    observed_idle = true;
                }
                if v != initial[i] {
                    changed = true;
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let transitions = sim.stop();
        assert!(observed_active, "some owner must sit down");
        assert!(observed_idle, "some owner must be away");
        assert!(changed, "at least one owner must flip");
        assert!(transitions > 0, "transitions {transitions}");
        // Stop clears all flags.
        assert!(f.iter().all(|x| !x.load(Ordering::SeqCst)));
    }

    #[test]
    fn stop_wakes_an_owner_thread_waiting_for_a_distant_flip() {
        let f = flags(2);
        let config = OwnerConfig {
            profile: DiurnalProfile::flat(0.5),
            mean_active_period: condor_sim::time::SimDuration::from_minutes(60),
        };
        // 1 sim minute = 1 s: the next flip is most likely minutes away.
        let sim = OwnerSimulator::start(f.clone(), config, Duration::from_secs(1), 5);
        std::thread::sleep(Duration::from_millis(20));
        let t0 = Instant::now();
        sim.stop();
        assert!(t0.elapsed() < Duration::from_secs(1), "stop waited for a flip");
        assert!(f.iter().all(|x| !x.load(Ordering::SeqCst)));
    }

    #[test]
    fn drop_stops_the_thread() {
        let f = flags(1);
        let sim = OwnerSimulator::start(
            f,
            OwnerConfig::default(),
            Duration::from_millis(5),
            7,
        );
        drop(sim); // must not hang
    }
}
