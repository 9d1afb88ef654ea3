//! Resumable job programs: real computations that checkpoint.
//!
//! The simulator (condor-core) models jobs as abstract demand; the live
//! runtime executes *actual* computations on worker threads. A
//! [`JobProgram`] advances in metered steps, can snapshot its complete
//! state to bytes at any step boundary, and can be restored from a
//! snapshot **on a different worker** with bit-identical results — the
//! Remote Unix guarantee from paper §2.3, enforced here by tests that
//! interleave arbitrary checkpoint/restore cycles and compare results
//! against an uninterrupted run.
//!
//! Snapshots use the `condor-ckpt` codec, so the same CRC-framed format
//! protects live state as protects simulated images.

use bytes::Bytes;
use condor_ckpt::codec::{Decoder, Encoder};
use condor_ckpt::error::DecodeError;

/// Outcome of one metered step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More work remains.
    Running,
    /// The program has produced its result.
    Finished,
}

/// A checkpointable unit of real computation.
///
/// Contract: `snapshot` at any step boundary, followed by `restore` into a
/// fresh instance (possibly in another thread/process), must continue to
/// the *same* final result as an uninterrupted run.
pub trait JobProgram: Send {
    /// Stable identifier used to pick the right `restore` at the far end.
    fn kind(&self) -> &'static str;

    /// Performs up to `units` units of real work.
    fn step(&mut self, units: u64) -> StepOutcome;

    /// Total work units remaining (an estimate is fine; used for
    /// scheduling hints and progress reporting).
    fn remaining_units(&self) -> u64;

    /// Serialises the complete program state.
    fn snapshot(&self) -> Vec<u8>;

    /// The final result, once [`StepOutcome::Finished`] was returned.
    fn result(&self) -> Option<Vec<u8>>;
}

/// Restores a program from `(kind, snapshot)`.
///
/// # Errors
///
/// [`RestoreError::UnknownKind`] for unregistered kinds, or
/// [`RestoreError::Corrupt`] if the snapshot fails to decode.
pub fn restore(kind: &str, snapshot: &[u8]) -> Result<Box<dyn JobProgram>, RestoreError> {
    match kind {
        PrimeCounter::KIND => Ok(Box::new(PrimeCounter::from_snapshot(snapshot)?)),
        MonteCarloPi::KIND => Ok(Box::new(MonteCarloPi::from_snapshot(snapshot)?)),
        SeriesSum::KIND => Ok(Box::new(SeriesSum::from_snapshot(snapshot)?)),
        other => Err(RestoreError::UnknownKind { kind: other.to_string() }),
    }
}

/// Errors from [`restore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// No program registered under this kind.
    UnknownKind {
        /// The unrecognised kind string.
        kind: String,
    },
    /// The snapshot bytes failed validation.
    Corrupt(DecodeError),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::UnknownKind { kind } => write!(f, "unknown program kind {kind:?}"),
            RestoreError::Corrupt(e) => write!(f, "corrupt snapshot: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RestoreError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for RestoreError {
    fn from(e: DecodeError) -> Self {
        RestoreError::Corrupt(e)
    }
}

// ---------------------------------------------------------------------------

/// Counts primes below a limit by trial division — CPU-bound, incremental,
/// and deliberately naive (the point is to burn real cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimeCounter {
    limit: u64,
    next: u64,
    found: u64,
}

impl PrimeCounter {
    /// The registry kind string.
    pub const KIND: &'static str = "primes";

    /// Counts primes below `limit`.
    pub fn new(limit: u64) -> Self {
        PrimeCounter {
            limit,
            next: 2,
            found: 0,
        }
    }

    /// The count found so far.
    pub fn found(&self) -> u64 {
        self.found
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::from_frame(Bytes::copy_from_slice(bytes))?;
        let limit = d.get_varint("limit")?;
        let next = d.get_varint("next")?;
        let found = d.get_varint("found")?;
        d.finish()?;
        Ok(PrimeCounter { limit, next, found })
    }
}

fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

impl JobProgram for PrimeCounter {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn step(&mut self, units: u64) -> StepOutcome {
        for _ in 0..units {
            if self.next >= self.limit {
                return StepOutcome::Finished;
            }
            if is_prime(self.next) {
                self.found += 1;
            }
            self.next += 1;
        }
        if self.next >= self.limit {
            StepOutcome::Finished
        } else {
            StepOutcome::Running
        }
    }

    fn remaining_units(&self) -> u64 {
        self.limit.saturating_sub(self.next)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_varint(self.limit);
        e.put_varint(self.next);
        e.put_varint(self.found);
        e.finish_frame().to_vec()
    }

    fn result(&self) -> Option<Vec<u8>> {
        (self.next >= self.limit).then(|| self.found.to_le_bytes().to_vec())
    }
}

// ---------------------------------------------------------------------------

/// Monte-Carlo π estimation with an explicit xorshift state, so the random
/// stream itself is part of the checkpoint (restoring resumes the *same*
/// stream — results are reproducible across migrations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonteCarloPi {
    rng_state: u64,
    target: u64,
    done: u64,
    inside: u64,
}

impl MonteCarloPi {
    /// The registry kind string.
    pub const KIND: &'static str = "mc-pi";

    /// Samples `target` points with the given RNG seed.
    pub fn new(seed: u64, target: u64) -> Self {
        MonteCarloPi {
            rng_state: seed.max(1), // xorshift must not start at 0
            target,
            done: 0,
            inside: 0,
        }
    }

    /// The running π estimate.
    pub fn estimate(&self) -> f64 {
        if self.done == 0 {
            0.0
        } else {
            4.0 * self.inside as f64 / self.done as f64
        }
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::from_frame(Bytes::copy_from_slice(bytes))?;
        let rng_state = d.get_varint("rng")?;
        let target = d.get_varint("target")?;
        let done = d.get_varint("done")?;
        let inside = d.get_varint("inside")?;
        d.finish()?;
        Ok(MonteCarloPi { rng_state, target, done, inside })
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }
}

impl JobProgram for MonteCarloPi {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn step(&mut self, units: u64) -> StepOutcome {
        for _ in 0..units {
            if self.done >= self.target {
                return StepOutcome::Finished;
            }
            let a = self.next_u64();
            let x = (a >> 32) as f64 / u32::MAX as f64;
            let y = (a & 0xFFFF_FFFF) as f64 / u32::MAX as f64;
            if x * x + y * y <= 1.0 {
                self.inside += 1;
            }
            self.done += 1;
        }
        if self.done >= self.target {
            StepOutcome::Finished
        } else {
            StepOutcome::Running
        }
    }

    fn remaining_units(&self) -> u64 {
        self.target.saturating_sub(self.done)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_varint(self.rng_state);
        e.put_varint(self.target);
        e.put_varint(self.done);
        e.put_varint(self.inside);
        e.finish_frame().to_vec()
    }

    fn result(&self) -> Option<Vec<u8>> {
        (self.done >= self.target).then(|| {
            let mut out = self.inside.to_le_bytes().to_vec();
            out.extend_from_slice(&self.done.to_le_bytes());
            out
        })
    }
}

// ---------------------------------------------------------------------------

/// Sums `i² mod m` over a range — the cheap smoke-test program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSum {
    upto: u64,
    next: u64,
    modulus: u64,
    acc: u64,
}

impl SeriesSum {
    /// The registry kind string.
    pub const KIND: &'static str = "series-sum";

    /// Sums `i² mod modulus` for `i` in `[0, upto)`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn new(upto: u64, modulus: u64) -> Self {
        assert!(modulus > 0, "zero modulus");
        SeriesSum {
            upto,
            next: 0,
            modulus,
            acc: 0,
        }
    }

    fn from_snapshot(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::from_frame(Bytes::copy_from_slice(bytes))?;
        let upto = d.get_varint("upto")?;
        let next = d.get_varint("next")?;
        let modulus = d.get_varint("modulus")?;
        let acc = d.get_varint("acc")?;
        d.finish()?;
        Ok(SeriesSum { upto, next, modulus, acc })
    }
}

impl JobProgram for SeriesSum {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn step(&mut self, units: u64) -> StepOutcome {
        for _ in 0..units {
            if self.next >= self.upto {
                return StepOutcome::Finished;
            }
            let i = self.next % self.modulus;
            self.acc = self.acc.wrapping_add(i.wrapping_mul(i) % self.modulus);
            self.next += 1;
        }
        if self.next >= self.upto {
            StepOutcome::Finished
        } else {
            StepOutcome::Running
        }
    }

    fn remaining_units(&self) -> u64 {
        self.upto.saturating_sub(self.next)
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_varint(self.upto);
        e.put_varint(self.next);
        e.put_varint(self.modulus);
        e.put_varint(self.acc);
        e.finish_frame().to_vec()
    }

    fn result(&self) -> Option<Vec<u8>> {
        (self.next >= self.upto).then(|| self.acc.to_le_bytes().to_vec())
    }
}

/// Runs a program to completion in one go and returns its result.
pub fn run_to_completion(program: &mut dyn JobProgram) -> Vec<u8> {
    while program.step(10_000) == StepOutcome::Running {}
    program.result().expect("finished program has a result")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a program with a checkpoint/restore cycle every `interval`
    /// units; returns its result and the number of migrations.
    fn run_with_migrations(
        mut program: Box<dyn JobProgram>,
        interval: u64,
    ) -> Result<(Vec<u8>, u32), RestoreError> {
        let mut migrations = 0u32;
        loop {
            if program.step(interval) == StepOutcome::Finished {
                return Ok((
                    program.result().expect("finished program has a result"),
                    migrations,
                ));
            }
            // Checkpoint, "travel", restore — as if on a different machine.
            let kind = program.kind().to_string();
            let snap = program.snapshot();
            drop(program);
            program = restore(&kind, &snap)?;
            migrations += 1;
        }
    }

    #[test]
    fn prime_counter_is_correct() {
        let mut p = PrimeCounter::new(100);
        let result = run_to_completion(&mut p);
        assert_eq!(u64::from_le_bytes(result.try_into().unwrap()), 25);
        assert_eq!(p.found(), 25);
        assert_eq!(p.remaining_units(), 0);
    }

    #[test]
    fn series_sum_is_deterministic() {
        let mut a = SeriesSum::new(10_000, 97);
        let mut b = SeriesSum::new(10_000, 97);
        let ra = run_to_completion(&mut a);
        let rb = run_to_completion(&mut b);
        assert_eq!(ra, rb);
    }

    #[test]
    fn mc_pi_estimate_converges() {
        let mut p = MonteCarloPi::new(7, 2_000_000);
        run_to_completion(&mut p);
        let pi = p.estimate();
        assert!((pi - std::f64::consts::PI).abs() < 0.01, "estimate {pi}");
    }

    #[test]
    fn snapshots_roundtrip_mid_flight() {
        let mut p = PrimeCounter::new(10_000);
        p.step(1_234);
        let snap = p.snapshot();
        let q = PrimeCounter::from_snapshot(&snap).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn migration_preserves_results_exactly() {
        // The §2.3 guarantee: arbitrary checkpoint/restore cycles change
        // nothing about the final answer.
        for interval in [1u64, 7, 100, 9_999] {
            let straight = run_to_completion(&mut PrimeCounter::new(3_000));
            let (migrated, migrations) =
                run_with_migrations(Box::new(PrimeCounter::new(3_000)), interval).unwrap();
            assert_eq!(straight, migrated, "interval {interval}");
            assert!(migrations > 0 || interval > 3_000);
        }
    }

    #[test]
    fn migration_preserves_random_streams() {
        // The RNG state rides in the checkpoint, so even a stochastic
        // program is migration-transparent.
        let straight = run_to_completion(&mut MonteCarloPi::new(99, 100_000));
        let (migrated, migrations) =
            run_with_migrations(Box::new(MonteCarloPi::new(99, 100_000)), 1_733).unwrap();
        assert_eq!(straight, migrated);
        assert!(migrations > 50);
    }

    #[test]
    fn restore_rejects_unknown_kind_and_garbage() {
        match restore("no-such-kind", &[]) {
            Err(RestoreError::UnknownKind { kind }) => assert_eq!(kind, "no-such-kind"),
            other => panic!("expected UnknownKind, got {:?}", other.err()),
        }
        match restore(PrimeCounter::KIND, &[1, 2, 3]) {
            Err(RestoreError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
        // Cross-kind restore fails framewise or semantically — a SeriesSum
        // snapshot has four fields, a PrimeCounter three: trailing bytes.
        let snap = SeriesSum::new(10, 3).snapshot();
        assert!(restore(PrimeCounter::KIND, &snap).is_err());
    }

    #[test]
    fn registry_restores_all_kinds() {
        let programs: Vec<Box<dyn JobProgram>> = vec![
            Box::new(PrimeCounter::new(50)),
            Box::new(MonteCarloPi::new(1, 50)),
            Box::new(SeriesSum::new(50, 7)),
        ];
        for mut p in programs {
            p.step(10);
            let snap = p.snapshot();
            let q = restore(p.kind(), &snap).unwrap();
            assert_eq!(q.kind(), p.kind());
            assert_eq!(q.remaining_units(), p.remaining_units());
        }
    }

    #[test]
    fn step_zero_units_is_a_no_op() {
        let mut p = PrimeCounter::new(100);
        assert_eq!(p.step(0), StepOutcome::Running);
        assert_eq!(p.remaining_units(), 98);
    }

    #[test]
    fn finished_program_stays_finished() {
        let mut p = SeriesSum::new(10, 3);
        assert_eq!(p.step(100), StepOutcome::Finished);
        assert_eq!(p.step(100), StepOutcome::Finished);
        assert!(p.result().is_some());
        assert_eq!(p.remaining_units(), 0);
    }
}
