//! The four simulator workloads: input generation from the seed, the
//! timed operation, and the output checks.

use condor_core::audit::AuditSink;
use condor_core::cluster::{Run, RunOutput, Totals};
use condor_core::config::ClusterConfig;
use condor_core::job::{JobSpec, JobState, UserId};
use condor_core::spans::SpanSink;
use condor_core::telemetry::SharedSink;
use condor_metrics::availability::{availability_profile, AvailabilityProfile};
use condor_metrics::export::{events_from_jsonl, events_to_jsonl};
use condor_metrics::summary::{heavy_users, mean_wait_ratio, summarize, RunSummary};
use condor_net::NodeId;
use condor_sim::rng::SimRng;
use condor_sim::time::SimDuration;
use condor_workload::scenarios::{fleet_scale, paper_month};
use condor_workload::trace::merge_users;
use condor_workload::user::UserProfile;

use crate::spans::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    PaperMonth,
    FleetIdle,
    FleetLoaded,
    FleetPools,
}

/// Size of one workload's inputs. `--quick` shrinks the fleets to about a
/// twentieth; the paper month is fixed by the scenario (23 stations, 918
/// jobs, 30 days) and only gets fewer variants.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub stations: usize,
    pub days: u64,
    pub pools: usize,
    /// Distinct seeds (`seed`, `seed+1`, …) the iterations cycle through.
    pub variants: usize,
}

/// One generated input: what the timed region receives, nothing else.
#[derive(Debug, Clone)]
pub struct Input {
    pub seed: u64,
    pub config: ClusterConfig,
    pub jobs: Vec<JobSpec>,
    pub horizon: SimDuration,
}

impl SimKind {
    pub fn shape(self, quick: bool) -> Shape {
        let (stations, days, pools, variants) = match (self, quick) {
            (SimKind::PaperMonth, false) => (23, 30, 1, 64),
            (SimKind::PaperMonth, true) => (23, 30, 1, 3),
            (SimKind::FleetIdle, false) => (10_000, 7, 1, 3),
            (SimKind::FleetIdle, true) => (500, 7, 1, 3),
            (SimKind::FleetLoaded, false) => (1_000, 7, 1, 4),
            (SimKind::FleetLoaded, true) => (50, 7, 1, 4),
            (SimKind::FleetPools, false) => (10_000, 7, 8, 2),
            (SimKind::FleetPools, true) => (500, 7, 8, 2),
        };
        Shape {
            stations,
            days,
            pools,
            variants,
        }
    }

    /// Simulated station-days one iteration covers: the unit of `work_per_s`.
    pub fn station_days(self, quick: bool) -> f64 {
        let s = self.shape(quick);
        (s.stations as u64 * s.days) as f64
    }

    /// Generates every variant's input from `seed`.
    pub fn generate(self, seed: u64, quick: bool) -> Vec<Input> {
        let shape = self.shape(quick);
        (0..shape.variants as u64)
            .map(|i| {
                let seed = seed.wrapping_add(i);
                let s = match self {
                    SimKind::PaperMonth => paper_month(seed),
                    SimKind::FleetIdle | SimKind::FleetPools => {
                        fleet_scale(seed, shape.stations, shape.pools, shape.days)
                    }
                    SimKind::FleetLoaded => return fleet_loaded(seed, shape),
                };
                Input {
                    seed,
                    config: s.config,
                    jobs: s.jobs,
                    horizon: s.horizon,
                }
            })
            .collect()
    }
}

/// The loaded fleet: every second station is the home of a user who
/// submits 42 jobs of mean four hours over the week, and the coordinator
/// may place 32 jobs per poll, so most stations host a foreign job and an
/// owner flip means suspend, grace, checkpoint and re-placement.
fn fleet_loaded(seed: u64, shape: Shape) -> Input {
    let horizon = SimDuration::from_days(shape.days);
    let config = ClusterConfig {
        stations: shape.stations,
        seed,
        record_trace: false,
        placements_per_poll: 32,
        ..ClusterConfig::default()
    };
    let root = SimRng::seed_from(seed);
    let mut per_user = Vec::new();
    let mut first_id = 0u64;
    for u in 0..shape.stations / 2 {
        let profile =
            UserProfile::with_mean_demand(UserId(u as u32), NodeId::new(2 * u as u32), 42, 4.0);
        let mut rng = root.substream(seed, &format!("loaded-user-{u}"));
        let generated = profile.generate(horizon, &mut rng, first_id);
        first_id += generated.len() as u64;
        per_user.push(generated);
    }
    Input {
        seed,
        config,
        jobs: merge_users(per_user),
        horizon,
    }
}

/// What the paper-month pipeline produces after the run itself.
#[derive(Debug)]
pub struct Post {
    pub summary: RunSummary,
    pub profile: AvailabilityProfile,
    pub jsonl: String,
    pub audit_violations: u64,
    pub span_jobs: usize,
}

#[derive(Debug)]
pub struct Outcome {
    pub out: RunOutput,
    pub post: Option<Post>,
}

/// The sinks the paper-month run carries: the span folder and the auditor.
pub struct MonthSinks {
    pub spans: SharedSink<SpanSink>,
    pub audit: SharedSink<AuditSink>,
}

impl MonthSinks {
    pub fn new(config: &ClusterConfig) -> Self {
        MonthSinks {
            spans: SharedSink::new(SpanSink::new()),
            audit: SharedSink::new(
                AuditSink::new().with_poll_interval(config.costs.coordinator_poll_interval),
            ),
        }
    }
}

/// The timed operation of one iteration. `paper_month` is the path
/// `condor month` and the `exp_*` binaries take: a traced run under the
/// span and audit sinks, then summary, availability profile and JSONL
/// export. The fleet workloads run trace-off through `Run::execute`;
/// `threads` is `Some` only for the sharded `fleet_pools`.
///
/// `t` is off in the untraced run; the traced run records a span around
/// `Run::execute` and around each post-processing call.
pub fn execute(kind: SimKind, input: Input, threads: Option<usize>, t: &mut Tracer) -> Outcome {
    let Input {
        config,
        jobs,
        horizon,
        ..
    } = input;
    if kind != SimKind::PaperMonth {
        let mut run = Run::new(config).specs(jobs).horizon(horizon);
        if let Some(n) = threads {
            run = run.threads(n);
        }
        return Outcome {
            out: t.span("run.execute", |_| run.execute()),
            post: None,
        };
    }
    let sinks = MonthSinks::new(&config);
    let run = Run::new(config)
        .specs(jobs)
        .horizon(horizon)
        .sink(Box::new(sinks.spans.clone()))
        .sink(Box::new(sinks.audit.clone()));
    let out = t.span("run.execute", |_| run.execute());
    let post = Post {
        summary: t.span("metrics.summarize", |_| summarize(&out)),
        profile: t.span("metrics.availability", |_| availability_profile(&out)),
        jsonl: t.span("export.jsonl", |_| events_to_jsonl(out.trace.events())),
        audit_violations: sinks.audit.with(|a| a.total_violations()),
        span_jobs: sinks.spans.with(|s| s.log().jobs.len()),
    };
    Outcome {
        out,
        post: Some(post),
    }
}

/// What two executions of one input must agree on exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub totals: Totals,
}

impl Fingerprint {
    pub fn of(out: &RunOutput) -> Self {
        Fingerprint {
            events: out.events_dispatched,
            totals: out.totals,
        }
    }
}

/// Hash of what a behaviour-preserving change must keep: dispatched
/// events, every `Totals` counter, the completed-job count and the summed
/// completion instants. Exact for a fixed seed, so two commits can be
/// compared exactly; informational, not a metric.
pub fn sim_digest(out: &RunOutput) -> u64 {
    let mut completed = 0u64;
    let mut completion_ms = 0u64;
    for j in out.completed_jobs() {
        completed += 1;
        completion_ms = completion_ms.wrapping_add(j.completed_at.map_or(0, |t| t.as_millis()));
    }
    // `Totals` is all counters; its Debug text covers fields added later.
    let text = format!(
        "{} {:?} {completed} {completion_ms}",
        out.events_dispatched, out.totals
    );
    // FNV-1a, 64 bit.
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The report line that carries a run's digest (`compare` matches on it).
pub fn digest_note(out: &RunOutput, seed: u64) -> String {
    format!(
        "sim_digest = {:016x} (seed {seed}; exact for a fixed seed)",
        sim_digest(out)
    )
}

/// Output checks across the iterations of one run. An iteration that
/// misses any of them counts as failed.
#[derive(Debug)]
pub struct Checker {
    kind: SimKind,
    seen: Vec<Option<Fingerprint>>,
    /// Paper-month variants on which the heavy user waited less than the
    /// light ones (see `check_month`).
    unfair: Vec<bool>,
}

impl Checker {
    pub fn new(kind: SimKind, variants: usize) -> Self {
        Checker {
            kind,
            seen: vec![None; variants],
            unfair: vec![false; variants],
        }
    }

    pub fn check(
        &mut self,
        variant: usize,
        input: &Input,
        outcome: &Outcome,
    ) -> Result<(), String> {
        let out = &outcome.out;
        // Every submitted job is accounted for, under its own id.
        if out.jobs.len() != input.jobs.len() {
            return Err(format!(
                "{} jobs submitted, {} in the output",
                input.jobs.len(),
                out.jobs.len()
            ));
        }
        if let Some(j) = out
            .jobs
            .iter()
            .zip(&input.jobs)
            .find(|(j, s)| j.spec.id != s.id)
        {
            return Err(format!("job slot {:?} holds job {:?}", j.1.id, j.0.spec.id));
        }
        if let Some(j) = out
            .jobs
            .iter()
            .find(|j| j.state == JobState::Completed && j.completed_at.is_none())
        {
            return Err(format!(
                "job {:?} completed without a completion time",
                j.spec.id
            ));
        }
        // Same seed ⇒ same run; another seed ⇒ another run.
        let fp = Fingerprint::of(out);
        if let Some(other) = self
            .seen
            .iter()
            .enumerate()
            .find(|(v, s)| *v != variant && **s == Some(fp))
        {
            return Err(format!(
                "variants {} and {variant} (different seeds) ran identically",
                other.0
            ));
        }
        match self.seen[variant] {
            Some(first) if first != fp => {
                return Err(format!("same seed, different run: {first:?} then {fp:?}"));
            }
            _ => self.seen[variant] = Some(fp),
        }
        if self.kind == SimKind::PaperMonth {
            self.check_month(variant, outcome)?;
        }
        Ok(())
    }

    fn check_month(&mut self, variant: usize, outcome: &Outcome) -> Result<(), String> {
        let out = &outcome.out;
        let post = outcome
            .post
            .as_ref()
            .ok_or("paper_month ran without its pipeline")?;
        if out.jobs.len() != 918 {
            return Err(format!("paper month has {} jobs, not 918", out.jobs.len()));
        }
        if post.audit_violations != 0 {
            return Err(format!(
                "audit reported {} violations",
                post.audit_violations
            ));
        }
        // Owners are a random process: the month's mean sits near the
        // paper's 25 % (inside [0.18, 0.32] on each of 13 600 seeds tried),
        // so the range leaves room for a seed nobody tried.
        let local = post.summary.local_utilization;
        if !(0.15..=0.35).contains(&local) {
            return Err(format!(
                "mean local utilisation {local:.3} outside [0.15, 0.35]"
            ));
        }
        // Up-Down's fairness is a claim about months in general, and on
        // one seed in 1 400 the heavy user happens to wait a little
        // less than the light ones. So it is held over the run's variants:
        // the operation fails once more than one variant in eight misses it.
        let heavy = heavy_users(&out.jobs, 0.5);
        let light = mean_wait_ratio(&out.jobs, |j| !heavy.contains(&j.spec.user));
        let heavy_wait = mean_wait_ratio(&out.jobs, |j| heavy.contains(&j.spec.user));
        match (light, heavy_wait) {
            (Some(l), Some(h)) => self.unfair[variant] = l >= h,
            other => return Err(format!("a user class has no completed job: {other:?}")),
        }
        let unfair = self.unfair.iter().filter(|u| **u).count();
        if unfair > (self.unfair.len() / 8).max(1) {
            return Err(format!(
                "light users do not wait less than the heavy user on {unfair} of {} seeds",
                self.unfair.len()
            ));
        }
        if post.profile.stations.len() != out.stations {
            return Err("availability profile misses stations".into());
        }
        if post.span_jobs == 0 || post.jsonl.is_empty() {
            return Err("span log or JSONL export is empty".into());
        }
        Ok(())
    }
}

/// JSONL export parses back to the same number of events (checked once,
/// outside the timed region).
pub fn check_jsonl_round_trip(outcome: &Outcome) -> Result<(), String> {
    let Some(post) = &outcome.post else {
        return Ok(());
    };
    let parsed =
        events_from_jsonl(&post.jsonl).map_err(|e| format!("JSONL does not parse back: {e}"))?;
    if parsed.len() != outcome.out.trace.len() {
        return Err(format!(
            "JSONL round trip: {} events out, {} back",
            outcome.out.trace.len(),
            parsed.len()
        ));
    }
    Ok(())
}

/// The untraced benchmark state of one simulator workload.
#[derive(Debug)]
pub struct SimBench {
    pub kind: SimKind,
    pub quick: bool,
    pub inputs: Vec<Input>,
    pub checker: Checker,
    /// `Some(1)` on `fleet_pools`, which selects the sharded runner; the
    /// timed operation stays on one thread because two busy threads on a
    /// two-core host spread by more than the bound from run to run (the
    /// two-thread run is checked in `verify` and measured per layer).
    pub threads: Option<usize>,
    /// Output of the warm-up iteration, kept for the one-off checks.
    warm_up: Option<Outcome>,
    /// `digest_note` of the warm-up iteration (the seed itself).
    digest: Option<String>,
}

impl SimBench {
    /// Threads of the parallel sharded run: two where the host has them.
    pub fn pool_threads() -> usize {
        crate::nproc().min(2)
    }

    /// Executes variant `i % variants` and checks its output; returns the
    /// wall of the operation alone (input clone and checks are outside).
    pub fn timed(&mut self, i: usize) -> (std::time::Duration, Outcome, Result<(), String>) {
        let variant = i % self.inputs.len();
        let input = self.inputs[variant].clone();
        let t0 = std::time::Instant::now();
        let outcome =
            std::hint::black_box(execute(self.kind, input, self.threads, &mut Tracer::off()));
        let wall = t0.elapsed();
        let check = self.checker.check(variant, &self.inputs[variant], &outcome);
        (wall, outcome, check)
    }
}

impl crate::run::Bench for SimBench {
    type Kind = SimKind;

    fn set_up(kind: SimKind, seed: u64, quick: bool) -> (Self, Result<(), String>) {
        let inputs = kind.generate(seed, quick);
        let mut bench = SimBench {
            kind,
            quick,
            checker: Checker::new(kind, inputs.len()),
            inputs,
            threads: (kind == SimKind::FleetPools).then_some(1),
            warm_up: None,
            digest: None,
        };
        let (_, outcome, check) = bench.timed(0);
        bench.digest = Some(digest_note(&outcome.out, seed));
        bench.warm_up = Some(outcome);
        (bench, check)
    }

    fn verify(&mut self) -> Result<(), String> {
        let warm_up = self
            .warm_up
            .take()
            .ok_or("verify runs once, after set-up")?;
        check_jsonl_round_trip(&warm_up)?;
        let threads = SimBench::pool_threads();
        if self.threads.is_some() && threads > 1 {
            // The sharded run is the same run at any thread count.
            let parallel = execute(
                self.kind,
                self.inputs[0].clone(),
                Some(threads),
                &mut Tracer::off(),
            );
            let (one, many) = (
                Fingerprint::of(&warm_up.out),
                Fingerprint::of(&parallel.out),
            );
            if one != many {
                return Err(format!(
                    "1 thread {one:?} differs from {threads} threads {many:?}"
                ));
            }
        }
        Ok(())
    }

    fn iterate(&mut self, i: usize) -> crate::run::Iteration {
        let (wall, _, check) = self.timed(i);
        crate::run::Iteration {
            wall,
            work: self.kind.station_days(self.quick),
            check,
        }
    }

    fn notes(&self) -> Vec<String> {
        self.digest.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn another_seed_gives_another_digest_and_the_same_seed_the_same() {
        let run = |seed| {
            let input = SimKind::FleetLoaded.generate(seed, true).remove(0);
            sim_digest(&execute(SimKind::FleetLoaded, input, None, &mut Tracer::off()).out)
        };
        assert_eq!(run(1988), run(1988));
        assert_ne!(run(1988), run(1989));
    }

    #[test]
    fn checker_accepts_repeats_and_rejects_a_changed_rerun() {
        let kind = SimKind::FleetLoaded;
        let inputs = kind.generate(7, true);
        let mut checker = Checker::new(kind, inputs.len());
        let a = execute(kind, inputs[0].clone(), None, &mut Tracer::off());
        let b = execute(kind, inputs[1].clone(), None, &mut Tracer::off());
        assert_eq!(checker.check(0, &inputs[0], &a), Ok(()));
        assert_eq!(checker.check(0, &inputs[0], &a), Ok(()));
        assert_eq!(checker.check(1, &inputs[1], &b), Ok(()));
        // The run of seed 8 presented as a rerun of seed 7 must be refused.
        assert!(checker.check(0, &inputs[1], &b).is_err());
        // A lost job must be refused.
        let mut short = execute(kind, inputs[2].clone(), None, &mut Tracer::off());
        short.out.jobs.pop();
        assert!(checker.check(2, &inputs[2], &short).is_err());
    }

    #[test]
    fn paper_month_passes_its_own_checks_and_round_trips() {
        let kind = SimKind::PaperMonth;
        let input = kind.generate(1988, true).remove(0);
        let outcome = execute(kind, input.clone(), None, &mut Tracer::off());
        assert_eq!(Checker::new(kind, 1).check(0, &input, &outcome), Ok(()));
        assert_eq!(check_jsonl_round_trip(&outcome), Ok(()));
    }

    #[test]
    fn one_month_where_the_heavy_user_waits_less_does_not_fail_the_run() {
        // Seed 94 is such a month; 93 and 95 are ordinary ones.
        let kind = SimKind::PaperMonth;
        let inputs = kind.generate(93, true);
        let mut checker = Checker::new(kind, inputs.len());
        for (v, input) in inputs.iter().enumerate() {
            let outcome = execute(kind, input.clone(), None, &mut Tracer::off());
            assert_eq!(checker.check(v, input, &outcome), Ok(()));
        }
        assert_eq!(checker.unfair, [false, true, false]);
        // A second such month among three is more than one in eight.
        checker.unfair[0] = true;
        let outcome = execute(kind, inputs[2].clone(), None, &mut Tracer::off());
        assert!(checker.check(2, &inputs[2], &outcome).is_err());
    }
}
