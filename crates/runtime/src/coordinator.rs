//! The live coordinator's decisions, with no clock, channel or thread.
//!
//! [`Coordinator`] holds everything the live pool decides: the job table,
//! the home queues, which station hosts which job, the per-home checkpoint
//! stores, the grace timers, the choice between a poll and the autonomy
//! sweep, the Up-Down call and the counters. Its one entry point is
//! [`Coordinator::step`]: given the time and one [`Input`] — a worker's
//! message, or a tick carrying the owner flags and the coordinator-down
//! bit sampled at that instant — it pushes the commands to send and says
//! when it next needs a tick. The same inputs give the same commands, so
//! its timer semantics are tested on virtual time, and the threaded
//! [`Runtime`](crate::runtime::Runtime) around it only reads the clock,
//! waits and forwards.
//!
//! It has two kinds of timer: the poll, and one grace timer per owner
//! interruption. The grace is one constant, so the timers sit in a FIFO:
//! the order interruptions begin in is the order their timers expire in.
//! A timer whose job has resumed or left since is stale — its instant no
//! longer matches the job's suspension — and is dropped when it expires.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use condor_ckpt::image::{CheckpointBuilder, SegmentKind};
use condor_ckpt::store::CheckpointStore;
use condor_core::policy::{Order, StationView};
use condor_core::updown::{UpDown, UpDownConfig};
use condor_net::NodeId;

use crate::program::JobProgram;
use crate::runtime::{RuntimeConfig, RuntimeReport};
use crate::worker::{Command, WorkerEvent};

/// One input to [`Coordinator::step`].
#[derive(Debug)]
pub(crate) enum Input<'a> {
    /// A worker's message.
    Event(WorkerEvent),
    /// Fire what is due at this instant: the grace timers, then the poll,
    /// or while the coordinator is down the autonomy sweep in its place.
    Tick {
        /// Each station's owner flag, sampled at this instant.
        owners: &'a [bool],
        /// The coordinator-down bit, sampled at this instant.
        down: bool,
        /// The first tick of a `run`, which polls whatever the poll timer
        /// says.
        new_run: bool,
    },
}

/// Where a live job is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LiveState {
    /// Waiting in the home queue.
    Queued,
    /// Placement command sent; not yet confirmed started.
    Placing,
    /// Executing.
    Running,
    /// The owner of station `on` came back at `since`; the grace timer
    /// named by `since` is running.
    Suspended { on: usize, since: Duration },
    /// Finished with this result.
    Done(Vec<u8>),
    /// Its snapshot cannot be restored. The home copy is the only copy and
    /// restoring it is deterministic, so the job has left the pool.
    Failed,
}

#[derive(Debug)]
struct LiveJob {
    home: usize,
    kind: &'static str,
    state: LiveState,
    /// Evictions so far, which is also the sequence of its stored
    /// checkpoint.
    migrations: u32,
}

/// Placements started per poll: the paper's throttle (§4: one).
const PLACEMENTS_PER_POLL: usize = 1;

/// Capacity in bytes of each home's checkpoint store.
const STORE_CAPACITY: u64 = 64 << 20;

/// The live pool's scheduler state; see the module docs.
#[derive(Debug)]
pub(crate) struct Coordinator {
    config: RuntimeConfig,
    policy: UpDown,
    /// Indexed by job id: ids are dense from 0.
    jobs: Vec<LiveJob>,
    /// Jobs neither done nor failed; no tick is needed when none is left.
    open: usize,
    /// When each owner interruption began, and its job, oldest first.
    grace_timers: VecDeque<(Duration, u64)>,
    next_poll: Duration,
    queues: Vec<VecDeque<u64>>,
    hosting: Vec<Option<u64>>,
    stores: Vec<CheckpointStore>,
    migrations: u64,
    interruptions: u64,
    resumes: u64,
    polls: u64,
    local_starts: u64,
}

impl Coordinator {
    pub(crate) fn new(config: RuntimeConfig) -> Coordinator {
        assert!(config.workers > 0, "need at least one worker");
        Coordinator {
            policy: UpDown::new(UpDownConfig::default()),
            jobs: Vec::new(),
            open: 0,
            grace_timers: VecDeque::new(),
            next_poll: Duration::ZERO,
            queues: vec![VecDeque::new(); config.workers],
            hosting: vec![None; config.workers],
            stores: (0..config.workers)
                .map(|_| CheckpointStore::new(STORE_CAPACITY))
                .collect(),
            migrations: 0,
            interruptions: 0,
            resumes: 0,
            polls: 0,
            local_starts: 0,
            config,
        }
    }

    /// Queues `program` at `home`, its snapshot stored there; returns the
    /// job id.
    ///
    /// # Panics
    ///
    /// Panics if `home` is out of range or its checkpoint store is full.
    pub(crate) fn submit(&mut self, home: usize, program: &dyn JobProgram) -> u64 {
        assert!(home < self.config.workers, "home {home} out of range");
        let id = self.jobs.len() as u64;
        store(&mut self.stores[home], id, 0, program.snapshot());
        let kind = program.kind();
        self.jobs.push(LiveJob { home, kind, state: LiveState::Queued, migrations: 0 });
        self.open += 1;
        self.queues[home].push_back(id);
        id
    }

    /// Takes one input at `now` (time since the pool was built), pushes the
    /// `(worker, command)`s it decides on into `out`, and returns when it
    /// next needs a tick — `None` once no job is open.
    pub(crate) fn step(
        &mut self,
        now: Duration,
        input: Input<'_>,
        out: &mut Vec<(usize, Command)>,
    ) -> Option<Duration> {
        match input {
            Input::Event(ev) => self.handle(now, ev),
            Input::Tick { owners, down, new_run } => {
                self.expire_grace(now, out);
                if new_run || now >= self.next_poll {
                    self.next_poll = now + self.config.poll_interval;
                    if down {
                        self.autonomy_sweep(owners, out);
                    } else {
                        self.poll(owners, out);
                    }
                }
            }
        }
        let grace = self.grace_timers.front().map(|&(since, _)| since + self.config.grace);
        (self.open > 0).then(|| grace.map_or(self.next_poll, |due| due.min(self.next_poll)))
    }

    /// The Up-Down schedule index of a station's home.
    pub(crate) fn updown_index(&self, station: usize) -> f64 {
        self.policy.index_of(NodeId::new(station as u32))
    }

    fn handle(&mut self, now: Duration, ev: WorkerEvent) {
        match ev {
            WorkerEvent::Started { job, .. } => self.jobs[job as usize].state = LiveState::Running,
            WorkerEvent::PlaceFailed { worker, job, .. } => {
                self.hosting[worker] = None;
                let j = &mut self.jobs[job as usize];
                j.state = LiveState::Failed;
                self.stores[j.home].remove(job);
                self.open -= 1;
            }
            WorkerEvent::OwnerInterrupted { worker, job } => {
                self.interruptions += 1;
                self.jobs[job as usize].state = LiveState::Suspended { on: worker, since: now };
                self.grace_timers.push_back((now, job));
            }
            WorkerEvent::ResumedInPlace { job, .. } => {
                self.resumes += 1;
                self.jobs[job as usize].state = LiveState::Running;
            }
            WorkerEvent::Finished { worker, job, result } => {
                self.hosting[worker] = None;
                let j = &mut self.jobs[job as usize];
                j.state = LiveState::Done(result);
                self.stores[j.home].remove(job);
                self.open -= 1;
            }
            WorkerEvent::Evicted { worker, job, snapshot } => {
                self.hosting[worker] = None;
                self.migrations += 1;
                let j = &mut self.jobs[job as usize];
                j.migrations += 1;
                j.state = LiveState::Queued;
                store(&mut self.stores[j.home], job, j.migrations, snapshot);
                self.queues[j.home].push_front(job);
            }
            WorkerEvent::CommandMiss { .. } => {}
        }
    }

    /// Fires every grace timer due by `now`: a job still suspended by the
    /// interruption that set the timer is evicted.
    fn expire_grace(&mut self, now: Duration, out: &mut Vec<(usize, Command)>) {
        while let Some(&(since, job)) = self.grace_timers.front() {
            if now < since + self.config.grace {
                break;
            }
            self.grace_timers.pop_front();
            if let LiveState::Suspended { on, since: current } = self.jobs[job as usize].state {
                if current == since {
                    out.push((on, Command::Evict { job }));
                }
            }
        }
    }

    /// Sends `home`'s next queued job to `target`; false if none waits.
    fn place(&mut self, home: usize, target: usize, out: &mut Vec<(usize, Command)>) -> bool {
        let Some(job) = self.queues[home].pop_front() else {
            return false;
        };
        // A snapshot is stored at submit and replaced at every eviction,
        // and leaves the home store only when the job does.
        let snapshot = self.stores[home]
            .get(job)
            .ok()
            .and_then(|image| Some(image.segment(SegmentKind::Data)?.payload().to_vec()))
            .expect("a queued job's snapshot is at its home");
        let j = &mut self.jobs[job as usize];
        j.state = LiveState::Placing;
        self.hosting[target] = Some(job);
        out.push((target, Command::Place { job, kind: j.kind.to_string(), snapshot }));
        true
    }

    /// Degraded-mode scheduling while the coordinator is down: each idle,
    /// non-hosting station starts the next job of its *own* queue. No
    /// cross-station placement and no policy charge — autonomy, not
    /// allocation.
    fn autonomy_sweep(&mut self, owners: &[bool], out: &mut Vec<(usize, Command)>) {
        for (i, &busy) in owners.iter().enumerate() {
            if !busy && self.hosting[i].is_none() && self.place(i, i, out) {
                self.local_starts += 1;
            }
        }
    }

    fn poll(&mut self, owners: &[bool], out: &mut Vec<(usize, Command)>) {
        self.polls += 1;
        let views: Vec<StationView> = (0..self.config.workers)
            .map(|i| {
                let free = !owners[i] && self.hosting[i].is_none();
                StationView {
                    node: NodeId::new(i as u32),
                    can_host: free,
                    free_cpu_milli: if free { 1000 } else { 0 },
                    hosting_for: self.hosting[i].and_then(|job| {
                        let j = &self.jobs[job as usize];
                        (j.state == LiveState::Running).then(|| NodeId::new(j.home as u32))
                    }),
                    waiting_jobs: self.queues[i].len(),
                }
            })
            .collect();
        let free: Vec<NodeId> = views.iter().filter(|v| v.can_host).map(|v| v.node).collect();
        let orders = condor_core::policy::decide_from_views(
            &mut self.policy,
            Default::default(),
            &views,
            &free,
            PLACEMENTS_PER_POLL,
        );
        for order in orders {
            match order {
                Order::Assign { home, target } => {
                    self.place(home.as_usize(), target.as_usize(), out);
                }
                Order::Preempt { target } => {
                    if let Some(job) = self.hosting[target.as_usize()] {
                        out.push((target.as_usize(), Command::Evict { job }));
                    }
                }
            }
        }
    }

    /// What `run` reports: results so far, every job not done (failed ones
    /// included), and the counters.
    pub(crate) fn report(&self, wakeups: u64) -> RuntimeReport {
        let mut results = HashMap::new();
        let mut unfinished = Vec::new();
        for (id, j) in (0u64..).zip(&self.jobs) {
            match &j.state {
                LiveState::Done(result) => {
                    results.insert(id, result.clone());
                }
                _ => unfinished.push(id),
            }
        }
        RuntimeReport {
            results,
            unfinished,
            migrations: self.migrations,
            interruptions: self.interruptions,
            resumes_in_place: self.resumes,
            polls: self.polls,
            local_starts: self.local_starts,
            wakeups,
        }
    }
}

/// Replaces `job`'s checkpoint in its home store.
fn store(store: &mut CheckpointStore, job: u64, sequence: u32, snapshot: Vec<u8>) {
    let image = CheckpointBuilder::new(job, sequence)
        .segment(SegmentKind::Data, 0, snapshot)
        .build()
        .expect("no outstanding replies in the live runtime");
    store.put(&image).expect("home checkpoint store full");
}

#[cfg(test)]
mod tests {
    //! The coordinator on virtual time: fake workers answer its commands as
    //! the worker threads do, and nothing sleeps.
    use super::*;
    use crate::program::{restore, run_to_completion, SeriesSum, StepOutcome};
    use crate::worker::WorkerEvent as Ev;
    use condor_sim::rng::SimRng;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn config(workers: usize, poll_ms: u64, grace_ms: u64) -> RuntimeConfig {
        let (poll_interval, grace) = (ms(poll_ms), ms(grace_ms));
        RuntimeConfig { workers, poll_interval, grace, ..RuntimeConfig::default() }
    }

    fn endless() -> SeriesSum {
        SeriesSum::new(u64::MAX / 4, 1_000_003)
    }

    /// The `(station, job)` of each `Place`, or of each `Evict`, in `cmds`.
    fn targets(cmds: &[(usize, Command)], evicts: bool) -> Vec<(usize, u64)> {
        let pick = |(w, cmd): &(usize, Command)| match *cmd {
            Command::Place { job, .. } if !evicts => Some((*w, job)),
            Command::Evict { job } if evicts => Some((*w, job)),
            _ => None,
        };
        cmds.iter().filter_map(pick).collect()
    }

    /// An input as the replay feeds it again.
    #[derive(Debug, Clone, PartialEq)]
    enum Logged {
        Event(WorkerEvent),
        /// Owner flags, coordinator down, new run.
        Tick(Vec<bool>, bool, bool),
    }

    /// The commands one step returned.
    type Sent = Vec<(usize, Command)>;
    /// A fake worker's job, and whether it reported an interruption.
    type Resident = Option<(u64, Box<dyn JobProgram>, bool)>;

    /// Fake workers around a real coordinator. They run the real programs
    /// in 50-unit slices and log every input for a replay.
    struct Pool {
        c: Coordinator,
        now: Duration,
        owners: Vec<bool>,
        down: bool,
        /// Worker messages not yet stepped, in the order they were sent.
        inbox: VecDeque<WorkerEvent>,
        /// Commands each worker has not taken yet.
        mail: Vec<VecDeque<Command>>,
        resident: Vec<Resident>,
        /// Every input, and the commands it returned.
        log: Vec<(Duration, Logged, Sent)>,
        wake: Option<Duration>,
    }

    impl Pool {
        fn new(config: RuntimeConfig) -> Pool {
            let n = config.workers;
            Pool {
                c: Coordinator::new(config),
                now: Duration::ZERO,
                owners: vec![false; n],
                down: false,
                inbox: VecDeque::new(),
                mail: vec![VecDeque::new(); n],
                resident: (0..n).map(|_| None).collect(),
                log: Vec::new(),
                wake: None,
            }
        }

        /// Steps the coordinator at `now` and mails the commands.
        fn input(&mut self, input: Logged) -> Sent {
            let mut out = Vec::new();
            self.wake = match &input {
                Logged::Event(ev) => self.c.step(self.now, Input::Event(ev.clone()), &mut out),
                Logged::Tick(owners, down, new_run) => {
                    let (down, new_run) = (*down, *new_run);
                    self.c.step(self.now, Input::Tick { owners, down, new_run }, &mut out)
                }
            };
            for (w, cmd) in &out {
                self.mail[*w].push_back(cmd.clone());
            }
            self.log.push((self.now, input, out.clone()));
            out
        }

        fn tick(&mut self, new_run: bool) -> Sent {
            self.input(Logged::Tick(self.owners.clone(), self.down, new_run))
        }

        fn deliver(&mut self) -> bool {
            let Some(ev) = self.inbox.pop_front() else { return false };
            self.input(Logged::Event(ev));
            true
        }

        /// The worker takes its next command or, with none waiting, does
        /// what its thread does next.
        fn work(&mut self, worker: usize) {
            let (inbox, slot) = (&mut self.inbox, &mut self.resident[worker]);
            match (self.mail[worker].pop_front(), slot) {
                (Some(Command::Place { job, kind, snapshot }), slot) => {
                    assert!(slot.is_none(), "station {worker} got a second job");
                    *slot = Some((job, restore(&kind, &snapshot).expect("stored snapshot"), false));
                    inbox.push_back(Ev::Started { worker, job });
                }
                (Some(Command::Evict { job }), slot) => {
                    let ev = match slot.take_if(|r| r.0 == job) {
                        Some((_, p, _)) => Ev::Evicted { worker, job, snapshot: p.snapshot() },
                        None => Ev::CommandMiss { worker, job },
                    };
                    inbox.push_back(ev);
                }
                (Some(Command::Shutdown), _) | (None, None) => {}
                (None, Some((job, _, interrupted))) if self.owners[worker] != *interrupted => {
                    *interrupted = self.owners[worker];
                    let job = *job;
                    inbox.push_back(match *interrupted {
                        true => Ev::OwnerInterrupted { worker, job },
                        false => Ev::ResumedInPlace { worker, job },
                    });
                }
                (None, Some((job, program, false))) => {
                    if program.step(50) == StepOutcome::Finished {
                        let (job, result) = (*job, program.result().expect("finished"));
                        inbox.push_back(Ev::Finished { worker, job, result });
                        self.resident[worker] = None;
                    }
                }
                (None, Some(_)) => {}
            }
        }

        /// The next poll, with every command and message answered.
        fn poll_and_settle(&mut self) {
            self.now += self.c.config.poll_interval;
            self.tick(false);
            while self.mail.iter().any(|m| !m.is_empty()) || self.deliver() {
                for w in 0..self.mail.len() {
                    while !self.mail[w].is_empty() {
                        self.work(w);
                    }
                }
            }
        }
    }

    #[test]
    fn the_grace_timer_evicts_between_polls() {
        let mut pool = Pool::new(config(2, 10_000, 20));
        let job = pool.c.submit(0, &endless());
        let [(host, _)] = targets(&pool.tick(true), false)[..] else { panic!("one placement") };
        pool.work(host);
        pool.owners = vec![true, true];
        pool.work(host);
        pool.now = ms(5);
        while pool.deliver() {}
        assert_eq!(pool.wake, Some(ms(25)), "the grace expiry comes before the poll");
        pool.now = ms(24);
        assert!(pool.tick(false).is_empty());
        pool.now = ms(25);
        assert_eq!(pool.tick(false), [(host, Command::Evict { job })]);
        assert_eq!(pool.wake, Some(ms(10_000)));
        pool.work(host);
        pool.deliver();
        assert_eq!(pool.c.jobs[0].state, LiveState::Queued);
        assert_eq!(pool.c.stores[0].sequence_of(job), Some(1));
        assert_eq!(pool.c.polls, 1, "the eviction came from the grace timer alone");
        // A new run polls at once, whatever the poll timer says.
        pool.now = ms(30);
        pool.tick(true);
        let r = pool.c.report(0);
        assert_eq!((r.polls, r.interruptions, r.migrations), (2, 1, 1));
    }

    #[test]
    fn a_resumed_interruption_leaves_no_live_timer_behind() {
        let mut pool = Pool::new(config(2, 10_000, 300));
        let job = pool.c.submit(0, &endless());
        let [(host, _)] = targets(&pool.tick(true), false)[..] else { panic!("one placement") };
        // Started; then owners sit down at 10 ms, leave at 100 and are back
        // at 200: the first timer (310 ms) is stale, the second (500) live.
        for (at, busy) in [(0, false), (10, true), (100, false), (200, true)] {
            (pool.now, pool.owners) = (ms(at), vec![busy; 2]);
            pool.work(host);
            pool.deliver();
        }
        assert_eq!(pool.wake, Some(ms(310)));
        pool.now = ms(310);
        assert!(pool.tick(false).is_empty());
        assert_eq!(pool.wake, Some(ms(500)));
        pool.now = ms(499);
        assert!(pool.tick(false).is_empty());
        pool.now = ms(500);
        assert_eq!(pool.tick(false), [(host, Command::Evict { job })]);
        let r = pool.c.report(0);
        assert_eq!((r.interruptions, r.resumes_in_place, r.migrations), (2, 1, 0));
    }

    /// While the coordinator is down a station starts only its own jobs
    /// (§2.1), at the poll's cadence and never against its owner; when it
    /// returns, placement across stations resumes.
    #[test]
    fn an_outage_degrades_to_local_starts_until_the_coordinator_returns() {
        let mut pool = Pool::new(config(3, 10, 25));
        let jobs = [0, 0, 1].map(|home| pool.c.submit(home, &endless()));
        (pool.down, pool.owners) = (true, vec![false, true, false]);
        assert_eq!(targets(&pool.tick(true), false), [(0, jobs[0])], "station 2 stays idle");
        assert_eq!(pool.wake, Some(ms(10)));
        (pool.now, pool.owners[1]) = (ms(10), false);
        assert_eq!(targets(&pool.tick(false), false), [(1, jobs[2])]);
        assert_eq!((pool.c.polls, pool.c.local_starts), (0, 2));
        (pool.now, pool.down) = (ms(20), false);
        assert_eq!(targets(&pool.tick(false), false), [(2, jobs[1])]);
        assert_eq!((pool.c.polls, pool.c.local_starts), (1, 2));
    }

    /// A home that floods the pool builds up its Up-Down index, and a light
    /// home's job is then served by preempting the flood.
    #[test]
    fn the_index_rises_and_a_light_home_preempts_the_flood() {
        let mut pool = Pool::new(config(3, 5, 15));
        (0..6).for_each(|_| _ = pool.c.submit(0, &endless()));
        (0..80).for_each(|_| pool.poll_and_settle());
        assert!(pool.c.updown_index(0) > 0.0, "the flooding home accumulates index");
        assert_eq!((pool.c.hosting.iter().flatten().count(), pool.c.migrations), (3, 0));
        let light = pool.c.submit(1, &endless());
        let served = (0..100).any(|_| {
            pool.poll_and_settle();
            pool.c.hosting.contains(&Some(light))
        });
        assert!(served && pool.c.migrations > 0, "served by preempting the flood");
    }

    /// Restoring a snapshot is deterministic and the home copy is the only
    /// copy, so a job no worker can restore leaves the pool, unfinished,
    /// instead of being placed again at every poll.
    #[test]
    fn a_job_that_cannot_be_restored_leaves_the_pool() {
        let mut pool = Pool::new(config(2, 10, 25));
        let job = pool.c.submit(0, &endless());
        let [(host, _)] = targets(&pool.tick(true), false)[..] else { panic!("one placement") };
        pool.input(Logged::Event(Ev::PlaceFailed { worker: host, job, reason: "kind".into() }));
        assert_eq!((pool.wake, pool.c.stores[0].sequence_of(job)), (None, None));
        pool.now = ms(10);
        assert!(pool.tick(false).is_empty(), "placed again");
        assert_eq!(pool.c.report(0).unfinished, [job]);
    }

    /// One interleaving drawn from `seed` — worker actions, message
    /// deliveries, owner flips, outages and tick times, ties included —
    /// checked after every step; then an owner-free phase in which every
    /// job finishes once with its solo result; then a replay.
    fn interleave(seed: u64) {
        let mut rng = SimRng::seed_from(seed);
        let workers = 2 + rng.index(3);
        let config = config(workers, 10, 25);
        let jobs: Vec<(usize, SeriesSum)> = (0..1 + rng.index(6))
            .map(|_| (rng.index(workers), SeriesSum::new(50 + rng.index(450) as u64, 1_000_003)))
            .collect();
        let submitted = |pool: &mut Pool| jobs.iter().for_each(|(h, p)| _ = pool.c.submit(*h, p));
        let mut pool = Pool::new(config.clone());
        submitted(&mut pool);
        // When each interruption the coordinator has heard of began, and
        // the evictions it has heard of: its checkpoint's sequence.
        let mut suspended: HashMap<u64, Duration> = HashMap::new();
        let mut evictions = vec![0; jobs.len()];
        for round in 0..20_000 {
            let calm = round >= 400;
            if calm {
                (pool.owners, pool.down) = (vec![false; workers], false);
                if pool.c.open == 0 {
                    break;
                }
            }
            match rng.index(10) {
                0 if !calm => pool.owners[rng.index(workers)] ^= true,
                1 if !calm => pool.down = rng.chance(0.3),
                2..=4 => {
                    match pool.inbox.front() {
                        Some(&Ev::OwnerInterrupted { job, .. }) => {
                            suspended.insert(job, pool.now);
                        }
                        Some(&Ev::Evicted { job, .. }) => {
                            suspended.remove(&job);
                            evictions[job as usize] += 1;
                        }
                        Some(Ev::ResumedInPlace { job, .. } | Ev::Finished { job, .. }) => {
                            suspended.remove(job);
                        }
                        _ => {}
                    }
                    pool.deliver();
                }
                5..=7 => pool.work(rng.index(workers)),
                _ => {
                    pool.now += ms(rng.index(8) as u64);
                    let polls = pool.c.polls;
                    let cmds = pool.tick(rng.chance(0.05));
                    let (places, evicts) = (targets(&cmds, false), targets(&cmds, true));
                    for &(w, job) in &places {
                        assert!(!pool.owners[w], "placed against the owner");
                        assert!(!pool.down || w == jobs[job as usize].0, "left home while down");
                    }
                    assert!(!pool.down || pool.c.polls == polls, "polled while down");
                    assert!(pool.down || places.len() <= PLACEMENTS_PER_POLL, "throttle");
                    let due = |since: Duration| since + config.grace <= pool.now;
                    for (_, job) in &evicts {
                        assert!(suspended.get(job).is_none_or(|&s| due(s)), "evicted in grace");
                    }
                    suspended.retain(|job, &mut since| {
                        assert!(!due(since) || evicts.iter().any(|e| e.1 == *job), "grace missed");
                        !due(since)
                    });
                }
            }
            let mut hosted = HashSet::new();
            let once = pool.resident.iter().flatten().all(|r| hosted.insert(r.0));
            assert!(once, "a job on two stations");
            for (job, (home, _)) in jobs.iter().enumerate() {
                let seq = pool.c.stores[*home].sequence_of(job as u64);
                assert!(seq.is_none_or(|s| s == evictions[job]), "job {job}'s checkpoint is stale");
            }
        }
        let report = pool.c.report(0);
        assert!(report.unfinished.is_empty(), "{report:?}");
        for (job, (_, program)) in (0u64..).zip(&jobs) {
            let finishes = pool.log.iter().filter(|(_, input, _)| {
                matches!(input, Logged::Event(Ev::Finished { job: j, .. }) if *j == job)
            });
            assert_eq!(finishes.count(), 1, "job {job}");
            assert_eq!(report.results[&job], run_to_completion(&mut program.clone()));
        }
        let mut replay = Pool::new(config);
        submitted(&mut replay);
        for (now, input, _) in &pool.log {
            replay.now = *now;
            replay.input(input.clone());
        }
        assert!(replay.log == pool.log, "the replay sent other commands");
    }

    proptest! {
        #[test]
        fn seeded_interleavings_keep_the_guarantees(seed in any::<u64>()) {
            let checked = std::panic::catch_unwind(|| interleave(seed));
            assert!(checked.is_ok(), "the guarantees broke at interleave({seed})");
        }
    }
}
