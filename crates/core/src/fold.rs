//! The dense lifecycle table under [`SpanSink`](crate::spans::SpanSink)
//! and [`AuditSink`](crate::audit::AuditSink).
//!
//! Both observers fold the same thing out of the event stream: which phase
//! each job is in, since when, on which machine, and which stations it
//! holds. Job and station ids are the dense sequences `0..n`, so that
//! state lives in id-indexed rows ([`DenseTable`]) instead of hash maps,
//! and it moves through one function, [`JobRow::advance`], driven by one
//! table of [`Rule`]s ([`rules`]) that says which phase may follow which,
//! on which event. The span sink keeps the spans and holdings a step
//! closes; the auditor first asks the same rule whether the step is legal
//! ([`JobRow::judge`]).
//!
//! The two disagree only at the edges of a job's life, and each says so in
//! its own `record`: the span sink follows whatever the stream does (a
//! second arrival starts the job's timeline over, a forward ends it, the
//! first image of a gang checkpoint puts the job back in the queue), the
//! auditor holds the stream to the protocol (a second arrival is a
//! violation, a forwarded job stays tracked, a gang is checkpointing until
//! its last image lands).

use condor_model::station::ResourceVec;
use condor_net::NodeId;
use condor_sim::time::SimTime;

use crate::dense::DenseTable;
use crate::job::JobId;
use crate::spans::{Span, SpanPhase};

/// Whether a job has entered the system, and whether it has left it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Life {
    /// Never seen (the default row).
    #[default]
    Absent,
    /// Between its arrival (or adoption) and its end.
    Live,
    /// Completed, rejected at admission, or — for the span sink —
    /// forwarded away.
    Done,
}

/// Same-instant partners: the instant of the last event of each kind that
/// can excuse another one arriving beside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stamp {
    /// `PlacementStarted` / `CheckpointStarted` repeat once per gang
    /// member at exactly the instant of the fan-out.
    Fanout,
    /// `JobStarted` and `JobResumedInPlace` come as a pair, in either
    /// order.
    Started,
    Resumed,
    /// `ChaosLocalStart`: the paired `JobStarted` comes straight from the
    /// queue.
    LocalStart,
}

/// What an event does to the stations a job holds: nothing, takes the
/// named one, gives it back, or gives all back (the consumer drains
/// [`JobRow::held`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Hold {
    Keep,
    Take,
    FreeOne,
    FreeAll,
}

/// Where an event leaves the job: in its phase, in this one, or out of the
/// system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Next {
    Stay,
    To(SpanPhase),
    Done,
}

/// One row of the legality table: what one event kind requires of the job
/// and what it does to it.
#[derive(Debug)]
pub(crate) struct Rule {
    /// Phases the event is legal in, one bit per [`SpanPhase::index`].
    legal: u8,
    /// One more phase each, legal when the partner event bears this very
    /// instant.
    excuses: &'static [(SpanPhase, Stamp)],
    /// The stamp this event leaves for its own partners.
    stamp: Option<Stamp>,
    pub next: Next,
    pub hold: Hold,
}

impl Rule {
    /// Legal in the `legal` phases, changing nothing.
    const fn on(legal: u8) -> Rule {
        Rule { legal, excuses: &[], stamp: None, next: Next::Stay, hold: Hold::Keep }
    }

    const fn to(self, phase: SpanPhase) -> Rule {
        Rule { next: Next::To(phase), ..self }
    }

    const fn holds(self, hold: Hold) -> Rule {
        Rule { hold, ..self }
    }

    const fn paired(self, stamp: Stamp, excuses: &'static [(SpanPhase, Stamp)]) -> Rule {
        Rule { stamp: Some(stamp), excuses, ..self }
    }
}

/// Lifecycle legality, written once: which phase may follow which, on
/// which event (each rule is named after its `TraceKind`).
pub(crate) mod rules {
    use super::{Hold, Next, Rule, Stamp};
    use crate::spans::SpanPhase::{Checkpointing, Queued, Running, Suspended, Transfer};

    const Q: u8 = 1 << Queued as u8;
    const T: u8 = 1 << Transfer as u8;
    const R: u8 = 1 << Running as u8;
    const S: u8 = 1 << Suspended as u8;
    const C: u8 = 1 << Checkpointing as u8;
    const ANY: u8 = Q | T | R | S | C;

    /// Announces the demand of the placement that follows.
    pub const GRANTED: Rule = Rule::on(Q);
    /// Out of the queue, once per gang member.
    pub const PLACED: Rule = Rule::on(Q)
        .paired(Stamp::Fanout, &[(Transfer, Stamp::Fanout)])
        .to(Transfer)
        .holds(Hold::Take);
    pub const DISK_REJECTED: Rule = Rule::on(Q);
    /// From a landed transfer or a suspension; beside a same-instant
    /// resume marker; or straight from the queue beside an autonomous
    /// chaos start.
    pub const STARTED: Rule = Rule::on(T | S)
        .paired(Stamp::Started, &[(Running, Stamp::Resumed), (Queued, Stamp::LocalStart)])
        .to(Running);
    /// From a suspension, or beside its restart.
    pub const RESUMED: Rule =
        Rule::on(S).paired(Stamp::Resumed, &[(Running, Stamp::Started)]).to(Running);
    /// From `Transfer` when the owner was already back as the image landed.
    pub const SUSPENDED: Rule = Rule::on(R | T).to(Suspended);
    /// Once per gang member.
    pub const CKPT_STARTED: Rule = Rule::on(R | S)
        .paired(Stamp::Fanout, &[(Checkpointing, Stamp::Fanout)])
        .to(Checkpointing);
    /// `CheckpointCompleted` with images of the same gang still in flight
    /// (or none on record at all): the station is free, the job is not.
    pub const CKPT_MEMBER_LANDED: Rule = Rule::on(ANY).holds(Hold::FreeOne);
    /// `CheckpointCompleted` that brings the job home.
    pub const CKPT_LANDED: Rule = CKPT_MEMBER_LANDED.to(Queued);
    /// Back to the queue with nothing saved.
    pub const KILLED: Rule = Rule::on(T | R | S).to(Queued).holds(Hold::FreeOne);
    pub const PERIODIC: Rule = Rule::on(R);
    pub const COMPLETED: Rule = Rule { next: Next::Done, ..Rule::on(R).holds(Hold::FreeAll) };
    /// Whatever the job was doing, its stations are gone.
    pub const CRASHED: Rule = Rule::on(ANY).to(Queued).holds(Hold::FreeAll);
    /// The home station takes its own queued job.
    pub const LOCAL_START: Rule = Rule::on(Q).paired(Stamp::LocalStart, &[]).holds(Hold::Take);
    /// The retry keeps the transfer in flight.
    pub const CKPT_CORRUPTED: Rule = Rule::on(C);
    /// A job leaves a pool from its queue.
    pub const FORWARDED: Rule = Rule::on(Q);
}

/// What one [`JobRow::advance`] did.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Moved {
    /// The span the event closed, if it changed the phase or ended the job.
    pub closed: Option<Span>,
    /// For a rule that frees stations: whether the named one was held.
    pub held: bool,
    /// [`Hold::FreeOne`]: since when the freed station had been held.
    pub freed: Option<SimTime>,
}

/// Everything the fold knows about one job.
#[derive(Debug, Default)]
pub(crate) struct JobRow {
    pub life: Life,
    /// Current phase, meaningful while `Live`.
    pub phase: SpanPhase,
    /// When the current phase began: the start of the open span.
    pub since: SimTime,
    /// The machine of the open span (`None` while queued at home).
    pub station: Option<NodeId>,
    /// Stations the job occupies, each with the instant it took it (one
    /// for a plain job, k for a width-k gang).
    pub held: Vec<(NodeId, SimTime)>,
    /// Resource demand, announced by `JobGranted` ahead of a fractional
    /// placement and fixed for the job's life; whole-machine jobs never
    /// emit the grant and stay at the default, [`ResourceVec::WHOLE`].
    pub demand: ResourceVec,
    /// Checkpoint transfers in flight (started, not yet completed).
    pub ckpt_in_flight: u32,
    /// Stations holding a live speculative replica of the job (see
    /// [`PolicyKind::Redundant`](crate::config::PolicyKind::Redundant)).
    pub replicas: Vec<NodeId>,
    stamps: [Option<SimTime>; 4],
}

impl JobRow {
    /// Starts (or restarts) the job's life in the queue at `at`, holding
    /// nothing.
    pub fn begin(&mut self, at: SimTime) {
        *self = JobRow { life: Life::Live, since: at, ..JobRow::default() };
    }

    /// The open span, closed at `at`.
    pub fn open_span(&self, at: SimTime) -> Span {
        Span { phase: self.phase, from: self.since, until: at, station: self.station }
    }

    /// The phase the event finds the job in and whether `rule` allows it
    /// there; leaves the rule's stamp for the event's same-instant
    /// partners.
    pub fn judge(&mut self, at: SimTime, rule: &Rule) -> (SpanPhase, bool) {
        let from = self.phase;
        let excused = |&(phase, stamp)| phase == from && self.stamps[stamp as usize] == Some(at);
        let legal = rule.legal & (1 << from as u8) != 0 || rule.excuses.iter().any(excused);
        if let Some(stamp) = rule.stamp {
            self.stamps[stamp as usize] = Some(at);
        }
        (from, legal)
    }

    /// The one transition function: follows the event wherever `rule`
    /// says it leads — legal or not, so one corruption does not cascade
    /// into noise — closing the open span if the phase changes and taking
    /// or freeing `node` as the rule says.
    pub fn advance(&mut self, at: SimTime, node: NodeId, rule: &Rule) -> Moved {
        let closed = match rule.next {
            // Gang members repeat the collective transition.
            Next::To(phase) if phase != self.phase => {
                let closed = self.open_span(at);
                self.phase = phase;
                self.since = at;
                self.station = (phase != SpanPhase::Queued).then_some(node);
                Some(closed)
            }
            Next::To(_) | Next::Stay => None,
            Next::Done => {
                self.life = Life::Done;
                Some(self.open_span(at))
            }
        };
        let position = |held: &[(NodeId, SimTime)]| held.iter().position(|&(n, _)| n == node);
        let (held, freed) = match rule.hold {
            Hold::Keep => (false, None),
            Hold::Take => {
                self.held.push((node, at));
                (true, None)
            }
            Hold::FreeOne => match position(&self.held) {
                Some(p) => (true, Some(self.held.swap_remove(p).1)),
                None => (false, None),
            },
            Hold::FreeAll => (position(&self.held).is_some(), None),
        };
        Moved { closed, held, freed }
    }
}

/// Everything the fold knows about one station.
#[derive(Debug, Default)]
pub(crate) struct StationRow {
    /// The foreign jobs the station hosts, with their granted demand
    /// vectors (several are legal while every dimension stays within the
    /// station's capacity).
    pub residents: Vec<(JobId, ResourceVec)>,
    /// Last owner transition (`true` = active).
    pub owner_active: Option<bool>,
    /// Nesting depth of chaos partitions cutting the station off.
    pub partitions: u32,
}

/// Per-job and per-station lifecycle state, id-indexed.
#[derive(Debug, Default)]
pub(crate) struct LifecycleFold {
    pub jobs: DenseTable<JobRow>,
    pub stations: DenseTable<StationRow>,
}

impl LifecycleFold {
    /// One typed lookup, creating nothing: the row of a job that is in the
    /// system, or why the event has no row to act on — `Absent`, the job
    /// never arrived; `Done`, it already left.
    pub fn live(&mut self, job: JobId) -> Result<&mut JobRow, Life> {
        match self.jobs.get_mut(job.0) {
            Some(row) if row.life == Life::Live => Ok(row),
            Some(row) => Err(row.life),
            None => Err(Life::Absent),
        }
    }

    /// The row of `station`, created on first sight.
    pub fn station(&mut self, station: NodeId) -> &mut StationRow {
        self.stations.entry(u64::from(station.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_step_judges_then_follows() {
        let (t0, t1) = (SimTime::from_secs(10), SimTime::from_secs(20));
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let mut row = JobRow { life: Life::Live, since: t0, ..JobRow::default() };
        // Gang fan-out: the second same-instant placement is excused and
        // closes nothing.
        assert!(row.judge(t1, &rules::PLACED).1);
        let first = row.advance(t1, a, &rules::PLACED);
        assert!(row.judge(t1, &rules::PLACED).1);
        let second = row.advance(t1, b, &rules::PLACED);
        let closed = first.closed.map(|s| (s.phase, s.from, s.until));
        assert_eq!(closed, Some((SpanPhase::Queued, t0, t1)));
        assert!(second.closed.is_none());
        assert_eq!(row.held, vec![(a, t1), (b, t1)]);
        // A completion straight from the transfer is illegal but followed.
        let t2 = SimTime::from_secs(30);
        assert_eq!(row.judge(t2, &rules::COMPLETED), (SpanPhase::Transfer, false));
        assert!(row.advance(t2, a, &rules::COMPLETED).held);
        assert_eq!(row.life, Life::Done);
    }
}
