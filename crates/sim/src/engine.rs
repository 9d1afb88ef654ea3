//! The discrete-event engine.
//!
//! A simulation is a [`Model`]: a bag of state plus a `handle` method that
//! reacts to one event at a time. The [`Engine`] owns the model, the clock,
//! and the future-event queue; it repeatedly pops the earliest event and
//! hands it to the model together with a [`Scheduler`] through which the
//! model plants future events.
//!
//! The split between `Model` (domain state) and `Scheduler` (event queue
//! view) sidesteps the classic borrow problem of callback-based simulators:
//! the model gets `&mut self` *and* the ability to schedule, without
//! `RefCell`s or `Rc` cycles.

use crate::event::{EventQueue, EventToken};
use crate::time::{SimDuration, SimTime};

/// A simulation model: domain state plus an event handler.
///
/// # Examples
///
/// A counter that re-arms itself until it has ticked five times:
///
/// ```
/// use condor_sim::engine::{Engine, Model, Scheduler};
/// use condor_sim::time::{SimDuration, SimTime};
///
/// struct Ticker { ticks: u32 }
/// #[derive(Debug)]
/// struct Tick;
///
/// impl Model for Ticker {
///     type Event = Tick;
///     fn handle(&mut self, _now: SimTime, _ev: Tick, sched: &mut Scheduler<Tick>) {
///         self.ticks += 1;
///         if self.ticks < 5 {
///             sched.after(SimDuration::SECOND, Tick);
///         }
///     }
/// }
///
/// let mut engine = Engine::new(Ticker { ticks: 0 });
/// engine.scheduler().at(SimTime::ZERO, Tick);
/// engine.run_to_completion();
/// assert_eq!(engine.model().ticks, 5);
/// assert_eq!(engine.now(), SimTime::from_secs(4));
/// ```
pub trait Model {
    /// The event alphabet of the model.
    type Event;

    /// Reacts to `ev`, which fires at simulated instant `now`. New events
    /// may be planted through `sched`.
    fn handle(&mut self, now: SimTime, ev: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The model-facing view of the future-event queue.
///
/// Obtained from [`Engine::scheduler`] or passed into [`Model::handle`].
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire `delay` from now.
    pub fn after(&mut self, delay: SimDuration, event: E) -> EventToken {
        self.queue.schedule(self.now + delay, event)
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — delivering events before the current
    /// clock would corrupt causality.
    pub fn at(&mut self, at: SimTime, event: E) -> EventToken {
        self.check_not_past(at);
        self.queue.schedule(at, event)
    }

    /// Reserves `n` sequence numbers at this point of the scheduling
    /// order and returns the first ([`EventQueue::reserve_seqs`]).
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        self.queue.reserve_seqs(n)
    }

    /// Schedules `event` at the absolute instant `at` under `seq`, a
    /// number from [`Scheduler::reserve_seqs`]
    /// ([`EventQueue::schedule_reserved`]): it is delivered as if it had
    /// been scheduled when the number was reserved. For a batch known up
    /// front, such as a workload's arrivals, planted one at a time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past, as [`Scheduler::at`] does.
    pub fn at_reserved(&mut self, at: SimTime, seq: u64, event: E) -> EventToken {
        self.check_not_past(at);
        self.queue.schedule_reserved(at, seq, event)
    }

    #[track_caller]
    fn check_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={at}",
            self.now
        );
    }

    /// Schedules `event` to fire immediately (at the current instant, after
    /// all events already queued for this instant).
    pub fn immediately(&mut self, event: E) -> EventToken {
        self.queue.schedule(self.now, event)
    }

    /// Cancels a pending event. Returns `true` if it had not yet fired.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        self.queue.cancel(token)
    }

    /// Number of events currently pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Why [`Engine::run_until`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained before the horizon.
    QueueExhausted,
    /// The horizon was reached; events at or beyond it remain pending.
    HorizonReached,
}

/// Drives a [`Model`] through simulated time.
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    events_dispatched: u64,
}

impl<M: Model> Engine<M> {
    /// Creates an engine at time zero wrapping `model`.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            events_dispatched: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared view of the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive view of the model (e.g. to inject external stimulus
    /// between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Timestamp of the earliest queued event, if any.
    ///
    /// This is what makes a *windowed* multi-engine run cheap: a
    /// conservative space-parallel driver tiles [`Engine::run_until`]
    /// calls over fixed lookahead windows, and when every engine's next
    /// event lies beyond the current window the driver can skip empty
    /// windows in O(1) instead of stepping each engine through them.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// A [`Scheduler`] for planting events from outside the model (initial
    /// conditions, test stimulus).
    pub fn scheduler(&mut self) -> Scheduler<'_, M::Event> {
        Scheduler {
            now: self.now,
            queue: &mut self.queue,
        }
    }

    /// Runs until the queue drains or the clock would pass `horizon`.
    /// Events timestamped exactly at `horizon` are **not** delivered. On
    /// return the clock is at `horizon` (even if the queue drained earlier),
    /// so consecutive `run_until` calls tile cleanly.
    pub fn run_until(&mut self, horizon: SimTime) -> StopReason {
        let reason = self.drain_until(horizon);
        if reason == StopReason::QueueExhausted && horizon != SimTime::MAX && self.now < horizon {
            self.now = horizon;
        }
        reason
    }

    fn drain_until(&mut self, horizon: SimTime) -> StopReason {
        loop {
            let Some((t, ev)) = self.queue.pop_before(horizon) else {
                if self.queue.is_empty() {
                    return StopReason::QueueExhausted;
                }
                self.now = horizon;
                return StopReason::HorizonReached;
            };
            self.dispatch(t, ev);
        }
    }

    fn dispatch(&mut self, t: SimTime, ev: M::Event) {
        debug_assert!(t >= self.now, "event queue delivered out of order");
        self.now = t;
        self.events_dispatched += 1;
        let mut sched = Scheduler {
            now: self.now,
            queue: &mut self.queue,
        };
        self.model.handle(t, ev, &mut sched);
    }

    /// Runs until the event queue is completely drained; the clock stops at
    /// the last delivered event.
    pub fn run_to_completion(&mut self) -> StopReason {
        self.drain_until(SimTime::MAX)
    }

    /// Dispatches at most one event. Returns the event's timestamp, or
    /// `None` if the queue is empty.
    pub fn step(&mut self) -> Option<SimTime> {
        let (t, ev) = self.queue.pop()?;
        self.dispatch(t, ev);
        Some(t)
    }
}

impl<M: Model + std::fmt::Debug> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("events_dispatched", &self.events_dispatched)
            .field("model", &self.model)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every (time, payload) it sees; optionally echoes events
    /// forward in time.
    #[derive(Debug, Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        echo_delay: Option<SimDuration>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.seen.push((now, ev));
            if let Some(d) = self.echo_delay {
                if ev > 0 {
                    sched.after(d, ev - 1);
                }
            }
        }
    }

    #[test]
    fn delivers_in_chronological_order() {
        let mut eng = Engine::new(Recorder::default());
        {
            // Reserved numbers and ordinary scheduling share one FIFO
            // order: 3 ties with 1 and its number was reserved after 1 was
            // scheduled, though 4, scheduled before 3, was reserved later.
            let mut s = eng.scheduler();
            s.at(SimTime::from_secs(10), 1);
            let base = s.reserve_seqs(2);
            s.at(SimTime::from_secs(10), 4);
            s.at_reserved(SimTime::from_secs(5), base, 2);
            s.at_reserved(SimTime::from_secs(10), base + 1, 3);
        }
        assert_eq!(eng.run_to_completion(), StopReason::QueueExhausted);
        let times: Vec<u64> = eng.model().seen.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(times, vec![5, 10, 10, 10]);
        // FIFO at equal timestamps, by scheduling (or reservation) order.
        let order: Vec<u32> = eng.model().seen.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, vec![2, 1, 3, 4]);
    }

    #[test]
    fn horizon_excludes_boundary_events() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_secs(5), 7);
        let reason = eng.run_until(SimTime::from_secs(5));
        assert_eq!(reason, StopReason::HorizonReached);
        assert!(eng.model().seen.is_empty());
        assert_eq!(eng.now(), SimTime::from_secs(5));
        // A subsequent run picks the boundary event up.
        assert_eq!(eng.run_until(SimTime::from_secs(6)), StopReason::QueueExhausted);
        assert_eq!(eng.model().seen.len(), 1);
    }

    #[test]
    fn self_scheduling_chain_runs_out() {
        let mut eng = Engine::new(Recorder {
            seen: Vec::new(),
            echo_delay: Some(SimDuration::SECOND),
        });
        eng.scheduler().at(SimTime::ZERO, 4);
        eng.run_to_completion();
        assert_eq!(eng.model().seen.len(), 5); // 4,3,2,1,0
        assert_eq!(eng.now(), SimTime::from_secs(4));
        assert_eq!(eng.events_dispatched(), 5);
    }

    #[test]
    fn run_until_tiles_cleanly() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_secs(30), 1);
        for k in 1..=10 {
            eng.run_until(SimTime::from_secs(10 * k));
        }
        assert_eq!(eng.now(), SimTime::from_secs(100));
        assert_eq!(eng.model().seen.len(), 1);
    }

    #[test]
    fn step_dispatches_single_event() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_secs(1), 1);
        eng.scheduler().at(SimTime::from_secs(2), 2);
        assert_eq!(eng.step(), Some(SimTime::from_secs(1)));
        assert_eq!(eng.model().seen.len(), 1);
        assert_eq!(eng.step(), Some(SimTime::from_secs(2)));
        assert_eq!(eng.step(), None);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler().at(SimTime::from_secs(10), 1);
        eng.run_to_completion();
        eng.scheduler().at(SimTime::from_secs(1), 2);
    }

    #[test]
    fn immediately_preserves_fifo_with_same_instant() {
        #[derive(Debug, Default)]
        struct Chain(Vec<u32>);
        impl Model for Chain {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.0.push(ev);
                if ev < 3 {
                    sched.immediately(ev + 10); // fires after already-queued ev+1
                }
            }
        }
        let mut eng = Engine::new(Chain::default());
        {
            let mut s = eng.scheduler();
            s.at(SimTime::ZERO, 1);
            s.at(SimTime::ZERO, 2);
        }
        eng.run_to_completion();
        assert_eq!(eng.model().0, vec![1, 2, 11, 12]);
    }
}
