//! Deterministic future-event queue.
//!
//! Every event is keyed by `(time, sequence)`. The sequence number is
//! assigned at insertion, so two events scheduled for the same instant are
//! delivered in the order they were scheduled, and the key is unique: the
//! queue delivers one total order, with no dependence on heap internals or
//! hash ordering. That makes simulation runs fully deterministic for a
//! given seed.
//!
//! # Two places an event can wait
//!
//! * **The heap** — an indexed 4-ary min-heap over the key packed into one
//!   `u128` (time in the high half, sequence in the low half). A slot table
//!   maps each [`EventToken`] (slot plus generation) to its heap position,
//!   so [`EventQueue::cancel`] removes the entry at once: nothing cancelled
//!   stays behind to surface later, and the heap holds exactly the live
//!   events. Slots are reused; bumping the slot's generation on every
//!   release is what keeps a fired or cancelled token from reaching the
//!   slot's next occupant.
//! * **The in-order lane** — a FIFO for events planted through
//!   [`EventQueue::schedule_in_order`] in nondecreasing time (a model's
//!   initial arrivals, typically thousands of entries that wait days to
//!   fire). Its keys rise front to back, so it needs no ordering work and
//!   keeps those entries out of the heap the busy events sift through. An
//!   event that would break the lane's order goes to the heap instead, so
//!   the caller promises nothing. A lane token addresses its entry by
//!   sequence number (binary search), and a cancelled lane entry leaves the
//!   lane at once.
//!
//! [`EventQueue::pop`] and [`EventQueue::peek_time`] take the smaller key
//! of the two heads. Memory follows the live events, not the events ever
//! scheduled.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
///
/// A token stops naming anything once its event fires or is cancelled;
/// [`EventQueue::cancel`] then returns `false` for it, even after its heap
/// slot has been reused (a slot's generation wraps only after 2³¹
/// reuses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventToken(u64);

/// Children per heap node, as measured: two were ≈7 % faster where most
/// entries settle near the bottom (`engine/loaded_churn`), but an entry
/// that becomes the new earliest event climbs, and later sinks, twice as
/// many levels — the repo benchmark's `sim.queue_cancel_ns`, which plants
/// one and cancels it, read ≈110 ns at two against ≈44 at four; eight were
/// slower than four on both.
const ARITY: usize = 4;
/// Set in the token of a lane entry, whose low bits are its sequence number.
const LANE_TOKEN: u64 = 1 << 63;
/// Slot generations count modulo 2³¹, keeping heap tokens clear of
/// [`LANE_TOKEN`].
const GEN_MASK: u32 = u32::MAX >> 1;

fn pack(at: SimTime, seq: u64) -> u128 {
    (u128::from(at.as_millis()) << 64) | u128::from(seq)
}

fn time_of(key: u128) -> SimTime {
    SimTime::from_millis((key >> 64) as u64)
}

/// One entry of the slot table: where the event sits in the heap, and the
/// event itself while it waits (`None` while the slot is free). Slot
/// numbers and heap positions are `u32`: 2³² live events would take
/// hundreds of GiB.
struct Slot<E> {
    gen: u32,
    pos: u32,
    event: Option<E>,
}

/// One entry of the in-order lane.
struct Planted<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// A future-event list with deterministic FIFO tie-breaking, O(log n)
/// insert, pop and cancel, and an O(1) `&self` [`EventQueue::peek_time`].
///
/// # Examples
///
/// ```
/// use condor_sim::event::EventQueue;
/// use condor_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "later");
/// let early = q.schedule(SimTime::from_secs(2), "cancelled");
/// q.schedule_in_order(SimTime::from_secs(1), "sooner");
/// assert!(q.cancel(early));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "later")));
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    /// Heap-ordered keys; `heap_slot[i]` is the slot of `keys[i]`.
    keys: Vec<u128>,
    heap_slot: Vec<u32>,
    slots: Vec<Slot<E>>,
    /// Slots free for reuse.
    free: Vec<u32>,
    /// Keys strictly increasing front to back.
    lane: VecDeque<Planted<E>>,
    next_seq: u64,
    cancelled_total: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            keys: Vec::new(),
            heap_slot: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lane: VecDeque::new(),
            next_seq: 0,
            cancelled_total: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`; returns a token that
    /// can later be passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        let key = pack(at, self.take_seq());
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    gen: 0,
                    pos: 0,
                    event: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let entry = &mut self.slots[slot as usize];
        entry.event = Some(event);
        let token = EventToken((u64::from(entry.gen) << 32) | u64::from(slot));
        self.keys.push(key);
        self.heap_slot.push(slot);
        self.sift_up(self.keys.len() - 1, key, slot);
        token
    }

    /// Schedules `event` like [`EventQueue::schedule`], through the
    /// in-order lane when `at` is no earlier than the lane's last entry.
    ///
    /// Meant for planting a batch already sorted by time: each such event
    /// costs a push onto a FIFO instead of a heap insertion, and stays out
    /// of the heap until it fires. Out-of-order input simply goes to the
    /// heap. Delivery order is the same `(time, scheduling order)` either
    /// way. Cancelling a lane entry costs a binary search and a shift of
    /// the shorter side of the lane.
    pub fn schedule_in_order(&mut self, at: SimTime, event: E) -> EventToken {
        if self.lane.back().is_some_and(|last| last.at > at) {
            return self.schedule(at, event);
        }
        let seq = self.take_seq();
        self.lane.push_back(Planted { at, seq, event });
        EventToken(LANE_TOKEN | seq)
    }

    /// Cancels a previously scheduled event. Returns `true` if the token was
    /// still pending (i.e. not yet fired or cancelled); cancelling a token
    /// that already fired or was already cancelled is a no-op returning
    /// `false`.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let removed = if token.0 & LANE_TOKEN != 0 {
            self.cancel_planted(token.0 & !LANE_TOKEN)
        } else {
            self.cancel_slot(token.0 as u32, (token.0 >> 32) as u32)
        };
        self.cancelled_total += u64::from(removed);
        removed
    }

    /// Removes and returns the earliest pending event. Returns `None` when
    /// the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, from_lane) = self.head()?;
        self.take(from_lane)
    }

    /// Removes and returns the earliest pending event if it fires strictly
    /// before `horizon`.
    pub(crate) fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let (key, from_lane) = self.head()?;
        if time_of(key) >= horizon {
            return None;
        }
        self.take(from_lane)
    }

    /// The timestamp of the next pending event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(key, _)| time_of(key))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.keys.len() + self.lane.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.lane.is_empty()
    }

    /// Total events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total events ever cancelled on this queue.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The smallest key pending, and whether the lane holds it.
    fn head(&self) -> Option<(u128, bool)> {
        let lane = self.lane.front().map(|p| pack(p.at, p.seq));
        match (lane, self.keys.first()) {
            (Some(l), Some(&h)) => Some(if l < h { (l, true) } else { (h, false) }),
            (Some(l), None) => Some((l, true)),
            (None, Some(&h)) => Some((h, false)),
            (None, None) => None,
        }
    }

    fn take(&mut self, from_lane: bool) -> Option<(SimTime, E)> {
        if from_lane {
            return self.lane.pop_front().map(|p| (p.at, p.event));
        }
        let (&key, &slot) = (self.keys.first()?, self.heap_slot.first()?);
        self.remove_at(0);
        self.release(slot).map(|event| (time_of(key), event))
    }

    fn cancel_planted(&mut self, seq: u64) -> bool {
        // Lane sequence numbers rise front to back along with the keys.
        match self.lane.binary_search_by_key(&seq, |p| p.seq) {
            Ok(i) => self.lane.remove(i).is_some(),
            Err(_) => false,
        }
    }

    fn cancel_slot(&mut self, slot: u32, gen: u32) -> bool {
        let pos = match self.slots.get(slot as usize) {
            Some(s) if s.gen == gen && s.event.is_some() => s.pos as usize,
            _ => return false,
        };
        self.remove_at(pos);
        self.release(slot).is_some()
    }

    /// Frees `slot` for reuse and hands back its event. The generation
    /// bump retires every token issued for the slot so far.
    fn release(&mut self, slot: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1) & GEN_MASK;
        self.free.push(slot);
        let event = s.event.take();
        debug_assert!(event.is_some(), "a heap entry's slot holds its event");
        event
    }

    /// Deletes heap position `pos`, refilling it with the last entry.
    fn remove_at(&mut self, pos: usize) {
        let (Some(key), Some(slot)) = (self.keys.pop(), self.heap_slot.pop()) else {
            return;
        };
        if pos == self.keys.len() {
            return;
        }
        if pos > 0 && key < self.keys[(pos - 1) / ARITY] {
            self.sift_up(pos, key, slot);
        } else {
            self.sift_down(pos, key, slot);
        }
    }

    /// Writes `key`/`slot` at `pos` and records the position in the slot.
    fn place(&mut self, pos: usize, key: u128, slot: u32) {
        self.keys[pos] = key;
        self.heap_slot[pos] = slot;
        self.slots[slot as usize].pos = pos as u32;
    }

    /// Moves the hole at `pos` up until `key` fits, then fills it.
    fn sift_up(&mut self, mut pos: usize, key: u128, slot: u32) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            let above = self.keys[parent];
            if above < key {
                break;
            }
            self.place(pos, above, self.heap_slot[parent]);
            pos = parent;
        }
        self.place(pos, key, slot);
    }

    /// Moves the hole at `pos` down until `key` fits, then fills it.
    fn sift_down(&mut self, mut pos: usize, key: u128, slot: u32) {
        loop {
            let first = pos * ARITY + 1;
            if first >= self.keys.len() {
                break;
            }
            let kids = &self.keys[first..(first + ARITY).min(self.keys.len())];
            // Smallest child without a branch per comparison.
            let (mut best, mut below) = (0, kids[0]);
            for (i, &k) in kids.iter().enumerate().skip(1) {
                let less = k < below;
                best = if less { i } else { best };
                below = if less { k } else { below };
            }
            if key < below {
                break;
            }
            let child = first + best;
            self.place(pos, below, self.heap_slot[child]);
            pos = child;
        }
        self.place(pos, key, slot);
    }
}

impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("scheduled_total", &self.scheduled_total())
            .field("cancelled_total", &self.cancelled_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimTime;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            if i % 3 == 0 {
                q.schedule_in_order(t, i);
            } else {
                q.schedule(t, i);
            }
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_suppresses_delivery() {
        let mut q = EventQueue::new();
        let keep = q.schedule(SimTime::from_secs(1), "keep");
        let drop_ = q.schedule(SimTime::from_secs(2), "drop");
        assert!(q.cancel(drop_));
        assert!(!q.cancel(drop_), "double-cancel must report false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "keep")));
        assert_eq!(q.pop(), None);
        // Token for an already-fired event: cancel is a no-op.
        assert!(!q.cancel(keep));
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let first = q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(5), 2);
        q.cancel(first);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), 2)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        q.cancel(a);
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.cancelled_total(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn bogus_token_is_rejected() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventToken(42)));
        assert!(!q.cancel(EventToken(LANE_TOKEN | 42)));
    }

    #[test]
    fn pop_before_stops_at_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 'b');
        q.schedule_in_order(SimTime::from_secs(1), 'a');
        assert_eq!(q.pop_before(SimTime::from_secs(1)), None);
        assert_eq!(
            q.pop_before(SimTime::from_secs(5)),
            Some((SimTime::from_secs(1), 'a'))
        );
        assert_eq!(q.pop_before(SimTime::from_secs(5)), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn memory_follows_the_live_events() {
        // A long schedule/cancel/pop churn through both the heap and the
        // lane: heap and lane hold exactly the live events — nothing fired
        // or cancelled stays behind — and the slot table never outgrows
        // the most events that were live at once.
        let mut rng = SimRng::seed_from(25);
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        let (mut now, mut live, mut peak) = (0u64, 0usize, 0usize);
        for step in 0..200_000u64 {
            match rng.uniform_range_u64(0, 10) {
                0..=3 => {
                    let at = SimTime::from_millis(now + rng.uniform_range_u64(0, 10_000));
                    tokens.push(q.schedule(at, step));
                    live += 1;
                }
                4 => {
                    let at = SimTime::from_millis(now + 5_000 + step);
                    tokens.push(q.schedule_in_order(at, step));
                    live += 1;
                }
                5 | 6 if !tokens.is_empty() => {
                    let i = rng.uniform_range_u64(0, tokens.len() as u64) as usize;
                    live -= usize::from(q.cancel(tokens.swap_remove(i)));
                }
                _ => {
                    if let Some((at, _)) = q.pop() {
                        now = at.as_millis();
                        live -= 1;
                    }
                }
            }
            if tokens.len() > 4_096 {
                tokens.drain(..2_048);
            }
            peak = peak.max(live);
            assert_eq!(q.keys.len() + q.lane.len(), live);
            assert_eq!(q.slots.len(), q.keys.len() + q.free.len());
            assert!(
                q.slots.len() <= peak,
                "{} slots, peak {peak}",
                q.slots.len()
            );
        }
        assert!(peak > 1_000, "the churn never built up a backlog");
        while q.pop().is_some() {}
        assert_eq!(q.free.len(), q.slots.len());
        assert!(q.lane.is_empty() && q.keys.is_empty());
    }

    #[test]
    fn head_live_invariant_survives_cancel_storms() {
        let mut q = EventQueue::new();
        let tokens: Vec<_> = (0..64)
            .map(|i| q.schedule(SimTime::from_secs(i), i))
            .collect();
        // Cancel every even event, including a long cancelled prefix.
        for t in tokens.iter().step_by(2) {
            q.cancel(*t);
        }
        // peek_time (a &self read) must agree with what pop delivers.
        let mut popped = Vec::new();
        while let Some(at) = q.peek_time() {
            let (t, e) = q.pop().expect("peek said non-empty");
            assert_eq!(t, at);
            popped.push(e);
        }
        assert_eq!(popped, (1..64).step_by(2).collect::<Vec<_>>());
        assert_eq!(q.len(), 0);
    }
}
