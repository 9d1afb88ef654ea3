//! Deterministic future-event queue.
//!
//! Every event is keyed by `(time, sequence)`. The sequence number is
//! assigned at insertion, so two events scheduled for the same instant are
//! delivered in the order they were scheduled, and the key is unique: the
//! queue delivers one total order, with no dependence on heap internals or
//! hash ordering. That makes simulation runs fully deterministic for a
//! given seed.
//!
//! The queue is an indexed 4-ary min-heap over the key packed into one
//! `u128` (time in the high half, sequence in the low half). A slot table
//! maps each [`EventToken`] (slot plus generation) to its heap position,
//! so [`EventQueue::cancel`] removes the entry at once: nothing cancelled
//! stays behind to surface later, and the heap holds exactly the live
//! events. Slots are reused; bumping the slot's generation on every
//! release is what keeps a fired or cancelled token from reaching the
//! slot's next occupant. Memory follows the live events, not the events
//! ever scheduled.
//!
//! # Reserved sequence numbers
//!
//! A model that knows a long batch of future events up front (a
//! workload's arrivals: thousands that wait days to fire) need not keep
//! them all in the heap the busy events sift through.
//! [`EventQueue::reserve_seqs`] hands it a block of sequence numbers at
//! the point in the scheduling order where the batch belongs, and
//! [`EventQueue::schedule_reserved`] later schedules each member under its
//! own number. Scheduling the members one at a time, each when the one
//! before it fires, keeps one of them in the heap, and every key — so the
//! delivery order — is the one scheduling the whole batch at reservation
//! time would have given.

use crate::time::SimTime;

/// Handle to a scheduled event, usable for cancellation.
///
/// A token stops naming anything once its event fires or is cancelled;
/// [`EventQueue::cancel`] then returns `false` for it, even after its heap
/// slot has been reused (a slot's generation wraps only after 2³²
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
/// // Two numbers, taken here in the scheduling order; the first is used now.
/// let base = q.reserve_seqs(2);
/// q.schedule_reserved(SimTime::from_secs(1), base, "sooner");
/// q.schedule(SimTime::from_secs(5), "last of the 5 s events");
/// assert!(q.cancel(early));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "sooner")));
/// // Scheduled last, but under a number reserved before the event above.
/// q.schedule_reserved(SimTime::from_secs(5), base + 1, "reserved");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "later")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "reserved")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(5), "last of the 5 s events")));
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    /// Heap-ordered keys; `heap_slot[i]` is the slot of `keys[i]`.
    keys: Vec<u128>,
    heap_slot: Vec<u32>,
    slots: Vec<Slot<E>>,
    /// Slots free for reuse.
    free: Vec<u32>,
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
            next_seq: 0,
            cancelled_total: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`; returns a token that
    /// can later be passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(pack(at, seq), event)
    }

    /// Takes the next `n` sequence numbers and returns the first; the
    /// block is `base..base + n`. Events scheduled later through
    /// [`EventQueue::schedule_reserved`] under these numbers order as if
    /// they had been scheduled here, after everything scheduled so far and
    /// before everything scheduled from now on.
    pub fn reserve_seqs(&mut self, n: u64) -> u64 {
        let base = self.next_seq;
        self.next_seq += n;
        base
    }

    /// Schedules `event` at `at` under `seq`, a number taken earlier by
    /// [`EventQueue::reserve_seqs`]. Each reserved number keys at most one
    /// event: the key stays unique, so delivery stays one total order.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) -> EventToken {
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        self.insert(pack(at, seq), event)
    }

    fn insert(&mut self, key: u128, event: E) -> EventToken {
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

    /// Cancels a previously scheduled event. Returns `true` if the token was
    /// still pending (i.e. not yet fired or cancelled); cancelling a token
    /// that already fired or was already cancelled is a no-op returning
    /// `false`.
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let (slot, gen) = (token.0 as u32, (token.0 >> 32) as u32);
        let pos = match self.slots.get(slot as usize) {
            Some(s) if s.gen == gen && s.event.is_some() => s.pos as usize,
            _ => return false,
        };
        self.remove_at(pos);
        self.release(slot);
        self.cancelled_total += 1;
        true
    }

    /// Removes and returns the earliest pending event. Returns `None` when
    /// the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (&key, &slot) = (self.keys.first()?, self.heap_slot.first()?);
        self.remove_at(0);
        self.release(slot).map(|event| (time_of(key), event))
    }

    /// Removes and returns the earliest pending event if it fires strictly
    /// before `horizon`.
    pub(crate) fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.peek_time()? >= horizon {
            return None;
        }
        self.pop()
    }

    /// The timestamp of the next pending event, without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&key| time_of(key))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sequence numbers issued on this queue: every event scheduled
    /// through [`EventQueue::schedule`] plus every number reserved.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Total events ever cancelled on this queue.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Frees `slot` for reuse and hands back its event. The generation
    /// bump retires every token issued for the slot so far.
    fn release(&mut self, slot: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
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
        // Every third event takes its place in the order by reserving a
        // number and is scheduled only after all the others, last first.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        let mut reserved = Vec::new();
        for i in 0..100 {
            if i % 3 == 0 {
                reserved.push((i, q.reserve_seqs(1)));
            } else {
                q.schedule(t, i);
            }
        }
        for (i, seq) in reserved.into_iter().rev() {
            q.schedule_reserved(t, seq, i);
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
        assert!(!q.cancel(EventToken(u64::MAX)));
    }

    #[test]
    fn pop_before_stops_at_the_horizon() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seqs(1);
        q.schedule(SimTime::from_secs(5), 'b');
        q.schedule_reserved(SimTime::from_secs(1), seq, 'a');
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
        // A long schedule/cancel/pop churn, some of it under reserved
        // numbers: the heap holds exactly the live events — nothing fired
        // or cancelled stays behind — and the slot table never outgrows
        // the most events that were live at once.
        let mut rng = SimRng::seed_from(25);
        let mut q = EventQueue::new();
        let mut tokens = Vec::new();
        let (mut now, mut live, mut peak) = (0u64, 0usize, 0usize);
        // The reserved block being used up, as `next..end`.
        let (mut next, mut end) = (0u64, 0u64);
        for step in 0..200_000u64 {
            match rng.uniform_range_u64(0, 10) {
                0..=3 => {
                    let at = SimTime::from_millis(now + rng.uniform_range_u64(0, 10_000));
                    tokens.push(q.schedule(at, step));
                    live += 1;
                }
                4 => {
                    if next == end {
                        next = q.reserve_seqs(64);
                        end = next + 64;
                    }
                    let at = SimTime::from_millis(now + 5_000 + step);
                    tokens.push(q.schedule_reserved(at, next, step));
                    next += 1;
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
            assert_eq!(q.keys.len(), live);
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
        assert!(q.keys.is_empty());
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
