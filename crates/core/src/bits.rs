//! Two-level bitsets for fleet-scale coordinator indexes.
//!
//! At 100k stations a flat bitset is already compact (≈12.5 KB), but
//! *finding* the set bits still walks every word. [`Bits`] keeps a summary
//! level — one bit per 64-bit word — so membership updates stay O(1) and
//! ascending iteration costs O(set bits + summary words): a poll that
//! extracts a handful of active stations from a 100k-station fleet touches
//! a few dozen cache lines, not the whole array.

use condor_net::NodeId;

/// A fixed-capacity bitset over station ids with a one-level summary and a
/// maintained population count.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Bits {
    /// Bit `i % 64` of `words[i / 64]` ⇔ station `i` is a member.
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` ⇔ `words[w] != 0`.
    summary: Vec<u64>,
    /// Number of set bits, maintained on every transition.
    count: u32,
}

impl Bits {
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Bits {
            words: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            count: 0,
        }
    }

    /// Number of members.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Adds or removes station `i`; O(1), idempotent.
    #[inline]
    pub fn set(&mut self, i: usize, on: bool) {
        let w = i / 64;
        let bit = 1u64 << (i % 64);
        let word = self.words[w];
        if on {
            if word & bit == 0 {
                self.words[w] = word | bit;
                self.summary[w / 64] |= 1u64 << (w % 64);
                self.count += 1;
            }
        } else if word & bit != 0 {
            let new = word & !bit;
            self.words[w] = new;
            if new == 0 {
                self.summary[w / 64] &= !(1u64 << (w % 64));
            }
            self.count -= 1;
        }
    }

    /// Calls `f` for each member in ascending id order until it returns
    /// `false`. Iteration is summary-guided: empty regions cost one summary
    /// word per 4096 stations.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(u32) -> bool) {
        for (sw, &sword) in self.summary.iter().enumerate() {
            let mut sword = sword;
            while sword != 0 {
                let w = sw * 64 + sword.trailing_zeros() as usize;
                sword &= sword - 1;
                let mut word = self.words[w];
                while word != 0 {
                    let id = w as u32 * 64 + word.trailing_zeros();
                    word &= word - 1;
                    if !f(id) {
                        return;
                    }
                }
            }
        }
    }

    /// Calls `f` for each member in ascending id order and removes the
    /// members it returns `false` for — the whole set, for an `f` that
    /// always does. Same walk as [`for_each`](Self::for_each).
    pub fn retain(&mut self, mut f: impl FnMut(u32) -> bool) {
        for sw in 0..self.summary.len() {
            let mut sword = self.summary[sw];
            while sword != 0 {
                let w = sw * 64 + sword.trailing_zeros() as usize;
                sword &= sword - 1;
                let mut word = self.words[w];
                let mut kept = word;
                while word != 0 {
                    let bit = word & word.wrapping_neg();
                    word ^= bit;
                    if !f(w as u32 * 64 + bit.trailing_zeros()) {
                        kept ^= bit;
                        self.count -= 1;
                    }
                }
                self.words[w] = kept;
                if kept == 0 {
                    self.summary[sw] &= !(1u64 << (w % 64));
                }
            }
        }
    }

    /// Widens the set to ids below `n`, keeping its members; a no-op when
    /// it already holds them.
    pub fn grow(&mut self, n: usize) {
        let words = n.div_ceil(64);
        if words > self.words.len() {
            self.words.resize(words, 0);
            self.summary.resize(words.div_ceil(64), 0);
        }
    }

    /// Expands the membership into ascending [`NodeId`]s.
    pub fn collect_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.reserve(self.count as usize);
        self.for_each(|id| {
            out.push(NodeId::new(id));
            true
        });
    }

    /// Expands only the first `k` members (ascending) — the truncated head
    /// the coordinator hands to budget-bounded policies.
    pub fn collect_head(&self, k: usize, out: &mut Vec<NodeId>) {
        out.clear();
        self.for_each(|id| {
            out.push(NodeId::new(id));
            out.len() < k
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_count_and_order() {
        let mut b = Bits::new(10_000);
        for &i in &[0usize, 63, 64, 4095, 4096, 9999] {
            b.set(i, true);
        }
        b.set(63, true); // idempotent
        assert_eq!(b.count(), 6);
        assert!(b.get(4096) && !b.get(4097));
        let mut out = Vec::new();
        b.collect_into(&mut out);
        let ids: Vec<u32> = out.iter().map(|n| n.index()).collect();
        assert_eq!(ids, vec![0, 63, 64, 4095, 4096, 9999]);
        b.set(64, false);
        b.set(64, false); // idempotent
        assert_eq!(b.count(), 5);
        let mut head = Vec::new();
        b.collect_head(2, &mut head);
        assert_eq!(head.len(), 2);
        assert_eq!(head[0].index(), 0);
        assert_eq!(head[1].index(), 63);
    }

    #[test]
    fn summary_tracks_word_emptiness() {
        let mut b = Bits::new(8192);
        b.set(8191, true);
        let mut seen = Vec::new();
        b.for_each(|id| {
            seen.push(id);
            true
        });
        assert_eq!(seen, vec![8191]);
        b.set(8191, false);
        assert_eq!(b.count(), 0);
        b.for_each(|_| panic!("empty set iterated"));
    }

    #[test]
    fn matches_naive_reference_under_random_churn() {
        let mut b = Bits::new(997);
        let mut reference = vec![false; 997];
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % 997;
            let on = state & 1 == 0;
            b.set(i, on);
            reference[i] = on;
        }
        let expect: Vec<u32> =
            (0..997).filter(|&i| reference[i]).map(|i| i as u32).collect();
        let mut got = Vec::new();
        b.for_each(|id| {
            got.push(id);
            true
        });
        assert_eq!(got, expect);
        assert_eq!(b.count() as usize, expect.len());
    }

    #[test]
    fn retain_visits_in_order_and_drops_what_it_rejects() {
        let mut b = Bits::new(100);
        for i in [3usize, 64, 65, 99] {
            b.set(i, true);
        }
        b.grow(5_000);
        b.set(4_999, true);
        let mut seen = Vec::new();
        b.retain(|id| {
            seen.push(id);
            id % 2 == 1
        });
        assert_eq!(seen, vec![3, 64, 65, 99, 4_999]);
        let mut left = Vec::new();
        b.collect_into(&mut left);
        let left: Vec<u32> = left.iter().map(|n| n.index()).collect();
        assert_eq!(left, vec![3, 65, 99, 4_999]);
        assert_eq!(b.count(), 4);
        b.retain(|_| false);
        assert_eq!(b.count(), 0);
        b.for_each(|_| panic!("emptied set iterated"));
    }
}
