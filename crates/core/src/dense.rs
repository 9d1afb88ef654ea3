//! Id-indexed tables for ids the table did not create.

use std::collections::BTreeMap;

/// A table indexed by ids that *should* be the dense sequence `0..n` but
/// arrive from outside (a JSONL file, a caller's hand-built event), so
/// none of them may size an allocation.
///
/// Rows live in a `Vec` up to a bound tied to what the table has been
/// asked to create — the larger of [`DenseTable::FLOOR`] and four times
/// the number of rows created so far — and in a small sorted spill map
/// beyond it. A stream of `k` events therefore never holds more than
/// `max(FLOOR, 4k)` dense rows, whatever ids it carries; a run's own ids
/// never leave the `Vec`.
#[derive(Debug)]
pub(crate) struct DenseTable<T> {
    dense: Vec<T>,
    /// Rows past the bound; every key is `>= dense.len()`.
    spill: BTreeMap<u64, T>,
    /// Rows this table was asked to create (growths and spill inserts).
    created: u64,
}

impl<T> Default for DenseTable<T> {
    fn default() -> Self {
        DenseTable { dense: Vec::new(), spill: BTreeMap::new(), created: 0 }
    }
}

impl<T: Default> DenseTable<T> {
    /// Ids below this are always dense.
    const FLOOR: u64 = 1 << 16;

    /// The row of `id`, if it was ever created.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        match usize::try_from(id).ok().and_then(|i| self.dense.get_mut(i)) {
            Some(row) => Some(row),
            None => self.spill.get_mut(&id),
        }
    }

    /// The row of `id`, created in its default state if absent.
    #[inline]
    pub fn entry(&mut self, id: u64) -> &mut T {
        let i = usize::try_from(id).unwrap_or(usize::MAX);
        if i < self.dense.len() {
            return &mut self.dense[i];
        }
        self.create(id)
    }

    #[cold]
    fn create(&mut self, id: u64) -> &mut T {
        if !self.spill.contains_key(&id) {
            self.created += 1;
            if id < Self::FLOOR.max(self.created.saturating_mul(4)) {
                self.dense.resize_with(id as usize + 1, T::default);
                // Rows that spilled while the bound was lower come home.
                if !self.spill.is_empty() {
                    let beyond = self.spill.split_off(&(id + 1));
                    for (k, row) in std::mem::replace(&mut self.spill, beyond) {
                        self.dense[k as usize] = row;
                    }
                }
                return &mut self.dense[id as usize];
            }
        }
        self.spill.entry(id).or_default()
    }

    /// Every row, in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        let dense = self.dense.iter_mut().enumerate().map(|(i, row)| (i as u64, row));
        dense.chain(self.spill.iter_mut().map(|(&id, row)| (id, row)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ids_stay_in_the_vec_and_wild_ones_spill() {
        let mut t: DenseTable<u32> = DenseTable::default();
        *t.entry(3) = 30;
        *t.entry(u64::MAX) = 7;
        *t.entry(DenseTable::<u32>::FLOOR) = 9;
        assert_eq!(t.dense.len(), 4, "no allocation sized by a wild id");
        assert_eq!(t.spill.len(), 2);
        let mut at = |id| t.get_mut(id).copied();
        assert_eq!((at(3), at(u64::MAX), at(2), at(5)), (Some(30), Some(7), Some(0), None));
        *t.entry(u64::MAX) += 1;
        assert_eq!(t.created, 3, "an id already spilled is not created again");
        let ids: Vec<u64> = t.iter_mut().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, DenseTable::<u32>::FLOOR, u64::MAX]);
    }

    #[test]
    fn the_bound_grows_with_the_rows_created_and_spilled_rows_come_home() {
        let mut t: DenseTable<u64> = DenseTable::default();
        let floor = DenseTable::<u64>::FLOOR;
        // Ids just past the floor spill until enough rows exist to make
        // them plausible; the first one that is dense again pulls the
        // rest home.
        *t.entry(floor) = 1;
        assert_eq!((t.dense.len(), t.spill.len()), (0, 1));
        for k in 1..floor / 2 {
            *t.entry(floor + k) = k + 1;
        }
        assert!(t.spill.is_empty(), "every spilled id lies below the new length");
        assert_eq!(t.dense.len() as u64, floor + floor / 2);
        assert_eq!(t.get_mut(floor + 5), Some(&mut 6));
    }
}
