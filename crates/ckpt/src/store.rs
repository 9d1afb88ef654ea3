//! Checkpoint storage with disk-capacity accounting.
//!
//! Paper §4 is largely about disk space: checkpoint files live on the
//! *submitting* workstation's disk, a full disk blocks placements, and the
//! number of simultaneously running background jobs is limited by the space
//! their checkpoints need. [`CheckpointStore`] models exactly that — a
//! fixed-capacity volume holding the latest image per job — and exposes the
//! occupancy numbers the scheduler needs for its placement decisions.
//!
//! Only the most recent checkpoint per job is retained (restoring an old
//! sequence would repeat work the job already completed); replacing an image
//! frees the old one's space first, and a store refuses writes that would
//! exceed its capacity.

use std::collections::HashMap;

use bytes::Bytes;

use crate::error::StoreError;
use crate::image::CheckpointImage;

/// A fixed-capacity checkpoint volume, keyed by job id.
///
/// # Examples
///
/// ```
/// use condor_ckpt::image::CheckpointBuilder;
/// use condor_ckpt::store::CheckpointStore;
///
/// let mut store = CheckpointStore::new(1 << 20);
/// let img = CheckpointBuilder::new(1, 1).build().unwrap();
/// store.put(&img)?;
/// let restored = store.get(1)?;
/// assert_eq!(restored.job_id(), 1);
/// # Ok::<(), condor_ckpt::error::StoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    capacity: u64,
    used: u64,
    images: HashMap<u64, StoredImage>,
    puts: u64,
}

#[derive(Debug, Clone)]
struct StoredImage {
    sequence: u32,
    frame: Bytes,
}

impl CheckpointStore {
    /// Creates an empty store with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        CheckpointStore {
            capacity,
            used: 0,
            images: HashMap::new(),
            puts: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied by stored images.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes still free.
    pub fn available(&self) -> u64 {
        self.capacity - self.used
    }

    /// Number of distinct jobs with a stored checkpoint.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// `true` when no checkpoints are stored.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Stores (or replaces) the checkpoint for the image's job.
    ///
    /// Replacement is atomic with respect to capacity: the old image's
    /// space is reclaimed as part of the same operation, so a store sized
    /// for one image can hold successive checkpoints of the same job. A
    /// stale image (sequence lower than the one stored) is rejected as
    /// corrupt bookkeeping in debug builds and ignored in release builds.
    ///
    /// # Errors
    ///
    /// [`StoreError::DiskFull`] when the image does not fit even after
    /// reclaiming the replaced one.
    pub fn put(&mut self, image: &CheckpointImage) -> Result<(), StoreError> {
        let frame = image.encode();
        let size = frame.len() as u64;
        let freed = self
            .images
            .get(&image.job_id())
            .map_or(0, |s| s.frame.len() as u64);
        if let Some(existing) = self.images.get(&image.job_id()) {
            debug_assert!(
                existing.sequence <= image.sequence(),
                "storing checkpoint seq {} over newer seq {}",
                image.sequence(),
                existing.sequence,
            );
            if existing.sequence > image.sequence() {
                return Ok(()); // never clobber a newer checkpoint
            }
        }
        if size > self.capacity - self.used + freed {
            return Err(StoreError::DiskFull {
                needed: size,
                available: self.capacity - self.used + freed,
            });
        }
        self.used = self.used - freed + size;
        self.images.insert(
            image.job_id(),
            StoredImage {
                sequence: image.sequence(),
                frame,
            },
        );
        self.puts += 1;
        Ok(())
    }

    /// Retrieves and decodes the latest checkpoint for `job_id`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] when no image is stored, or
    /// [`StoreError::Corrupt`] if the stored frame fails validation.
    pub fn get(&self, job_id: u64) -> Result<CheckpointImage, StoreError> {
        let stored = self.images.get(&job_id).ok_or_else(|| StoreError::NotFound {
            key: format!("job {job_id}"),
        })?;
        Ok(CheckpointImage::decode(stored.frame.clone())?)
    }

    /// The stored sequence number for `job_id`, if any.
    pub fn sequence_of(&self, job_id: u64) -> Option<u32> {
        self.images.get(&job_id).map(|s| s.sequence)
    }

    /// Removes the checkpoint for `job_id` (e.g. when the job completes),
    /// returning the bytes freed.
    pub fn remove(&mut self, job_id: u64) -> Option<u64> {
        self.images.remove(&job_id).map(|s| {
            let freed = s.frame.len() as u64;
            self.used -= freed;
            freed
        })
    }

    /// Total successful writes over the store's lifetime.
    pub fn puts(&self) -> u64 {
        self.puts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{CheckpointBuilder, SegmentKind};

    fn image(job: u64, seq: u32, payload_len: usize) -> CheckpointImage {
        CheckpointBuilder::new(job, seq)
            .segment(SegmentKind::Data, 0, vec![7u8; payload_len])
            .build()
            .unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = CheckpointStore::new(10_000);
        let img = image(1, 1, 100);
        s.put(&img).unwrap();
        assert_eq!(s.get(1).unwrap(), img);
        assert_eq!(s.len(), 1);
        assert_eq!(s.sequence_of(1), Some(1));
        assert!(s.used() > 100);
        assert_eq!(s.puts(), 1);
    }

    #[test]
    fn get_missing_is_not_found() {
        let s = CheckpointStore::new(100);
        match s.get(9) {
            Err(StoreError::NotFound { key }) => assert!(key.contains('9')),
            other => panic!("expected NotFound, got {other:?}"),
        }
    }

    #[test]
    fn replacement_reclaims_space() {
        let first = image(1, 1, 500);
        let capacity = first.size_bytes() + 64; // room for one image plus slack
        let mut s = CheckpointStore::new(capacity);
        s.put(&first).unwrap();
        let used_after_first = s.used();
        // A same-size successor must fit by reclaiming the original.
        s.put(&image(1, 2, 500)).unwrap();
        assert_eq!(s.used(), used_after_first);
        assert_eq!(s.sequence_of(1), Some(2));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn disk_full_rejected() {
        let img = image(1, 1, 300);
        let mut s = CheckpointStore::new(img.size_bytes() - 1);
        match s.put(&img) {
            Err(StoreError::DiskFull { needed, available }) => {
                assert!(needed > available);
            }
            other => panic!("expected DiskFull, got {other:?}"),
        }
        assert_eq!(s.len(), 0);
        assert_eq!(s.used(), 0);
    }

    #[test]
    fn replacement_reuses_the_replaced_space() {
        let img = image(1, 1, 400);
        let mut s = CheckpointStore::new(img.size_bytes());
        s.put(&img).unwrap();
        // No room for a second job...
        assert!(matches!(s.put(&image(2, 1, 400)), Err(StoreError::DiskFull { .. })));
        // ...but the same job can checkpoint again.
        s.put(&image(1, 2, 400)).unwrap();
        assert_eq!(s.sequence_of(1), Some(2));
    }

    #[test]
    fn remove_frees_space() {
        let mut s = CheckpointStore::new(100_000);
        s.put(&image(1, 1, 100)).unwrap();
        s.put(&image(2, 1, 100)).unwrap();
        let freed = s.remove(1).expect("was stored");
        assert!(freed > 100);
        assert_eq!(s.len(), 1);
        assert!(s.get(1).is_err());
        assert!(s.get(2).is_ok());
        assert_eq!(s.remove(1), None);
    }

    #[test]
    fn stale_sequence_never_clobbers_newer() {
        let mut s = CheckpointStore::new(100_000);
        s.put(&image(1, 5, 100)).unwrap();
        // Debug builds assert; emulate release behaviour via catch_unwind.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = s.put(&image(1, 3, 100));
        }));
        if result.is_ok() {
            // Release build: silently ignored.
            assert_eq!(s.sequence_of(1), Some(5));
        }
    }

    #[test]
    fn multiple_jobs_tracked_independently() {
        let mut s = CheckpointStore::new(1 << 20);
        for job in 0..10 {
            s.put(&image(job, 1, 64)).unwrap();
        }
        assert_eq!(s.len(), 10);
        assert!((0..10).all(|job| s.sequence_of(job) == Some(1)));
        assert_eq!(s.available(), s.capacity() - s.used());
    }
}
