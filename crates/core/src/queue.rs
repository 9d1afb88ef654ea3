//! The per-workstation background job queue.
//!
//! Paper §2.1: *"A local scheduler with more than one background job
//! waiting makes its own decision of which job should be executed next."*
//! The coordinator grants capacity to the *station*, and the station picks
//! the job. The 1988 local scheduler's choice is first come, first served:
//! the first waiting job the granted machine can run.

use std::collections::VecDeque;

use crate::job::JobId;

/// A station's FIFO of background jobs awaiting remote capacity.
///
/// Jobs *running remotely* are not in this queue; it holds only jobs
/// waiting to be (re)placed.
///
/// # Examples
///
/// ```
/// use condor_core::job::JobId;
/// use condor_core::queue::BackgroundQueue;
///
/// let mut q = BackgroundQueue::default();
/// q.enqueue(JobId(1));
/// q.enqueue(JobId(2));
/// assert_eq!(q.pop_next_where(|_| true), Some(JobId(1)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BackgroundQueue {
    entries: VecDeque<JobId>,
}

impl BackgroundQueue {
    /// Adds a job at the back.
    pub fn enqueue(&mut self, job: JobId) {
        debug_assert!(
            !self.contains(job),
            "job {job:?} enqueued twice on the same station"
        );
        self.entries.push_back(job);
    }

    /// Puts a preempted job back at the *front*: it already waited its turn
    /// and lost its machine through no fault of its own.
    pub fn enqueue_front(&mut self, job: JobId) {
        debug_assert!(!self.contains(job), "job {job:?} re-enqueued twice");
        self.entries.push_front(job);
    }

    /// Removes and returns the first job satisfying `eligible` — the
    /// granted machine may only run some of the waiting jobs
    /// (architecture-constrained placement, paper §5(4)).
    pub fn pop_next_where(&mut self, eligible: impl Fn(JobId) -> bool) -> Option<JobId> {
        let idx = self.entries.iter().position(|&j| eligible(j))?;
        self.entries.remove(idx)
    }

    /// Removes a specific job (e.g. cancelled by the user).
    pub fn remove(&mut self, job: JobId) -> bool {
        if let Some(idx) = self.entries.iter().position(|&j| j == job) {
            self.entries.remove(idx);
            true
        } else {
            false
        }
    }

    /// Whether the job is waiting here.
    pub fn contains(&self, job: JobId) -> bool {
        self.entries.contains(&job)
    }

    /// Number of waiting jobs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over waiting job ids in service order.
    pub fn iter(&self) -> impl Iterator<Item = JobId> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(q: &mut BackgroundQueue) -> Option<JobId> {
        q.pop_next_where(|_| true)
    }

    #[test]
    fn fifo_order() {
        let mut q = BackgroundQueue::default();
        q.enqueue(JobId(1));
        q.enqueue(JobId(2));
        q.enqueue(JobId(3));
        assert_eq!(pop(&mut q), Some(JobId(1)));
        assert_eq!(pop(&mut q), Some(JobId(2)));
        assert_eq!(pop(&mut q), Some(JobId(3)));
        assert_eq!(pop(&mut q), None);
    }

    #[test]
    fn preempted_jobs_go_to_front() {
        let mut q = BackgroundQueue::default();
        q.enqueue(JobId(1));
        q.enqueue_front(JobId(7));
        assert_eq!(pop(&mut q), Some(JobId(7)));
    }

    #[test]
    fn pop_next_where_skips_ineligible() {
        let mut q = BackgroundQueue::default();
        q.enqueue(JobId(1));
        q.enqueue(JobId(2));
        q.enqueue(JobId(3));
        assert_eq!(q.pop_next_where(|j| j.0 % 2 == 0), Some(JobId(2)));
        // Queue order of the others is intact.
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![JobId(1), JobId(3)]);
        assert_eq!(q.pop_next_where(|j| j.0 > 3), None);
    }

    #[test]
    fn remove_and_contains() {
        let mut q = BackgroundQueue::default();
        q.enqueue(JobId(1));
        q.enqueue(JobId(2));
        assert!(q.contains(JobId(1)));
        assert!(q.remove(JobId(1)));
        assert!(!q.contains(JobId(1)));
        assert!(!q.remove(JobId(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        let ids: Vec<JobId> = q.iter().collect();
        assert_eq!(ids, vec![JobId(2)]);
    }
}
