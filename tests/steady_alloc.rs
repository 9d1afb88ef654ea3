//! A job-free fleet allocates (almost) nothing once it is running.
//!
//! With no jobs, no trace and no sink, every station's owner transitions
//! are folded at the 2-minute poll, and what a simulated week costs is the
//! fold, the poll and the event queue — all of which reuse what they
//! already hold. Each case runs the same fleet for 7 and for 14 days on
//! the calling thread and counts that thread's allocations: set-up and
//! the first week are common to both runs, so the difference is the
//! second week. It may allocate at most once per ten polls (504 times).
//!
//! Debug builds re-derive the coordinator's cache from scratch after every
//! poll — allocating, and in O(stations) — so the test runs in release
//! builds only: `cargo test --release --test steady_alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use condor_core::cluster::Run;
use condor_sim::time::SimDuration;
use condor_workload::scenarios::fleet_scale;

/// Counts the allocations of the thread it runs on.
struct CountAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // A thread being torn down has no counter left; nothing to record then.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for CountAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountAlloc = CountAlloc;

/// Polls in a week at the default 2-minute interval.
const WEEKLY_POLLS: u64 = 7 * 24 * 30;

/// Allocations made on this thread while running `stations` job-free
/// stations in `pools` pools, on one thread, for `days` days.
fn allocations(stations: usize, pools: usize, days: u64) -> u64 {
    let scenario = fleet_scale(1988, stations, pools, days);
    let mut run = Run::new(scenario.config).horizon(SimDuration::from_days(days));
    if pools > 1 {
        run = run.threads(1);
    }
    let before = ALLOCS.with(Cell::get);
    let out = run.execute();
    let made = ALLOCS.with(Cell::get) - before;
    assert_eq!(out.totals.placements, 0, "the fleet is job-free");
    drop(out);
    made
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-derive the coordinator cache at every poll")]
fn a_job_free_fleet_allocates_at_most_once_per_ten_polls_in_its_second_week() {
    for (stations, pools) in [(23, 1), (1_000, 1), (10_000, 1), (10_000, 8)] {
        let week = allocations(stations, pools, 7);
        let fortnight = allocations(stations, pools, 14);
        let second_week = fortnight.saturating_sub(week);
        eprintln!("{stations} stations, {pools} pool(s): {week} allocations in 7 days, {second_week} more in the second week");
        assert!(
            second_week <= WEEKLY_POLLS / 10,
            "{stations} stations in {pools} pool(s) allocated {second_week} times in their \
             second week, more than once per ten polls ({})",
            WEEKLY_POLLS / 10
        );
    }
}
