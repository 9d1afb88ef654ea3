//! What a run holds per job, counted in bytes.
//!
//! A run keeps each job once: in its job table. The arrivals wait there,
//! not as queued events; the sharded runner moves the caller's specs into
//! its pools instead of copying them; and per-job side tables cost a few
//! bytes each. This test runs a week of a 10,000-station fleet (about
//! 35,000 jobs) whole and in 8 pools on the calling thread, and measures
//! the most heap that thread held during `Run::execute` above what it held
//! when the call began, which already includes the specs it was handed.
//! The count is exact and the same on any host.
//!
//! * The whole fleet stays within `SERIAL_BYTES_PER_JOB`.
//! * The pooled run stays within `POOLED_OVER_SERIAL` times the whole one:
//!   its shards hold a job table each and the merge builds the fleet's,
//!   and that is the part of the gap left.
//!
//! Debug builds re-derive the coordinator's cache after every poll, which
//! allocates, so the test runs in release builds only:
//! `cargo test --release --test footprint -- --nocapture` prints the
//! counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use condor_core::cluster::Run;
use condor_sim::time::SimDuration;
use condor_workload::scenarios::fleet_scale;

/// Counts the heap bytes the thread it runs on holds, and the most it
/// has held since the last [`reset_peak`].
struct CountBytes;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn note(delta: i64) {
    // A thread being torn down has no counters left; nothing to record then.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for CountBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountBytes = CountBytes;

/// The most a week of the whole 10,000-station fleet may hold per job.
const SERIAL_BYTES_PER_JOB: f64 = 320.0;
/// The most the same fleet in 8 pools may hold, relative to the whole one.
const POOLED_OVER_SERIAL: f64 = 1.25;

/// The peak heap above the start of `Run::execute` for a week of
/// 10,000 stations in `pools` pools on this thread, and the job count.
fn peak_above_start(pools: usize) -> (u64, usize) {
    let scenario = fleet_scale(1988, 10_000, pools, 7);
    let jobs = scenario.jobs.len();
    let mut run = Run::new(scenario.config).specs(scenario.jobs).horizon(SimDuration::from_days(7));
    if pools > 1 {
        run = run.threads(1);
    }
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = run.execute();
    let peak = PEAK.with(Cell::get) - start;
    assert_eq!(out.jobs.len(), jobs, "every job comes back");
    assert!(out.totals.placements > 0, "the fleet runs jobs");
    (peak as u64, jobs)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-derive the coordinator cache at every poll")]
fn a_week_of_ten_thousand_stations_holds_each_job_once() {
    let (serial, jobs) = peak_above_start(1);
    let (pooled, pooled_jobs) = peak_above_start(8);
    assert_eq!(jobs, pooled_jobs, "one workload");
    let per_job = serial as f64 / jobs as f64;
    let ratio = pooled as f64 / serial as f64;
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    eprintln!(
        "{jobs} jobs: whole fleet peaks {:.2} MiB above the start ({per_job:.0} B/job); \
         8 pools peak {:.2} MiB ({:.0} B/job, {ratio:.3}x the whole fleet)",
        mib(serial),
        mib(pooled),
        pooled as f64 / jobs as f64,
    );
    assert!(
        per_job <= SERIAL_BYTES_PER_JOB,
        "the whole fleet held {per_job:.0} B/job at its peak, more than {SERIAL_BYTES_PER_JOB}"
    );
    assert!(
        ratio <= POOLED_OVER_SERIAL,
        "8 pools peaked at {ratio:.3}x the whole fleet, more than {POOLED_OVER_SERIAL}x"
    );
}
