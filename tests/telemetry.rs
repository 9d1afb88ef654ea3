//! Acceptance: streaming telemetry replaces the buffered trace.
//!
//! The ISSUE's bar: a default-config 23-station simulated month run with
//! `record_trace: false` must produce a populated [`Telemetry`] whose
//! per-kind event counts match the legacy trace of an identical seeded
//! run that *did* record.

use condor::prelude::*;

#[test]
fn paper_month_telemetry_matches_the_trace() {
    // Reference run: the default buffered trace.
    let traced = paper_month(1988);
    let reference = Run::new(traced.config).specs(traced.jobs).horizon(traced.horizon).execute();
    assert!(!reference.trace.is_empty(), "reference run must record");

    // Trace-free run of the identical scenario.
    let mut dark = paper_month(1988);
    dark.config.record_trace = false;
    let out = Run::new(dark.config).specs(dark.jobs).horizon(dark.horizon).execute();
    assert_eq!(out.trace.len(), 0, "record_trace: false buffers nothing");

    // Event totals and per-kind counts agree exactly.
    let tel = &out.telemetry;
    assert_eq!(tel.events_total as usize, reference.trace.len());
    let mut counts = [0u64; TraceKind::COUNT];
    for ev in reference.trace.events() {
        counts[ev.kind.index()] += 1;
    }
    assert_eq!(tel.counts, counts);

    // The month produced real work, so every digest is populated.
    assert!(tel.queue_wait_ms.count() > 0, "queue waits observed");
    assert!(tel.remote_burst_ms.count() > 0, "remote bursts observed");
    assert!(tel.checkpoint_bytes.count() > 0, "checkpoints observed");
    assert!(tel.bus_backlog_ms.samples() > 0, "bus gauge sampled");
    assert!(tel.updown_index.samples() > 0, "up-down gauge sampled");
    assert!(tel.first_event.is_some() && tel.last_event.is_some());
    assert_eq!(tel.finished_at, out.horizon);

    // And the traced run's own telemetry is identical in counts — the
    // sink sees the same stream whether or not the trace buffers it.
    assert_eq!(reference.telemetry.counts, tel.counts);
    assert_eq!(reference.telemetry.events_total, tel.events_total);
}

#[test]
fn attached_sinks_and_report_cover_a_dark_run() {
    let mut scenario = paper_month(7);
    scenario.config.record_trace = false;
    let events = SharedSink::new(VecSink::new());
    let tail = SharedSink::new(RingSink::new(32));
    let out = Run::new(scenario.config)
        .specs(scenario.jobs)
        .horizon(SimDuration::from_days(3))
        .sink(Box::new(events.clone()))
        .sink(Box::new(tail.clone()))
        .execute();
    let n = events.with(|s| s.len()) as u64;
    assert_eq!(n, out.telemetry.events_total);
    tail.with(|r| {
        assert_eq!(r.seen(), n);
        assert_eq!(r.len(), 32.min(n as usize));
    });
    // The rendered report mentions whatever actually happened.
    let text = render_telemetry(&out.telemetry);
    assert!(text.contains("coordinator_polled"), "{text}");
    assert!(text.contains("bus backlog"), "{text}");
}

/// Counts what it is handed, and subscribes to part of the stream only.
#[derive(Debug, Default)]
struct Picky {
    events: u64,
    unwanted: u64,
    samples: u64,
}

impl TraceSink for Picky {
    fn record(&mut self, ev: &TraceEvent) {
        self.events += 1;
        if !self.interest().contains(&ev.kind) {
            self.unwanted += 1;
        }
    }

    fn sample(&mut self, _s: &GaugeSample) {
        self.samples += 1;
    }

    fn interest(&self) -> KindMask {
        KindMask::all_but(&["owner_active", "owner_idle", "coordinator_polled"]).without_samples()
    }
}

/// A kind filter forwards exactly what its mask holds, in a run: a mask
/// built from kind names carries no gauge samples and the events of those
/// kinds alone, as many as the run's telemetry counts for them;
/// `KindMask::ALL` carries every event and one sample per poll.
#[test]
fn a_kind_filter_forwards_samples_only_if_its_mask_holds_them() {
    let named = KindMask::from_names(["job_arrived"]).expect("known kind");
    for mask in [named, KindMask::ALL] {
        let mut scenario = paper_month(7);
        scenario.config.record_trace = false;
        let filter = SharedSink::new(KindFilterSink::new(Picky::default(), mask));
        let out = Run::new(scenario.config)
            .specs(scenario.jobs)
            .horizon(SimDuration::from_days(2))
            .sink(Box::new(filter.clone()))
            .execute();
        let samples = if mask.samples() { out.totals.polls } else { 0 };
        let events = out.telemetry.events_in(mask);
        assert!(events > 0, "{mask:?}");
        filter.with(|f| {
            assert_eq!((f.inner().events, f.inner().samples), (events, samples), "{mask:?}");
        });
    }
}

/// A sink is handed the kinds it asked for and nothing else — serially,
/// behind a `SharedSink`, and through the sharded runner's per-pool
/// buffers — while its neighbours still get everything.
#[test]
fn a_sink_is_handed_only_the_kinds_it_asked_for() {
    for pools in [1, 4] {
        let mut scenario = paper_month(7);
        if pools > 1 {
            scenario.config.topology =
                Some(PoolTopology::uniform(pools, SimDuration::from_secs(300)));
        }
        let picky = SharedSink::new(Picky::default());
        let all = SharedSink::new(VecSink::new());
        let out = Run::new(scenario.config)
            .specs(scenario.jobs)
            .horizon(SimDuration::from_days(3))
            .sink(Box::new(picky.clone()))
            .sink(Box::new(all.clone()))
            .execute();
        let wanted = all.with(|s| {
            assert_eq!(s.len() as u64, out.telemetry.events_total);
            let mask = Picky::default().interest();
            s.events().iter().filter(|e| mask.contains(&e.kind)).count() as u64
        });
        assert!(wanted > 0 && wanted < out.telemetry.events_total);
        picky.with(|p| {
            assert_eq!((p.events, p.unwanted, p.samples), (wanted, 0, 0), "{pools} pool(s)");
        });
    }
}
