//! Property-based tests for the simulation kernel's core invariants.

use std::collections::VecDeque;

use condor_sim::event::EventQueue;
use condor_sim::rng::SimRng;
use condor_sim::series::{BucketAccumulator, StepSeries};
use condor_sim::stats::{percentile, Running};
use condor_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// `StepSeries::merge_sum` as it was before it swept one cursor per part:
/// the reference the property below holds it to.
fn merge_sum_reference(parts: &[&StepSeries]) -> StepSeries {
    let mut instants: Vec<SimTime> = parts
        .iter()
        .flat_map(|p| p.iter().map(|(t, _)| t))
        .collect();
    instants.sort_unstable();
    instants.dedup();
    let initial: f64 = parts.iter().map(|p| p.value_at(SimTime::ZERO)).sum();
    let mut merged = StepSeries::new(initial);
    for &t in &instants {
        let total: f64 = parts.iter().map(|p| p.value_at(t)).sum();
        merged.set(t, total);
    }
    merged
}

proptest! {
    /// Events always come out of the queue in non-decreasing time order,
    /// and same-time events come out in insertion order.
    #[test]
    fn queue_delivery_is_chronological_and_stable(times in prop::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_millis(t));
            if let Some((lt, li)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(i > li, "FIFO violated at equal timestamps");
                }
            }
            last = Some((at, i));
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn queue_cancellation_is_exact(
        times in prop::collection::vec(0u64..1_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let tokens: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule(SimTime::from_millis(t), i)))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, tok) in &tokens {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                prop_assert!(q.cancel(*tok));
            } else {
                expect.push(*i);
            }
        }
        let mut delivered: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            delivered.push(i);
        }
        delivered.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(delivered, expect);
    }

    /// Welford accumulator matches the naive two-pass computation.
    #[test]
    fn running_matches_naive(xs in prop::collection::vec(-1e6f64..1e6, 1..500)) {
        let r: Running = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert!((r.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((r.population_variance() - var).abs() <= 1e-4 * (1.0 + var));
    }

    /// Merging two accumulators equals accumulating the concatenation.
    #[test]
    fn running_merge_associativity(
        a in prop::collection::vec(-1e3f64..1e3, 0..100),
        b in prop::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut merged: Running = a.iter().copied().collect();
        merged.merge(&b.iter().copied().collect());
        let seq: Running = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.count(), seq.count());
        prop_assert!((merged.mean() - seq.mean()).abs() < 1e-6);
        prop_assert!((merged.population_variance() - seq.population_variance()).abs() < 1e-6);
    }

    /// Percentile is bounded by min/max and monotone in q.
    #[test]
    fn percentile_bounds_and_monotonicity(xs in prop::collection::vec(0.0f64..1e4, 1..200)) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let p = percentile(&xs, q).unwrap();
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9);
            prop_assert!(p >= prev - 1e-9, "percentile not monotone in q");
            prev = p;
        }
    }

    /// Time-weighted mean of a step series lies within [min, max] of its
    /// values, and resampling conserves the overall mean.
    #[test]
    fn step_series_mean_bounds(changes in prop::collection::vec((1u64..100_000, 0.0f64..50.0), 1..50)) {
        let mut s = StepSeries::new(0.0);
        let mut t = 0u64;
        let mut values = vec![0.0];
        for (dt, v) in changes {
            t += dt;
            s.set(SimTime::from_millis(t), v);
            values.push(v);
        }
        let end = SimTime::from_millis(t + 1_000);
        let m = s.time_weighted_mean(SimTime::ZERO, end);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);

        // Resampling onto any grid and averaging the cells reproduces the
        // overall mean when cells are equal width and tile the window.
        let step = SimDuration::from_millis(250);
        let cells_end = end.align_down(step);
        if cells_end > SimTime::ZERO {
            let cells = s.resample_mean(SimTime::ZERO, cells_end, step);
            let cell_mean = cells.iter().sum::<f64>() / cells.len() as f64;
            let direct = s.time_weighted_mean(SimTime::ZERO, cells_end);
            prop_assert!((cell_mean - direct).abs() < 1e-6);
        }
    }

    /// Interval deposits conserve mass regardless of bucket alignment.
    #[test]
    fn bucket_deposits_conserve_mass(
        intervals in prop::collection::vec((0u64..500_000, 1u64..500_000, 0.0f64..100.0), 1..40),
        width_ms in 1u64..100_000,
    ) {
        let mut acc = BucketAccumulator::new(SimDuration::from_millis(width_ms));
        let mut total = 0.0;
        for (start, len, amount) in intervals {
            acc.deposit_interval(
                SimTime::from_millis(start),
                SimTime::from_millis(start + len),
                amount,
            );
            total += amount;
        }
        prop_assert!((acc.total() - total).abs() < 1e-6 * (1.0 + total));
    }

    /// The queue agrees with a naive reference model (a sorted Vec scanned
    /// linearly) under an arbitrary interleaving of schedule / reserve /
    /// schedule-reserved / cancel / pop / peek operations, including len()
    /// and the activity counters. A reserved block's members are scheduled
    /// one at a time, in key order, between the other operations, each
    /// under its own number; cancels hit ordinary and reserved events, and
    /// tokens that already fired or were cancelled, whose heap slots have
    /// been reused since.
    #[test]
    fn queue_matches_reference_model(
        ops in prop::collection::vec((0u8..100, 0u64..5_000, any::<prop::sample::Index>()), 1..300),
    ) {
        // Reference: (time, seq, id) triples still pending, scanned for the
        // minimum on every pop/peek. Quadratic and obviously correct.
        let mut model: Vec<(SimTime, u64, usize)> = Vec::new();
        let mut q = EventQueue::new();
        // Every token issued, with the sequence number it was keyed by.
        let mut tokens = Vec::new();
        let mut next_id = 0usize;
        let mut next_seq = 0u64;
        let mut cancelled = 0u64;
        // Reserved members not yet scheduled, in key order within a block.
        let mut reserved: VecDeque<(SimTime, u64)> = VecDeque::new();
        for (choice, t, pick) in ops {
            let planted = match choice {
                // Schedule a fresh event.
                0..=39 => {
                    let at = SimTime::from_millis(t);
                    next_seq += 1;
                    Some((q.schedule(at, next_id), at, next_seq - 1))
                }
                // Reserve a block of up to eight numbers, for instants
                // nondecreasing from `t` (ties included).
                40..=47 => {
                    let n = 1 + pick.index(8) as u64;
                    let base = q.reserve_seqs(n);
                    prop_assert_eq!(base, next_seq);
                    let mut at = t;
                    for k in 0..n {
                        at += (t >> k) % 3;
                        reserved.push_back((SimTime::from_millis(at), base + k));
                    }
                    next_seq += n;
                    None
                }
                // Schedule the next reserved member, if one waits.
                48..=54 => reserved
                    .pop_front()
                    .map(|(at, seq)| (q.schedule_reserved(at, seq, next_id), at, seq)),
                // Cancel an arbitrary already-issued token (possibly one
                // that has fired or was cancelled before).
                55..=79 if !tokens.is_empty() => {
                    let (tok, seq) = tokens[pick.index(tokens.len())];
                    let was_live = model.iter().any(|&(_, s, _)| s == seq);
                    prop_assert_eq!(q.cancel(tok), was_live);
                    if was_live {
                        model.retain(|&(_, s, _)| s != seq);
                        cancelled += 1;
                    }
                    None
                }
                // Pop and compare against the model's minimum (time, seq).
                80..=94 => {
                    let want = model.iter().min().copied();
                    match want {
                        None => prop_assert_eq!(q.pop(), None),
                        Some((at, seq, id)) => {
                            prop_assert_eq!(q.pop(), Some((at, id)));
                            model.retain(|&(_, s, _)| s != seq);
                        }
                    }
                    None
                }
                // Pure peek.
                _ => {
                    let want = model.iter().min().map(|&(at, _, _)| at);
                    prop_assert_eq!(q.peek_time(), want);
                    None
                }
            };
            if let Some((tok, at, seq)) = planted {
                model.push((at, seq, next_id));
                tokens.push((tok, seq));
                next_id += 1;
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
            prop_assert_eq!(q.scheduled_total(), next_seq);
            prop_assert_eq!(q.cancelled_total(), cancelled);
        }
        // Drain: remaining events come out exactly in model order.
        model.sort_unstable();
        for (at, _, id) in model {
            prop_assert_eq!(q.pop(), Some((at, id)));
        }
        prop_assert_eq!(q.pop(), None);
        // Every token is stale now, through however many reuses of its slot.
        for (tok, _) in tokens {
            prop_assert!(!q.cancel(tok));
        }
        prop_assert_eq!(q.cancelled_total(), cancelled);
    }

    /// `StepSeries::merge_sum` is bit-identical to the straightforward
    /// merge it replaced: every change instant of every part, sorted, and
    /// at each a `value_at` per part summed in part order.
    #[test]
    fn merge_sum_matches_the_lookup_per_instant(
        parts in prop::collection::vec(
            prop::collection::vec((0u64..4, 0u64..3_000, -50.0f64..50.0), 0..40),
            1..6,
        ),
    ) {
        let series: Vec<StepSeries> = parts
            .iter()
            .map(|changes| {
                let mut s = StepSeries::new(0.0);
                let mut t = 0u64;
                for &(gap, dt, v) in changes {
                    // Gap 0 rewrites the same instant; small steps make
                    // parts share instants.
                    t += if gap == 0 { 0 } else { dt % (gap * 10) };
                    s.set(SimTime::from_millis(t), (v * 8.0).round() / 8.0 + v * 1e-3);
                }
                s
            })
            .collect();
        let refs: Vec<&StepSeries> = series.iter().collect();
        let got: Vec<(SimTime, u64)> =
            StepSeries::merge_sum(&refs).iter().map(|(t, v)| (t, v.to_bits())).collect();
        let want: Vec<(SimTime, u64)> =
            merge_sum_reference(&refs).iter().map(|(t, v)| (t, v.to_bits())).collect();
        prop_assert_eq!(got, want);
    }

    /// Identical seeds yield identical streams; the substream derivation is
    /// label-stable.
    #[test]
    fn rng_determinism(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut s1 = a.substream(seed, &label);
        let mut s2 = b.substream(seed, &label);
        for _ in 0..8 {
            prop_assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }
}

/// Two heap slots serve 20,000 events in turn; no fired or cancelled
/// token ever reaches a later occupant of its slot.
#[test]
fn stale_tokens_stay_dead_through_many_slot_reuses() {
    let mut q = EventQueue::new();
    let mut stale = Vec::new();
    for i in 0..10_000u64 {
        let fired = q.schedule(SimTime::from_millis(i), i);
        let cancelled = q.schedule(SimTime::from_millis(i + 1), i);
        assert!(q.cancel(cancelled));
        assert_eq!(q.pop(), Some((SimTime::from_millis(i), i)));
        stale.extend([fired, cancelled]);
    }
    let live = q.schedule(SimTime::ZERO, 0);
    assert!(stale.iter().all(|&t| !q.cancel(t)));
    assert_eq!(q.len(), 1);
    assert!(q.cancel(live));
}
