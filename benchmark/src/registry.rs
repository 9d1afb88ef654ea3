//! Every metric the benchmark prints, in the order it prints them. The
//! same list, with the workloads, is `BENCHMARK.json`; a self-test fails
//! when the two drift apart.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Measured with tracing off, on every workload. The time bounds are set by
/// the reference host, a 2-vCPU VM whose speed on the cache-hungry fleet
/// workloads steps by ≈11 % for minutes at a time, and by 30 % while a
/// neighbour on the shared host is busy (ten seeds in a row then spread by
/// 17 %): a tighter bound would call that drift a regression.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "iter_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Measured by the traced run. Times come from probes and spans that run
/// on every workload; a metric of a layer the workload does not pass
/// through is a share, rate or count, and reads 0 there.
pub const PER_LAYER: [PerLayer; 81] = [
    // workload: input generation (set-up, never inside an iteration).
    layer("workload.gen_ms", "ms", "lower"),
    layer("workload.jobs", "count", "higher"),
    // cluster: shares of one Run::execute, from a replica built by hand.
    layer("cluster.build_share", "ratio", "lower"),
    layer("cluster.prime_share", "ratio", "lower"),
    layer("cluster.run_share", "ratio", "lower"),
    layer("cluster.finish_share", "ratio", "lower"),
    layer("cluster.events", "count", "lower"),
    layer("cluster.mev_per_s", "Mev/s", "higher"),
    // dispatch: the stepped run, one class per handler family.
    layer("dispatch.flip_count", "count", "lower"),
    layer("dispatch.flip_share", "ratio", "lower"),
    layer("dispatch.flip_ev_per_us", "ev/us", "higher"),
    layer("dispatch.poll_count", "count", "lower"),
    layer("dispatch.poll_share", "ratio", "lower"),
    layer("dispatch.poll_ev_per_us", "ev/us", "higher"),
    layer("dispatch.job_count", "count", "lower"),
    layer("dispatch.job_share", "ratio", "lower"),
    layer("dispatch.job_ev_per_us", "ev/us", "higher"),
    layer("dispatch.other_count", "count", "lower"),
    layer("dispatch.other_share", "ratio", "lower"),
    layer("dispatch.other_ev_per_us", "ev/us", "higher"),
    // coordinator: counts from Totals, exact per seed.
    layer("coord.polls", "count", "lower"),
    layer("coord.poll_memo_rate", "ratio", "higher"),
    layer("coord.placements", "count", "higher"),
    layer("coord.migrations", "count", "lower"),
    layer("coord.preemptions", "count", "lower"),
    layer("coord.wasted_grant_rate", "ratio", "lower"),
    // policy, sim kernel, owner model, bus: probes shaped to the fleet.
    layer("policy.decide_us", "us", "lower"),
    layer("sim.queue_hold_ns", "ns", "lower"),
    layer("sim.queue_cancel_ns", "ns", "lower"),
    layer("sim.queue_pending_max", "count", "lower"),
    layer("sim.engine_dispatch_ns", "ns", "lower"),
    layer("owner.dwell_ns", "ns", "lower"),
    layer("owner.fleet_build_ms", "ms", "lower"),
    layer("bus.book_ns", "ns", "lower"),
    layer("bus.transfers", "count", "lower"),
    layer("bus.bytes_moved", "B", "lower"),
    // sinks: a recorded paper-month trace replayed through a fresh sink.
    layer("sink.stats_ns", "ns", "lower"),
    layer("sink.spans_ns", "ns", "lower"),
    layer("sink.audit_ns", "ns", "lower"),
    layer("sink.availability_ns", "ns", "lower"),
    layer("sink.vec_ns", "ns", "lower"),
    layer("sinks.armed_overhead_pct", "%", "lower"),
    layer("sinks.trace_overhead_pct", "%", "lower"),
    layer("sinks.share", "ratio", "lower"),
    layer("sink.audit_violations", "count", "lower"),
    // export and metrics: the same recorded run.
    layer("export.jsonl_ms", "ms", "lower"),
    layer("export.jsonl_mb_per_s", "MB/s", "higher"),
    layer("export.jsonl_parse_ms", "ms", "lower"),
    layer("export.chrome_ms", "ms", "lower"),
    layer("spans.fold_ms", "ms", "lower"),
    layer("metrics.summarize_ms", "ms", "lower"),
    layer("metrics.availability_ms", "ms", "lower"),
    layer("export.share", "ratio", "lower"),
    layer("metrics.share", "ratio", "lower"),
    // shard: the sharded runner at one and two threads.
    layer("shard.par_speedup", "x", "higher"),
    layer("shard.efficiency", "ratio", "higher"),
    layer("shard.mev_per_s_t1", "Mev/s", "higher"),
    layer("shard.mev_per_s_t2", "Mev/s", "higher"),
    layer("shard.jobs_forwarded", "count", "lower"),
    // ckpt: a 0.5 MB image (the paper's mean), 5 % dirty pages.
    layer("ckpt.encode_mb_per_s", "MB/s", "higher"),
    layer("ckpt.decode_mb_per_s", "MB/s", "higher"),
    layer("ckpt.delta_diff_mb_per_s", "MB/s", "higher"),
    layer("ckpt.delta_apply_mb_per_s", "MB/s", "higher"),
    layer("ckpt.delta_ratio", "ratio", "lower"),
    layer("store.put_us", "us", "lower"),
    layer("store.get_us", "us", "lower"),
    // runtime: a probe pool on every workload, counts on the live ones.
    layer("runtime.spawn_ms", "ms", "lower"),
    layer("runtime.submit_us", "us", "lower"),
    layer("runtime.shutdown_ms", "ms", "lower"),
    layer("program.munits_per_s", "Munit/s", "higher"),
    layer("program.snapshot_restore_us", "us", "lower"),
    layer("runtime.sched_overhead_share", "ratio", "lower"),
    layer("runtime.tail_ratio", "x", "lower"),
    layer("runtime.polls_per_round", "1/round", "lower"),
    layer("runtime.migrations", "1/round", "lower"),
    layer("runtime.interruptions", "1/round", "lower"),
    layer("runtime.resumes_in_place", "1/round", "higher"),
    layer("runtime.work_redo_ratio", "ratio", "lower"),
    // the benchmark itself.
    layer("trace.iter_ms", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.coverage", "ratio", "higher"),
];

/// Why each workload exists, one line each (`BENCHMARK.json` repeats them).
pub const WORKLOAD_WHY: [(&str, &str); 6] = [
    ("paper_month", "the paper's own month (23 stations, 918 jobs) traced, audited, summarised and exported: many cheap polls, and the only workload where sinks and exporters do real work"),
    ("fleet_idle", "10k stations, almost job-free under the one-placement-per-poll throttle: owner flips and the event queue do the work, so a flip optimisation must show here"),
    ("fleet_loaded", "1k stations hosting jobs (32 placements per poll): flips mean suspend, checkpoint and re-placement, polls are heavy; a change that only helps job-free stations must show nothing here"),
    ("fleet_pools", "10k stations in 8 pools: the only path through core::shard (window barriers, deterministic merge); timed on one thread, the two-thread speed-up is per-layer because it is too noisy to bound"),
    ("live_turnaround", "submit one small job to the live 2-worker runtime and wait for its result: grant latency of the threaded coordinator and the worker protocol"),
    ("live_churn", "two long jobs evicted past grace by returning owners, checkpointed home and resumed: real CheckpointStore traffic and migration in condor-runtime"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::Workload;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
        for b in END_TO_END
            .iter()
            .map(|m| m.better)
            .chain(PER_LAYER.iter().map(|m| m.better))
        {
            assert!(b == "lower" || b == "higher");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOAD_WHY
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    /// `BENCHMARK.json` lists exactly the registry: same workloads, same
    /// metrics, same units, directions and bounds, in the same order.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let s = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (s(w, "name"), s(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOAD_WHY
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, WORKLOAD_WHY.map(|(n, _)| n));

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    s(m, "name"),
                    s(m, "unit"),
                    s(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(layers, expected);
    }
}
