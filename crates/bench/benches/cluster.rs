//! End-to-end cluster simulation speed: how fast the full Condor model
//! simulates a day/week of 23-station operation, and how placement +
//! checkpoint costs scale with image size (the 5 s/MB rule).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use condor_core::chaos::{ChaosConfig, ChaosGen, ChaosSchedule};
use condor_core::cluster::Run;
use condor_core::config::ClusterConfig;
use condor_core::job::{JobId, JobSpec, UserId};
use condor_model::costs::CostModel;
use condor_net::NodeId;
use condor_sim::time::{SimDuration, SimTime};

fn jobs(n: u64, image_bytes: u64) -> Vec<JobSpec> {
    (0..n)
        .map(|i| JobSpec {
            image_bytes,
            syscalls_per_cpu_sec: 0.5,
            ..JobSpec::new(
                JobId(i),
                UserId((i % 3) as u32),
                NodeId::new((i % 5) as u32),
                SimTime::from_secs(i * 13 * 60),
                SimDuration::from_hours(1 + i % 4),
            )
        })
        .collect()
}

fn config() -> ClusterConfig {
    ClusterConfig {
        stations: 23,
        record_trace: false, // measure the simulation, not trace memory
        ..ClusterConfig::default()
    }
}

fn bench_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("cluster");
    group.sample_size(20);
    for &days in &[1u64, 7] {
        group.bench_with_input(BenchmarkId::new("simulate_days", days), &days, |b, &d| {
            b.iter(|| {
                let out = Run::new(config())
                    .specs(jobs(40, 500_000))
                    .horizon(SimDuration::from_days(d))
                    .execute();
                black_box(out.totals.placements)
            });
        });
    }
    // Transfer-cost model: 5 s/MB means bigger images cost linearly more
    // local CPU; verify the accounting scales.
    for &mb in &[1u64, 4] {
        group.bench_with_input(BenchmarkId::new("image_mb", mb), &mb, |b, &mb| {
            b.iter(|| {
                let out = Run::new(config())
                    .specs(jobs(20, mb * 1_000_000))
                    .horizon(SimDuration::from_days(1))
                    .execute();
                let support: u64 = out.jobs.iter().map(|j| j.support_us).sum();
                black_box(support)
            });
        });
    }
    // Chaos injection: an armed-but-empty schedule must track
    // simulate_days/7 (fault injection is schedule data, not a hot-path
    // tax); the seeded schedule adds the recovery work itself.
    group.bench_function("chaos_empty_7d", |b| {
        b.iter(|| {
            let cfg = ClusterConfig {
                chaos: Some(ChaosConfig::default()),
                ..config()
            };
            let out = Run::new(cfg)
                .specs(jobs(40, 500_000))
                .horizon(SimDuration::from_days(7))
                .execute();
            black_box(out.totals.placements)
        });
    });
    let schedule = ChaosSchedule::generate(
        7,
        &ChaosGen { horizon: SimDuration::from_days(7), stations: 23, faults: 12 },
    );
    group.bench_function("chaos_faults_12_7d", |b| {
        b.iter(|| {
            let cfg = ClusterConfig {
                chaos: Some(ChaosConfig::new(schedule.clone())),
                ..config()
            };
            let out = Run::new(cfg)
                .specs(jobs(40, 500_000))
                .horizon(SimDuration::from_days(7))
                .execute();
            black_box(out.totals.ckpt_retries + out.totals.local_starts)
        });
    });
    group.finish();
    // Sanity check outside measurement: the cost model is exactly linear.
    let costs = CostModel::default();
    assert_eq!(
        costs.transfer_cpu_cost(4_000_000).as_millis(),
        4 * costs.transfer_cpu_cost(1_000_000).as_millis()
    );
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
