//! F6c — scheduling-decision latency vs queue depth (EASY vs CoBackfill
//! vs Conservative), plus end-to-end simulation throughput. This is the
//! figure that answers "can the strategy run inside a real batch system's
//! scheduling interval".
#![allow(missing_docs)] // criterion_main! generates an undocumented fn main

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nodeshare_bench::World;
use nodeshare_cluster::{Cluster, JobId, NodeId};
use nodeshare_core::{reference, Backfill, Conservative, Pairing, PairingPolicy};
use nodeshare_engine::{RunningSummary, SchedContext, Scheduler};
use nodeshare_perf::{AppId, Predictor};
use nodeshare_workload::JobSpec;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Builds a half-loaded cluster plus a deep queue: the state a scheduler
/// faces at saturation.
struct Fixture {
    cluster: Cluster,
    running: BTreeMap<JobId, RunningSummary>,
    queue: Vec<JobSpec>,
}

fn fixture(queue_depth: usize) -> Fixture {
    let world = World::evaluation();
    let mut cluster = Cluster::new(world.cluster);
    let mut running = BTreeMap::new();
    // 96 of 128 nodes busy with 24 running 4-node jobs (shared mode so
    // CoBackfill sees real co-allocation candidates).
    for i in 0..24u64 {
        let job = JobId(1_000_000 + i);
        let nodes: Vec<NodeId> = (0..4).map(|k| NodeId((i * 4 + k) as u32)).collect();
        cluster.allocate_shared(job, &nodes, 1024).unwrap();
        running.insert(
            job,
            RunningSummary {
                job,
                app: AppId((i % 8) as u8),
                nodes: 4,
                requested_nodes: 4,
                malleable: Default::default(),
                start: 0.0,
                walltime_estimate: 4_000.0 + i as f64 * 200.0,
                kill_at: 6_000.0 + i as f64 * 300.0,
                share_eligible: true,
                mode: nodeshare_cluster::ShareMode::Shared,
            },
        );
    }
    let queue: Vec<JobSpec> = (0..queue_depth as u64)
        .map(|i| JobSpec {
            malleable: Default::default(),
            id: JobId(i),
            app: AppId((i % 8) as u8),
            // Large requests so the policy scans the whole queue instead
            // of starting the first candidate (worst-case latency).
            nodes: 64 + (i % 64) as u32,
            submit: i as f64,
            runtime_exclusive: 3_600.0,
            walltime_estimate: 7_200.0,
            mem_per_node_mib: 1024,
            share_eligible: true,
            user: (i % 50) as u32,
        })
        .collect();
    Fixture {
        cluster,
        running,
        queue,
    }
}

fn bench_decision_latency(c: &mut Criterion) {
    let world = World::evaluation();
    let mut group = c.benchmark_group("sched_latency");
    // 1024/4096 are the deep-queue regimes where the indexed planner's
    // caches pay off; 100 keeps a shallow point for the latency floor.
    for &depth in &[100usize, 1_024, 4_096] {
        let fx = fixture(depth);
        let ctx = || SchedContext {
            now: 100.0,
            queue: &fx.queue,
            cluster: &fx.cluster,
            running: &fx.running,
            shared_grace: 1.5,
            completed: &[],
            telemetry: None,
        };
        group.bench_with_input(BenchmarkId::new("easy", depth), &depth, |b, _| {
            let mut sched = Backfill::easy();
            b.iter(|| black_box(sched.schedule(&ctx())));
        });
        group.bench_with_input(BenchmarkId::new("co_backfill", depth), &depth, |b, _| {
            let pairing = Pairing::new(
                PairingPolicy::default_threshold(),
                Predictor::class_based(&world.catalog, &world.model),
            );
            let mut sched = Backfill::co(pairing);
            b.iter(|| black_box(sched.schedule(&ctx())));
        });
        group.bench_with_input(
            BenchmarkId::new("co_backfill_reference", depth),
            &depth,
            |b, _| {
                let pairing = Pairing::new(
                    PairingPolicy::default_threshold(),
                    Predictor::class_based(&world.catalog, &world.model),
                );
                let mut sched = reference::Backfill::co(pairing);
                b.iter(|| black_box(sched.schedule(&ctx())));
            },
        );
        // Warm path: repeated identical passes hit the cross-pass prefix
        // memo (what an engine sees while the cluster stamp is unchanged).
        group.bench_with_input(BenchmarkId::new("conservative", depth), &depth, |b, _| {
            let mut sched = Conservative::new();
            b.iter(|| black_box(sched.schedule(&ctx())));
        });
        // Cold path: a fresh scheduler per pass, so every iteration pays
        // the full rebuild + plan + reserve sweep with no memo.
        group.bench_with_input(
            BenchmarkId::new("conservative_cold", depth),
            &depth,
            |b, _| {
                b.iter_batched(
                    Conservative::new,
                    |mut sched| black_box(sched.schedule(&ctx())),
                    criterion::BatchSize::SmallInput,
                );
            },
        );
        group.bench_with_input(
            BenchmarkId::new("conservative_reference", depth),
            &depth,
            |b, _| {
                let mut sched = reference::Conservative::new();
                b.iter(|| black_box(sched.schedule(&ctx())));
            },
        );
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let world = World::evaluation();
    let mut spec = world.saturated_spec(3);
    spec.n_jobs = 200;
    let workload = spec.generate(&world.catalog);
    let mut group = c.benchmark_group("simulation/200_jobs_128_nodes");
    group.sample_size(20);
    group.bench_function("easy", |b| {
        b.iter(|| {
            let mut sched = Backfill::easy();
            black_box(nodeshare_engine::run(
                &workload,
                &world.matrix,
                &mut sched,
                &world.config(),
            ))
        });
    });
    group.bench_function("co_backfill", |b| {
        b.iter(|| {
            let pairing = Pairing::new(
                PairingPolicy::default_threshold(),
                Predictor::class_based(&world.catalog, &world.model),
            );
            let mut sched = Backfill::co(pairing);
            black_box(nodeshare_engine::run(
                &workload,
                &world.matrix,
                &mut sched,
                &world.config(),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_decision_latency, bench_end_to_end);
criterion_main!(benches);
