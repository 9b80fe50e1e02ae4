//! F6a — event-queue throughput: push/pop cost of the engine's
//! generation-stamped queue at several fill levels, and calendar vs.
//! binary-heap backend at million-event scale (the calendar's O(1)
//! amortized push/pop is what makes million-job streamed campaigns pay).
#![allow(missing_docs)] // criterion_main! generates an undocumented fn main

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nodeshare_cluster::JobId;
use nodeshare_engine::{Event, EventQueue, QueueBackend};
use std::hint::black_box;

fn bench_push_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue/push_drain");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            // Deterministic pseudo-random times without RNG state.
            let times: Vec<f64> = (0..n)
                .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 1_000_000) as f64)
                .collect();
            b.iter(|| {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(
                        t,
                        Event::Completion {
                            job: JobId(i as u64),
                            generation: 0,
                        },
                    );
                }
                let mut last = f64::NEG_INFINITY;
                while let Some((t, e)) = q.pop() {
                    debug_assert!(t >= last);
                    last = t;
                    black_box(e);
                }
                black_box(last)
            });
        });
    }
    group.finish();
}

fn bench_interleaved(c: &mut Criterion) {
    // The simulation's real access pattern: pop one, push a couple.
    c.bench_function("event_queue/interleaved_steady_state", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..256u64 {
                q.push(i as f64, Event::Arrival(i as usize));
            }
            for step in 0..4_096u64 {
                let (t, _) = q.pop().expect("queue never drains");
                q.push(t + 7.0, Event::Snapshot(0));
                if step % 2 == 0 {
                    q.push(
                        t + 13.0,
                        Event::WalltimeKill {
                            job: JobId(step),
                            arm: 0,
                        },
                    );
                } else {
                    q.pop();
                }
            }
            black_box(q.len())
        });
    });
}

fn bench_backends(c: &mut Criterion) {
    // Head-to-head at scale: both backends see the identical operation
    // stream and produce the identical pop order (proven by the
    // differential and property tests); only the clock differs. 1M is
    // the streamed-campaign regime where heap log-factors add up.
    let mut group = c.benchmark_group("event_queue/backend_push_drain");
    group.sample_size(10);
    for &n in &[100_000usize, 1_000_000] {
        let times: Vec<f64> = (0..n)
            .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 10_000_000) as f64 * 0.5)
            .collect();
        for backend in [QueueBackend::Calendar, QueueBackend::BinaryHeap] {
            let label = match backend {
                QueueBackend::Calendar => "calendar",
                QueueBackend::BinaryHeap => "heap",
            };
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let mut q = EventQueue::with_backend(backend);
                    for (i, &t) in times.iter().enumerate() {
                        q.push(
                            t,
                            Event::Completion {
                                job: JobId(i as u64),
                                generation: 0,
                            },
                        );
                    }
                    let mut last = f64::NEG_INFINITY;
                    while let Some((t, e)) = q.pop() {
                        debug_assert!(t >= last);
                        last = t;
                        black_box(e);
                    }
                    black_box(last)
                });
            });
        }
    }
    group.finish();
}

fn bench_backend_steady_state(c: &mut Criterion) {
    // The simulation's hold-model shape — pop one, push a couple slightly
    // in the future — at a deep fill, per backend.
    let mut group = c.benchmark_group("event_queue/backend_steady_state");
    for backend in [QueueBackend::Calendar, QueueBackend::BinaryHeap] {
        let label = match backend {
            QueueBackend::Calendar => "calendar",
            QueueBackend::BinaryHeap => "heap",
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut q = EventQueue::with_backend(backend);
                for i in 0..65_536u64 {
                    q.push(i as f64 * 0.25, Event::Arrival(i as usize));
                }
                for step in 0..131_072u64 {
                    let (t, _) = q.pop().expect("queue never drains");
                    q.push(
                        t + 7.0,
                        Event::Completion {
                            job: JobId(step),
                            generation: 0,
                        },
                    );
                    q.pop();
                }
                black_box(q.len())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_push_drain,
    bench_interleaved,
    bench_backends,
    bench_backend_steady_state
);
criterion_main!(benches);
