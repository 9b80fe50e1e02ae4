//! Property tests: the calendar event queue is observationally identical
//! to the reference binary heap under arbitrary push/pop interleavings —
//! duplicate timestamps, generation-stamped completions, pathological
//! time skew, and mid-stream drains included.

use nodeshare_cluster::{JobId, NodeId};
use nodeshare_engine::{Event, EventQueue, QueueBackend};
use proptest::prelude::*;

/// A deterministic event for stamp `n`: cycles through every variant so
/// tie-breaks are exercised across bands (arrivals vs. everything else)
/// and generation stamps ride along unchanged.
fn event_for(tag: u8, n: u64) -> Event {
    match tag % 6 {
        0 => Event::Arrival(n as usize),
        1 => Event::Completion {
            job: JobId(n),
            generation: n.wrapping_mul(0x9e37_79b9) | 1,
        },
        2 => Event::WalltimeKill {
            job: JobId(n),
            arm: n % 4,
        },
        3 => Event::NodeRepair(NodeId((n % 64) as u32)),
        4 => Event::NodeFail(NodeId((n % 64) as u32)),
        _ => Event::Snapshot(n as usize),
    }
}

/// A small palette with heavy duplication and extreme skew, so runs of
/// equal times and bucket-spanning gaps both occur constantly.
const TIMES: [f64; 12] = [
    0.0,
    0.5,
    0.5, // duplicated on purpose
    1.0,
    1.0 + 1e-12,
    3.75,
    10.0,
    10.0,
    99.5,
    1_000.0,
    1.0e9,
    3.2e12,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of pushes (with duplicate timestamps) and pops
    /// leaves the calendar and heap backends in lock-step: identical
    /// peeks, identical pops (time *and* payload, so generation stamps
    /// match), identical drains.
    #[test]
    fn calendar_and_heap_pop_identically(
        ops in prop::collection::vec((0u8..5, 0usize..TIMES.len(), 0u8..6), 1..300),
    ) {
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut stamp = 0u64;
        for (kind, time_idx, tag) in ops {
            if kind == 0 {
                prop_assert_eq!(cal.peek_time(), heap.peek_time());
                prop_assert_eq!(cal.pop(), heap.pop());
            } else {
                let t = TIMES[time_idx];
                let ev = event_for(tag, stamp);
                stamp += 1;
                cal.push(t, ev.clone());
                heap.push(t, ev);
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        // Drain what's left: full global order must agree.
        loop {
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(&a, &b);
            if a.is_none() {
                break;
            }
        }
        prop_assert!(cal.is_empty() && heap.is_empty());
    }

    /// Monotone-ish simulation shape: pops interleaved with pushes at or
    /// after the last popped time (how the engine actually drives the
    /// queue), across resize thresholds.
    #[test]
    fn simulation_shaped_interleavings_stay_identical(
        seed in 0u64..10_000,
        n in 1usize..800,
    ) {
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut now = 0.0f64;
        for i in 0..n {
            let r = rng();
            if r % 3 == 0 && !cal.is_empty() {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(&a, &b);
                now = a.expect("non-empty").0;
            } else {
                // Offsets quantized so equal times recur; occasionally a
                // huge jump to force bucket-year wraparound.
                let offset = if r % 97 == 0 {
                    1.0e7
                } else {
                    ((r >> 8) % 16) as f64 * 0.25
                };
                let ev = event_for((r >> 4) as u8, i as u64);
                cal.push(now + offset, ev.clone());
                heap.push(now + offset, ev);
            }
        }
        while let Some(a) = cal.pop() {
            prop_assert_eq!(Some(a), heap.pop());
        }
        prop_assert!(heap.is_empty());
    }
}
