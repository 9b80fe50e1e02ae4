//! The event queue: deterministic earliest-first ordering behind two
//! interchangeable backends — a classic binary heap (the reference) and a
//! bucketed calendar queue (the default, O(1) amortized at million-event
//! scale).
//!
//! Ordering is by `(time, band, seq)`:
//!
//! * **Band 0 — arrivals.** [`Event::Arrival`] entries are keyed by their
//!   arrival index, so at equal times arrivals fire first, in index
//!   order. This reproduces the materialized engine's historical order
//!   (all arrivals were heap-pushed before any other event, occupying the
//!   lowest sequence numbers) *independently of when the arrival was
//!   pushed* — which is what lets a streaming job source inject arrivals
//!   lazily and still produce bit-identical simulations.
//! * **Band 1 — everything else.** Keyed by a monotone insertion counter,
//!   so simultaneous non-arrival events fire in insertion order, exactly
//!   as the original `(time, seq)` heap did.
//!
//! Together with seeded RNG streams this makes every simulation
//! bit-reproducible, whichever backend runs it.

use nodeshare_cluster::JobId;
use nodeshare_workload::Seconds;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A job arrives (global arrival index, in submission order).
    Arrival(usize),
    /// A running job finishes its work. Stale if the job was re-rated
    /// after this event was scheduled (generation mismatch) — stale
    /// completions are skipped.
    Completion {
        /// The finishing job.
        job: JobId,
        /// Progress-table generation at scheduling time.
        generation: u64,
    },
    /// A running job reaches its walltime limit and is killed unless it
    /// already completed. Stale if the job restarted or reshaped since
    /// this kill was armed (arm-stamp mismatch with the running job's
    /// `kill_arm`).
    WalltimeKill {
        /// The job to check.
        job: JobId,
        /// Arm stamp the kill was scheduled under.
        arm: u64,
    },
    /// A node fails: resident jobs are requeued, the node goes down.
    NodeFail(nodeshare_cluster::NodeId),
    /// A failed node returns to service.
    NodeRepair(nodeshare_cluster::NodeId),
    /// A maintenance window begins: the node drains.
    DrainStart(nodeshare_cluster::NodeId),
    /// A maintenance window ends: the node resumes.
    DrainEnd(nodeshare_cluster::NodeId),
    /// Capture an occupancy snapshot (index into `SimConfig::snapshot_times`).
    Snapshot(usize),
}

/// Which data structure backs an [`EventQueue`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Bucketed calendar queue (R. Brown, CACM 1988): O(1) amortized
    /// push/pop when tuned, self-resizing. The default.
    #[default]
    Calendar,
    /// `std::collections::BinaryHeap` — the original implementation,
    /// retained as the differential reference and for benchmarking.
    BinaryHeap,
}

#[derive(Clone, Debug)]
struct Entry {
    time: Seconds,
    /// 0 = arrival, 1 = everything else. See the module docs.
    band: u8,
    seq: u64,
    event: Event,
}

impl Entry {
    #[inline]
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.band.cmp(&other.band))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.band == other.band && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.key_cmp(self)
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic earliest-first event queue.
#[derive(Clone, Debug)]
pub struct EventQueue {
    backend: Backend,
    next_seq: u64,
}

#[derive(Clone, Debug)]
enum Backend {
    Heap(BinaryHeap<Entry>),
    Calendar(Calendar),
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty queue on the default (calendar) backend.
    pub fn new() -> Self {
        EventQueue::with_backend(QueueBackend::Calendar)
    }

    /// An empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        EventQueue {
            backend: match backend {
                QueueBackend::Calendar => Backend::Calendar(Calendar::new()),
                QueueBackend::BinaryHeap => Backend::Heap(BinaryHeap::new()),
            },
            next_seq: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.backend {
            Backend::Heap(_) => QueueBackend::BinaryHeap,
            Backend::Calendar(_) => QueueBackend::Calendar,
        }
    }

    /// Schedules `event` at `time`.
    ///
    /// [`Event::Arrival`] entries are ordered by their arrival index
    /// (band 0); everything else by insertion order (band 1). Callers
    /// must push arrivals with nondecreasing `(time, index)` — the
    /// engine's job-source plumbing guarantees this.
    ///
    /// # Panics
    /// Panics on a non-finite time — that is always an engine bug.
    pub fn push(&mut self, time: Seconds, event: Event) {
        assert!(time.is_finite(), "event scheduled at non-finite time");
        let (band, seq) = match &event {
            Event::Arrival(i) => (0u8, *i as u64),
            _ => {
                let s = self.next_seq;
                self.next_seq += 1;
                (1u8, s)
            }
        };
        let entry = Entry {
            time,
            band,
            seq,
            event,
        };
        match &mut self.backend {
            Backend::Heap(h) => h.push(entry),
            Backend::Calendar(c) => c.push(entry),
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(Seconds, Event)> {
        match &mut self.backend {
            Backend::Heap(h) => h.pop().map(|e| (e.time, e.event)),
            Backend::Calendar(c) => c.pop().map(|e| (e.time, e.event)),
        }
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<Seconds> {
        match &self.backend {
            Backend::Heap(h) => h.peek().map(|e| e.time),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len,
        }
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Calendar-queue sizing bounds. The bucket count tracks the live entry
/// count between these, keeping pops O(1) amortized without letting a
/// million-entry queue allocate unbounded bucket headers.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 17;

/// A classic bucketed calendar queue: an entry at time `t` lives in
/// "year" `vb = floor(t / width)`, stored in bucket `vb mod nbuckets`,
/// and pops walk the bucket "days" year by year looking for the minimum
/// key. Within a bucket the minimum is selected by the full
/// `(time, band, seq)` key, so the pop order is *exactly* the reference
/// heap's — equal times share a year (hence a bucket), which makes the
/// tie-break purely local.
///
/// Floating point cannot perturb the order: membership is decided by the
/// single deterministic function `floor(t / width)` and scanned years
/// are compared as integers, never against accumulated time windows. An
/// entry's year is computed the same way at push, scan, and resize; the
/// cursor holds the minimum live year (pops remove the global minimum
/// and `floor` is monotone, so no live entry can sit in an earlier
/// year). When a whole year-cycle comes up dry — the next event is more
/// than `nbuckets` years ahead, or the year indices are too large for
/// increments to advance — a direct O(n) search finds the true minimum.
#[derive(Clone, Debug)]
struct Calendar {
    buckets: Vec<Vec<Entry>>,
    /// Seconds each bucket-year spans.
    width: f64,
    len: usize,
    /// Year index (`floor(time / width)`) the next pop scans first.
    /// Invariant: no live entry has a smaller year.
    cur_vb: f64,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            buckets: vec![Vec::new(); MIN_BUCKETS],
            width: 1.0,
            len: 0,
            cur_vb: 0.0,
        }
    }

    /// The year index of `time` — the one membership function every
    /// decision goes through.
    #[inline]
    fn vb_of(&self, time: f64) -> f64 {
        (time / self.width).floor()
    }

    /// The bucket storing year `vb`.
    #[inline]
    fn bucket_at(&self, vb: f64) -> usize {
        let n = self.buckets.len() as f64;
        // `rem_euclid` is in [0, n); the cast saturates defensively.
        (vb.rem_euclid(n) as usize).min(self.buckets.len() - 1)
    }

    fn push(&mut self, e: Entry) {
        let vb = self.vb_of(e.time);
        if self.len == 0 || vb < self.cur_vb {
            // First entry, or pushed behind the scan anchor: re-anchor
            // so the scan cannot skip it.
            self.cur_vb = vb;
        }
        let b = self.bucket_at(vb);
        self.buckets[b].push(e);
        self.len += 1;
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize();
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        let (bucket, idx, year) = self.locate()?;
        self.cur_vb = year;
        let e = self.buckets[bucket].swap_remove(idx);
        self.len -= 1;
        if self.len * 8 < self.buckets.len() && self.buckets.len() > MIN_BUCKETS {
            self.resize();
        }
        Some(e)
    }

    fn peek_time(&self) -> Option<f64> {
        self.locate()
            .map(|(bucket, idx, _)| self.buckets[bucket][idx].time)
    }

    /// Finds the minimum-key entry: `(bucket, index-in-bucket, year)`.
    /// One cycle over the bucket days starting at the cursor year; on a
    /// dry cycle, a direct search over every entry.
    fn locate(&self) -> Option<(usize, usize, f64)> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len();
        let mut year = self.cur_vb;
        for _ in 0..n {
            let bucket = self.bucket_at(year);
            let day = &self.buckets[bucket];
            let mut best: Option<usize> = None;
            for (i, e) in day.iter().enumerate() {
                // `<=` rather than `==`: entries cannot live before the
                // cursor year (see the invariant), so this only ever
                // admits the scanned year — but stays safe if the
                // invariant were perturbed.
                if self.vb_of(e.time) <= year
                    && best.is_none_or(|b| e.key_cmp(&day[b]) == Ordering::Less)
                {
                    best = Some(i);
                }
            }
            if let Some(i) = best {
                return Some((bucket, i, year));
            }
            year += 1.0;
        }
        // Dry cycle: direct search. Equal times share a bucket, so the
        // full-key minimum over all buckets is exact.
        let mut best: Option<(usize, usize)> = None;
        for (b, day) in self.buckets.iter().enumerate() {
            for (i, e) in day.iter().enumerate() {
                if best.is_none_or(|(bb, bi)| e.key_cmp(&self.buckets[bb][bi]) == Ordering::Less) {
                    best = Some((b, i));
                }
            }
        }
        // detlint: allow(D5, guarded by the len > 0 check above)
        let (b, i) = best.expect("len > 0 means an entry exists");
        Some((b, i, self.vb_of(self.buckets[b][i].time)))
    }

    /// Rebuilds the bucket array sized to the live entry count, with the
    /// width re-estimated from the current time distribution. Purely a
    /// function of queue contents — deterministic across runs.
    fn resize(&mut self) {
        let n_new = (self.len.max(1))
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut entries: Vec<Entry> = Vec::with_capacity(self.len);
        for day in &mut self.buckets {
            entries.append(day);
        }
        self.width = estimate_width(&entries).unwrap_or(self.width);
        self.buckets = vec![Vec::new(); n_new];
        let min_time = entries.iter().map(|e| e.time).fold(f64::INFINITY, f64::min);
        if min_time.is_finite() {
            self.cur_vb = self.vb_of(min_time);
        }
        for e in entries {
            let b = self.bucket_at(self.vb_of(e.time));
            self.buckets[b].push(e);
        }
    }
}

/// Estimates a bucket width from a deterministic sample of entry times:
/// a trimmed span (10th–90th percentile of up to 64 strided samples)
/// scaled to the full population, targeting a few entries per bucket.
/// `None` when the sample carries no spread (keep the previous width).
fn estimate_width(entries: &[Entry]) -> Option<f64> {
    if entries.len() < 2 {
        return None;
    }
    let stride = (entries.len() / 64).max(1);
    let mut sample: Vec<f64> = entries.iter().step_by(stride).map(|e| e.time).collect();
    sample.sort_by(f64::total_cmp);
    let k = sample.len();
    let (lo, hi) = (k / 10, k - 1 - k / 10);
    let span = if hi > lo {
        (sample[hi] - sample[lo]) * (k as f64) / ((hi - lo) as f64)
    } else {
        sample[k - 1] - sample[0]
    };
    if !(span.is_finite() && span > 0.0) {
        return None;
    }
    // ~3 entries per bucket-day keeps the per-pop scan short while
    // tolerating clustering.
    let width = 3.0 * span / entries.len() as f64;
    (width.is_finite() && width > 0.0).then_some(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both() -> [EventQueue; 2] {
        [
            EventQueue::with_backend(QueueBackend::Calendar),
            EventQueue::with_backend(QueueBackend::BinaryHeap),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.push(5.0, Event::Snapshot(0));
            q.push(1.0, Event::Arrival(0));
            q.push(3.0, Event::Arrival(1));
            assert_eq!(q.len(), 3);
            assert_eq!(q.peek_time(), Some(1.0));
            assert_eq!(q.pop(), Some((1.0, Event::Arrival(0))));
            assert_eq!(q.pop(), Some((3.0, Event::Arrival(1))));
            assert_eq!(q.pop(), Some((5.0, Event::Snapshot(0))));
            assert_eq!(q.pop(), None);
            assert!(q.is_empty());
        }
    }

    #[test]
    fn simultaneous_events_fire_in_insertion_order() {
        for mut q in both() {
            for i in 0..10 {
                q.push(2.0, Event::Arrival(i));
            }
            for i in 0..10 {
                assert_eq!(q.pop(), Some((2.0, Event::Arrival(i))));
            }
        }
    }

    #[test]
    fn interleaved_pushes_stay_deterministic() {
        for mut q in both() {
            q.push(1.0, Event::Arrival(0));
            q.pop();
            q.push(4.0, Event::Arrival(1));
            q.push(4.0, Event::Arrival(2));
            q.push(2.0, Event::Arrival(3));
            assert_eq!(q.pop(), Some((2.0, Event::Arrival(3))));
            assert_eq!(q.pop(), Some((4.0, Event::Arrival(1))));
            assert_eq!(q.pop(), Some((4.0, Event::Arrival(2))));
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_times() {
        EventQueue::new().push(f64::NAN, Event::Snapshot(0));
    }

    #[test]
    fn arrivals_precede_other_events_at_equal_times() {
        // The band ordering: an arrival pushed *after* a completion, at
        // the same instant, still fires first — the property that makes
        // streamed arrival injection equivalent to materialized pushes.
        for mut q in both() {
            q.push(7.0, Event::Snapshot(0));
            q.push(
                7.0,
                Event::Completion {
                    job: JobId(1),
                    generation: 3,
                },
            );
            q.push(7.0, Event::Arrival(5));
            assert_eq!(q.pop(), Some((7.0, Event::Arrival(5))));
            assert_eq!(q.pop(), Some((7.0, Event::Snapshot(0))));
            assert_eq!(
                q.pop(),
                Some((
                    7.0,
                    Event::Completion {
                        job: JobId(1),
                        generation: 3
                    }
                ))
            );
        }
    }

    #[test]
    fn calendar_matches_heap_on_mixed_workload() {
        // Deterministic pseudo-random interleaving with duplicate times,
        // crossing several resize thresholds in both directions.
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut arrival = 0usize;
        let mut floor = 0.0f64;
        for round in 0..2_000 {
            let pushes = (rnd() % 5) as usize + 1;
            for _ in 0..pushes {
                let t = floor + (rnd() % 1000) as f64 / 10.0;
                let ev = match rnd() % 4 {
                    0 => {
                        arrival += 1;
                        Event::Arrival(arrival)
                    }
                    1 => Event::Completion {
                        job: JobId(rnd() % 50),
                        generation: rnd() % 10,
                    },
                    2 => Event::WalltimeKill {
                        job: JobId(rnd() % 50),
                        arm: rnd() % 3,
                    },
                    _ => Event::Snapshot(0),
                };
                cal.push(t, ev.clone());
                heap.push(t, ev);
            }
            let pops = (rnd() % 4) as usize + usize::from(round > 1_500) * 3;
            for _ in 0..pops {
                let a = cal.pop();
                let b = heap.pop();
                assert_eq!(a, b, "round {round}");
                if let Some((t, _)) = a {
                    floor = floor.max(t);
                }
            }
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.peek_time(), heap.peek_time());
        }
        while let Some(b) = heap.pop() {
            assert_eq!(cal.pop(), Some(b));
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn calendar_survives_extreme_time_skew() {
        // One event a simulated year out, the rest clustered — exercises
        // the dry-cycle direct-search fallback.
        let mut q = EventQueue::new();
        q.push(31_536_000.0, Event::Snapshot(0));
        for i in 0..100 {
            q.push(i as f64 * 1e-6, Event::Arrival(i));
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((i as f64 * 1e-6, Event::Arrival(i))));
        }
        assert_eq!(q.pop(), Some((31_536_000.0, Event::Snapshot(0))));
        assert!(q.pop().is_none());
    }

    #[test]
    fn backend_is_reported() {
        assert_eq!(EventQueue::new().backend(), QueueBackend::Calendar);
        assert_eq!(
            EventQueue::with_backend(QueueBackend::BinaryHeap).backend(),
            QueueBackend::BinaryHeap
        );
        assert_eq!(QueueBackend::default(), QueueBackend::Calendar);
    }
}
