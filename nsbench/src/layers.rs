//! Timing wrappers around the two trait seams the engine calls through:
//! [`Scheduler`] (the `core` layer) and [`JobSource`] (the `workload`
//! layer). They measure each layer from outside — one clock pair per
//! call — and forward everything else unchanged, so a run through them
//! makes exactly the decisions a plain run makes.

use nodeshare_engine::{Decision, SchedContext, Scheduler, StartReason};
use nodeshare_workload::{JobSource, JobSpec, Seconds, SourceError};
use std::cell::Cell;
use std::time::Instant;

/// Per-call statistics of a wrapped scheduler.
#[derive(Default)]
pub struct SchedStats {
    /// Summed host time inside `schedule`.
    pub busy_ns: u64,
    /// `schedule` invocations.
    pub calls: u64,
    /// Decisions returned, summed over calls.
    pub decisions: u64,
    /// Calls that returned at least one decision.
    pub useful_calls: u64,
    /// `ctx.queue.len()` summed over calls.
    pub queue_sum: u64,
    /// Host time of every `schedule` call, in call order.
    pub call_ns: Vec<u64>,
}

/// A [`Scheduler`] that times its inner policy.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    /// Statistics of `schedule`.
    pub stats: SchedStats,
    /// Summed host time inside `explain_all` (the engine calls it only
    /// when it records a decision trace). `explain_all` takes `&self`,
    /// hence the cell.
    pub explain_ns: Cell<u64>,
}

impl TimedScheduler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Scheduler>) -> Self {
        TimedScheduler {
            inner,
            stats: SchedStats::default(),
            explain_ns: Cell::new(0),
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        let started = Instant::now();
        let decisions = self.inner.schedule(ctx);
        let ns = elapsed_ns(started);
        let s = &mut self.stats;
        s.busy_ns += ns;
        s.calls += 1;
        s.decisions += decisions.len() as u64;
        s.useful_calls += u64::from(!decisions.is_empty());
        s.queue_sum += ctx.queue.len() as u64;
        s.call_ns.push(ns);
        decisions
    }

    fn explain(&self, ctx: &SchedContext<'_>, decision: &Decision) -> StartReason {
        self.inner.explain(ctx, decision)
    }

    // Forwarded, not left to the default, so the inner policy keeps its
    // batched justification scan.
    fn explain_all(&self, ctx: &SchedContext<'_>, decisions: &[Decision]) -> Vec<StartReason> {
        let started = Instant::now();
        let reasons = self.inner.explain_all(ctx, decisions);
        self.explain_ns
            .set(self.explain_ns.get() + elapsed_ns(started));
        reasons
    }
}

/// A [`JobSource`] that times its inner source.
pub struct TimedSource<'a> {
    inner: Box<dyn JobSource + 'a>,
    /// Summed host time inside `next_chunk`.
    pub busy_ns: u64,
    /// `next_chunk` calls.
    pub chunks: u64,
    /// Jobs delivered.
    pub jobs: u64,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn JobSource + 'a>) -> Self {
        TimedSource {
            inner,
            busy_ns: 0,
            chunks: 0,
            jobs: 0,
        }
    }
}

impl JobSource for TimedSource<'_> {
    fn next_chunk(&mut self, out: &mut Vec<JobSpec>) -> Result<Option<Seconds>, SourceError> {
        let before = out.len();
        let started = Instant::now();
        let horizon = self.inner.next_chunk(out);
        self.busy_ns += elapsed_ns(started);
        self.chunks += 1;
        self.jobs += (out.len() - before) as u64;
        horizon
    }

    fn size_hint(&self) -> Option<usize> {
        self.inner.size_hint()
    }
}

/// Nanoseconds since `started`.
pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
