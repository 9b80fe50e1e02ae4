//! The simulation driver: wires workload, cluster, contention truth, and
//! a scheduling policy into one deterministic discrete-event run.

use crate::audit::Auditor;
use crate::events::{Event, EventQueue, QueueBackend};
use crate::faults::{FailureModel, MaintenanceWindow};
use crate::outcome::SimOutcome;
use crate::progress::RunningJob;
use crate::telemetry::SimTelemetry;
use crate::trace::{DecisionTrace, DownCause, StartReason, TraceEvent};
use crate::view::{summary_of, Decision, SchedContext, Scheduler};
use nodeshare_cluster::{AdminState, Allocation, Cluster, ClusterSpec, JobId, NodeId, ShareMode};
use nodeshare_metrics::{JobRecord, StepAccum, StepSeries};
use nodeshare_perf::CoRunTruth;
use nodeshare_workload::{JobSource, JobSpec, Seconds, SourceError, Workload};
use std::collections::{BTreeMap, VecDeque};

/// Engine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Cluster to simulate.
    pub cluster: ClusterSpec,
    /// Walltime grace factor for jobs started in shared mode: the system
    /// kills them at `start + estimate × grace` instead of
    /// `start + estimate`, compensating for co-allocation slowdown the
    /// system itself introduced. Schedulers see the padded bound
    /// ([`crate::RunningSummary::kill_at`]) and plan reservations with
    /// it, so backfill guarantees hold. 1.0 disables the grace.
    pub shared_walltime_grace: f64,
    /// Optional random node failures: failed nodes kill (and requeue)
    /// their resident jobs, stay down for the repair time, then return.
    pub failures: Option<FailureModel>,
    /// Horizon over which failures are pre-sampled. Must cover the
    /// campaign; failures past the horizon simply never fire.
    pub failure_horizon: Seconds,
    /// Planned maintenance windows (drain → resume).
    pub maintenance: Vec<MaintenanceWindow>,
    /// Application-level checkpointing: when set, a job requeued by a
    /// node failure resumes from its last completed multiple of this many
    /// *work* seconds instead of from scratch. `None` = no checkpointing
    /// (plain SLURM `--requeue` semantics).
    pub checkpoint_interval: Option<Seconds>,
    /// Times at which to capture an ASCII occupancy map of the cluster
    /// (delivered in [`SimOutcome::snapshots`]).
    pub snapshot_times: Vec<Seconds>,
    /// Hard event budget; exceeded means a runaway policy. Generous
    /// default: ~40 events per job covers every policy in this workspace.
    pub max_events: u64,
    /// Record a [`DecisionTrace`] and replay-audit it against the outcome
    /// when the run ends, panicking on any violated invariant (see
    /// [`crate::audit::Auditor`]). [`simulate`] honours it whatever it is
    /// asked to observe, and so does every function forwarding to it.
    /// Defaults to on in debug builds (so every test run is audited) and
    /// off in release builds (benchmark runs pay no tracing cost).
    pub audit: bool,
    /// Event-queue implementation. The calendar queue (default) keeps
    /// push/pop near O(1) at million-entry depths; the binary heap is
    /// retained for differential testing and benchmarks. Both produce
    /// bit-identical pop orders, so this is purely a performance knob.
    pub queue_backend: QueueBackend,
    /// Retain per-job [`JobRecord`]s and step-series change points in the
    /// outcome (the default). `false` is *lean mode* for million-job
    /// runs: memory stays bounded by in-flight state, the outcome keeps
    /// exact counts and integrals ([`SimOutcome::completed_jobs`],
    /// [`SimOutcome::peak_queue_depth`], `busy_core_seconds`) but
    /// `records` and the series come back empty — so per-job metrics and
    /// history-driven policies (which read `SchedContext::completed`)
    /// see nothing. Incompatible with `audit` (the auditor replays
    /// records), so lean runs set `audit = false`; [`simulate`] panics
    /// on the combination. A lean run may still return a trace or feed
    /// telemetry.
    pub retain_detail: bool,
}

impl SimConfig {
    /// Default config for a given cluster spec.
    pub fn new(cluster: ClusterSpec) -> Self {
        SimConfig {
            cluster,
            shared_walltime_grace: 1.5,
            failures: None,
            failure_horizon: 30.0 * 86_400.0,
            maintenance: Vec::new(),
            checkpoint_interval: None,
            snapshot_times: Vec::new(),
            max_events: 50_000_000,
            audit: cfg!(debug_assertions),
            queue_backend: QueueBackend::default(),
            retain_detail: true,
        }
    }
}

/// Jobs per chunk when an in-memory [`Workload`] is streamed through the
/// engine ([`run`], campaign cells, the CLI): large enough to amortize
/// refill bookkeeping, small enough that the pending buffer stays
/// cache-resident. The event-queue gauge in telemetry samples follows
/// the chunking, so every caller uses this one value.
pub const STREAM_CHUNK_JOBS: usize = 8192;

/// What a [`simulate`] call observes besides the outcome. The default
/// observes nothing. Observers are read-only: no combination changes a
/// scheduling decision, the outcome, or the trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct Observe<'a> {
    /// Record the full [`DecisionTrace`] and return it.
    pub trace: bool,
    /// Collect runtime telemetry here: engine counters, gauges and
    /// latency histograms, scheduler perf counters (exposed to the policy
    /// through [`SchedContext::telemetry`]), and a
    /// [`crate::telemetry::TelemetrySample`] every
    /// `telemetry.sample_interval` seconds of simulation time.
    pub telemetry: Option<&'a SimTelemetry>,
}

/// Runs the jobs `source` delivers under `scheduler` — the one engine
/// entry point.
///
/// Ground-truth co-run rates come from `truth`; the policy never sees
/// them (it plans with whatever predictor it was built with). Only
/// in-flight and queued jobs stay resident: the engine pulls the next
/// chunk whenever the earliest pending event reaches the source's
/// horizon. A materialized [`Workload`] is just the trivial source
/// ([`Workload::source`]); the event order, and therefore every outcome
/// byte, does not depend on how jobs are chunked. One caveat: the
/// `event_queue` gauge in telemetry samples counts
/// *delivered-but-unfired* arrivals only, so it follows the chunking;
/// counters do not.
///
/// The trace comes back only when `observe.trace` asks for it. When
/// `config.audit` is set, the run is traced whatever `observe` says and
/// replay-audited ([`Auditor`]) before returning.
///
/// # Errors
/// Returns the source's own error (I/O, parse) as soon as it occurs, and
/// a [`SourceError`] when the source breaks its contract: an invalid
/// spec, delivery out of submit order, a broken horizon promise, or no
/// progress. The jobs simulated until then are discarded.
///
/// # Panics
/// Panics when the policy returns an inapplicable decision (unknown job,
/// wrong node count, occupied nodes, share-rule violations) — those are
/// policy bugs, not recoverable conditions — when `max_events` is
/// exceeded, and when the audit finds a violation.
pub fn simulate(
    source: &mut dyn JobSource,
    truth: &CoRunTruth,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
    observe: Observe<'_>,
) -> Result<(SimOutcome, Option<DecisionTrace>), SourceError> {
    let traced = observe.trace || config.audit;
    let (outcome, trace) =
        Engine::new(source, truth, config, traced, observe.telemetry).run(scheduler)?;
    if let Some(trace) = trace.as_ref().filter(|_| config.audit) {
        if let Err(violations) = Auditor::new(truth, config).audit(trace, &outcome) {
            let mut msg = format!(
                "audit of scheduler {:?} found {} violation(s):",
                outcome.scheduler,
                violations.len()
            );
            for v in &violations {
                msg.push_str("\n  ");
                msg.push_str(&v.to_string());
            }
            panic!("{msg}");
        }
    }
    Ok((outcome, trace.filter(|_| observe.trace)))
}

/// [`simulate`] over an in-memory `workload`, observing nothing.
///
/// # Panics
/// As [`simulate`].
pub fn run(
    workload: &Workload,
    truth: &CoRunTruth,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
) -> SimOutcome {
    run_streamed(
        &mut workload.source(STREAM_CHUNK_JOBS),
        truth,
        scheduler,
        config,
    )
}

/// [`simulate`] observing nothing. Kept with this signature because the
/// benchmark driver (`nsbench`) links it; new code calls [`simulate`].
///
/// # Panics
/// As [`simulate`], and on an `Err` from the source.
pub fn run_streamed(
    source: &mut dyn JobSource,
    truth: &CoRunTruth,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
) -> SimOutcome {
    simulate(source, truth, scheduler, config, Observe::default())
        .unwrap_or_else(|e| panic!("job source failed: {e}"))
        .0
}

/// [`simulate`] recording and returning the trace. Kept with this
/// signature because the benchmark driver (`nsbench`) links it; new code
/// calls [`simulate`].
///
/// # Panics
/// As [`run_streamed`].
pub fn run_streamed_traced(
    source: &mut dyn JobSource,
    truth: &CoRunTruth,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
) -> (SimOutcome, DecisionTrace) {
    let observe = Observe {
        trace: true,
        ..Observe::default()
    };
    let (outcome, trace) = simulate(source, truth, scheduler, config, observe)
        .unwrap_or_else(|e| panic!("job source failed: {e}"));
    // detlint: allow(D5, simulate returns the trace whenever it is requested)
    (outcome, trace.expect("tracing was requested"))
}

struct Engine<'a> {
    truth: &'a CoRunTruth,
    config: &'a SimConfig,
    source: &'a mut dyn JobSource,
    /// `source.size_hint()` captured at construction, for logging.
    source_hint: usize,
    /// Jobs delivered by the source whose arrival events have not fired
    /// yet. Arrivals pop in delivery order (see [`EventQueue::push`]'s
    /// band rule), so this is a plain FIFO.
    pending: VecDeque<JobSpec>,
    /// Reusable chunk scratch handed to `source.next_chunk`.
    chunk_buf: Vec<JobSpec>,
    /// Index stamped on the next `Event::Arrival` — delivery order, which
    /// equals the materialized workload's `(submit, id)` index.
    next_arrival_idx: usize,
    /// Every job the source delivers later has `submit >= horizon`.
    horizon: Seconds,
    source_done: bool,
    /// Monotonicity check on source deliveries.
    last_delivered_submit: Seconds,
    cluster: Cluster,
    events: EventQueue,
    queue: Vec<JobSpec>,
    running: BTreeMap<JobId, RunningJob>,
    running_view: BTreeMap<JobId, crate::view::RunningSummary>,
    records: Vec<JobRecord>,
    /// Completions including walltime kills; equals `records.len()` when
    /// detail is retained, and keeps counting when it is not.
    completed_count: u64,
    busy_cores: StepSeries,
    shared_cores: StepSeries,
    queue_depth: StepSeries,
    /// O(1) companions to the three series, kept in both modes: lean runs
    /// take integrals/maxima from these, full runs use them only for
    /// [`SimOutcome::peak_queue_depth`].
    busy_acc: StepAccum,
    shared_acc: StepAccum,
    depth_acc: StepAccum,
    now: Seconds,
    processed: u64,
    /// Requeue counter per job (node failures).
    attempts: BTreeMap<JobId, u32>,
    /// Checkpointed work salvaged for requeued jobs, exclusive-seconds.
    salvage: BTreeMap<JobId, f64>,
    /// Captured occupancy snapshots.
    snapshots: Vec<(Seconds, String)>,
    /// Jobs rejected at arrival as unsatisfiable.
    rejected: Vec<JobId>,
    /// Globally unique completion-event generations: requeued jobs must
    /// never collide with their previous attempt's event stamps.
    gen_counter: u64,
    /// Reusable scratch for the affected-co-runner dedup in
    /// [`Engine::apply`], [`Engine::finish`] and [`Engine::requeue`];
    /// avoids a fresh `Vec` per start or release on the hot path.
    affected_buf: Vec<JobId>,
    /// Decision trace, recorded when tracing/auditing is requested.
    trace: Option<DecisionTrace>,
    /// Runtime telemetry sink; `None` costs one branch per site.
    telemetry: Option<&'a SimTelemetry>,
    /// Simulation time of the next periodic telemetry sample.
    next_sample: Seconds,
}

impl<'a> Engine<'a> {
    fn new(
        source: &'a mut dyn JobSource,
        truth: &'a CoRunTruth,
        config: &'a SimConfig,
        traced: bool,
        telemetry: Option<&'a SimTelemetry>,
    ) -> Self {
        assert!(
            config.retain_detail || !config.audit,
            "lean mode (retain_detail = false) discards the job records the \
             auditor replays; disable audit for lean runs"
        );
        let mut events = EventQueue::with_backend(config.queue_backend);
        if let Some(failures) = &config.failures {
            for (t, node) in
                failures.sample_failures(config.cluster.node_count, config.failure_horizon)
            {
                events.push(t, Event::NodeFail(node));
            }
        }
        for (i, &t) in config.snapshot_times.iter().enumerate() {
            events.push(t, Event::Snapshot(i));
        }
        for window in &config.maintenance {
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            window.validate().expect("invalid maintenance window");
            for &node in &window.nodes {
                events.push(window.start, Event::DrainStart(node));
                events.push(window.end, Event::DrainEnd(node));
            }
        }
        let source_hint = source.size_hint().unwrap_or(0);
        Engine {
            truth,
            config,
            source,
            source_hint,
            pending: VecDeque::new(),
            chunk_buf: Vec::new(),
            next_arrival_idx: 0,
            horizon: f64::NEG_INFINITY,
            source_done: false,
            last_delivered_submit: f64::NEG_INFINITY,
            cluster: Cluster::new(config.cluster),
            events,
            queue: Vec::new(),
            running: BTreeMap::new(),
            running_view: BTreeMap::new(),
            records: Vec::new(),
            completed_count: 0,
            busy_cores: StepSeries::new(),
            shared_cores: StepSeries::new(),
            queue_depth: StepSeries::new(),
            busy_acc: StepAccum::new(),
            shared_acc: StepAccum::new(),
            depth_acc: StepAccum::new(),
            now: 0.0,
            processed: 0,
            attempts: BTreeMap::new(),
            salvage: BTreeMap::new(),
            snapshots: Vec::new(),
            rejected: Vec::new(),
            gen_counter: 1,
            affected_buf: Vec::new(),
            trace: traced.then(DecisionTrace::new),
            telemetry,
            next_sample: 0.0,
        }
    }

    /// Mints a globally unique completion-event generation.
    fn next_gen(&mut self) -> u64 {
        let g = self.gen_counter;
        self.gen_counter += 1;
        g
    }

    /// Records one trace event when tracing is on.
    fn trace_ev(&mut self, event: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(event);
        }
    }

    /// Pulls chunks until every event at or past the earliest pending
    /// event's time is guaranteed delivered — i.e. until the horizon lies
    /// strictly past the next pop (or the source is exhausted). Called
    /// before every pop, this is what makes streamed and materialized
    /// runs pop the exact same event sequence: an arrival can only be
    /// delivered late if its submit is at or past the horizon, and we
    /// never pop at or past the horizon.
    fn refill(&mut self) -> Result<(), SourceError> {
        while !self.source_done {
            match self.events.peek_time() {
                Some(t) if t < self.horizon => break,
                _ => self.pull_chunk()?,
            }
        }
        Ok(())
    }

    /// One `next_chunk` call: validates, queues arrival events, and
    /// advances the horizon. Passes the source's own `Err` (bad input)
    /// through, and turns a broken source contract into an `Err` too — a
    /// silent repair would quietly change results.
    fn pull_chunk(&mut self) -> Result<(), SourceError> {
        let mut buf = std::mem::take(&mut self.chunk_buf);
        buf.clear();
        let res = self.source.next_chunk(&mut buf);
        let delivered = buf.len();
        let ingested = self.ingest(&mut buf);
        self.chunk_buf = buf;
        ingested?;
        match res? {
            Some(h) => {
                if delivered == 0 && h <= self.horizon {
                    return Err(SourceError::new(format!(
                        "job source made no progress (no jobs, horizon stuck at {h})"
                    )));
                }
                self.horizon = self.horizon.max(h);
            }
            None => {
                self.source_done = true;
                self.horizon = f64::INFINITY;
            }
        }
        Ok(())
    }

    /// Checks a delivered chunk against the source contract and queues
    /// its arrivals, stopping at the first job that breaks the contract.
    fn ingest(&mut self, buf: &mut Vec<JobSpec>) -> Result<(), SourceError> {
        for job in buf.drain(..) {
            job.validate().map_err(|e| {
                SourceError::new(format!("job source delivered an invalid spec: {e}"))
            })?;
            if job.submit < self.last_delivered_submit {
                return Err(SourceError::new(format!(
                    "job source delivered {} out of submit order",
                    job.id
                )));
            }
            // `self.horizon` still holds the *previous* call's promise
            // here; it only advances after the chunk is ingested.
            if job.submit < self.horizon {
                return Err(SourceError::new(format!(
                    "job source broke its horizon promise at {}",
                    job.id
                )));
            }
            self.last_delivered_submit = job.submit;
            self.events
                .push(job.submit, Event::Arrival(self.next_arrival_idx));
            self.next_arrival_idx += 1;
            self.pending.push_back(job);
        }
        Ok(())
    }

    /// Records the waiting-job count on the depth accumulator and, in
    /// full mode, the step series.
    fn record_depth(&mut self) {
        let v = self.queue.len() as f64;
        self.depth_acc.record(self.now, v);
        if self.config.retain_detail {
            self.queue_depth.record(self.now, v);
        }
    }

    fn run(
        mut self,
        scheduler: &mut dyn Scheduler,
    ) -> Result<(SimOutcome, Option<DecisionTrace>), SourceError> {
        if let Some(t) = self.telemetry {
            t.note_strategy(scheduler.name());
            nodeshare_obs::debug!(
                "engine",
                "run started";
                strategy = scheduler.name(),
                jobs = self.source_hint,
                nodes = self.config.cluster.node_count
            );
        }
        loop {
            self.refill()?;
            let Some((time, event)) = self.events.pop() else {
                break;
            };
            debug_assert!(time + 1e-9 >= self.now, "event time went backwards");
            if let Some(t) = self.telemetry {
                // Periodic state samples land *before* the event that
                // crosses the sample instant, so each sample reflects the
                // world as of its own timestamp.
                while self.next_sample <= time {
                    t.record_sample(
                        self.next_sample,
                        self.queue.len(),
                        self.running.len(),
                        self.completed_count as usize,
                        self.events.len(),
                        &self.cluster,
                    );
                    self.next_sample += t.sample_interval;
                }
            }
            let _event_span = self.telemetry.map(|t| {
                t.events_total.inc();
                SimTelemetry::time(&t.event_seconds)
            });
            self.now = time.max(self.now);
            self.processed += 1;
            assert!(
                self.processed <= self.config.max_events,
                "event budget exceeded at t={}: runaway policy?",
                self.now
            );
            match event {
                Event::Arrival(_) => {
                    // Arrivals pop in delivery order (dedicated tie-break
                    // band + per-arrival sequence), so the FIFO front is
                    // always the right spec — owned, no clone.
                    let job = self
                        .pending
                        .pop_front()
                        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                        .expect("arrival event without a delivered spec");
                    self.trace_ev(TraceEvent::Submitted {
                        time: self.now,
                        job: job.id,
                        app: job.app,
                        nodes: job.nodes,
                        walltime_estimate: job.walltime_estimate,
                        share_eligible: job.share_eligible,
                        malleable: job.malleable,
                    });
                    // Requests no configuration of this machine can ever
                    // satisfy are rejected at submission, as sbatch does —
                    // otherwise an FCFS head would deadlock the queue.
                    if job.nodes > self.config.cluster.node_count
                        || u64::from(job.mem_per_node_mib) > self.config.cluster.node.mem_mib
                    {
                        self.rejected.push(job.id);
                        if let Some(t) = self.telemetry {
                            t.rejected.inc();
                            nodeshare_obs::debug!(
                                "engine",
                                "job rejected as unsatisfiable";
                                job = job.id,
                                nodes = job.nodes,
                                mem_per_node_mib = job.mem_per_node_mib
                            );
                        }
                        self.trace_ev(TraceEvent::Rejected {
                            time: self.now,
                            job: job.id,
                        });
                        continue;
                    }
                    self.queue.push(job);
                    self.record_depth();
                    self.invoke(scheduler);
                }
                Event::Completion { job, generation } => {
                    let stale = self
                        .running
                        .get(&job)
                        .map(|r| r.generation != generation)
                        .unwrap_or(true);
                    if stale {
                        continue;
                    }
                    self.finish(job, false);
                    self.invoke(scheduler);
                }
                Event::WalltimeKill { job, arm } => {
                    if let Some(r) = self.running.get_mut(&job) {
                        if r.kill_arm != arm {
                            continue; // re-armed by a restart or reshape since
                        }
                        r.advance_to(self.now);
                        let done = r.is_complete();
                        // A job finishing exactly at its limit completed.
                        self.finish(job, !done);
                        self.invoke(scheduler);
                    }
                }
                Event::NodeFail(node) => {
                    self.fail_node(node);
                    self.invoke(scheduler);
                }
                Event::NodeRepair(node) => {
                    // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                    self.cluster.resume(node).expect("repaired node exists");
                    self.trace_ev(TraceEvent::NodeUp {
                        time: self.now,
                        node,
                    });
                    self.invoke(scheduler);
                }
                Event::DrainStart(node) => {
                    // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                    self.cluster.drain(node).expect("drained node exists");
                    self.trace_ev(TraceEvent::NodeDown {
                        time: self.now,
                        node,
                        cause: DownCause::Drained,
                    });
                }
                Event::Snapshot(_) => {
                    self.snapshots.push((
                        self.now,
                        nodeshare_cluster::render_occupancy(&self.cluster, 32),
                    ));
                }
                Event::DrainEnd(node) => {
                    // Only undo the drain; a node that failed during its
                    // window stays down until its repair event.
                    if self
                        .cluster
                        .node(node)
                        .is_some_and(|n| n.admin_state() == AdminState::Drained)
                    {
                        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                        self.cluster.resume(node).expect("node exists");
                        self.trace_ev(TraceEvent::NodeUp {
                            time: self.now,
                            node,
                        });
                        self.invoke(scheduler);
                    }
                }
            }
        }

        debug_assert!(
            self.pending.is_empty() && self.source_done,
            "event queue drained with undelivered or unfired arrivals"
        );
        if let Some(t) = self.telemetry {
            // One closing sample at the end time (replacing a periodic
            // sample that landed exactly there, so final state wins).
            t.record_sample(
                self.now,
                self.queue.len(),
                self.running.len(),
                self.completed_count as usize,
                self.events.len(),
                &self.cluster,
            );
            nodeshare_obs::debug!(
                "engine",
                "run finished";
                strategy = scheduler.name(),
                end_time = self.now,
                completed = self.completed_count,
                unscheduled = self.queue.len(),
                events = self.processed
            );
        }

        let end = self.now;
        let trace = self.trace;
        // Full mode integrates the retained series — byte-identical to
        // what this engine always produced; lean mode falls back to the
        // O(1) accumulators (equal up to fp grouping of same-instant
        // updates).
        let (busy_cs, shared_cs) = if self.config.retain_detail {
            (
                self.busy_cores.integral(0.0, end),
                self.shared_cores.integral(0.0, end),
            )
        } else {
            (
                self.busy_acc.integral_to(end),
                self.shared_acc.integral_to(end),
            )
        };
        let outcome = SimOutcome {
            events_processed: self.processed,
            scheduler: scheduler.name().to_string(),
            records: {
                let mut r = self.records;
                r.sort_by_key(|rec| rec.id);
                r
            },
            completed_jobs: self.completed_count,
            busy_core_seconds: busy_cs,
            shared_core_seconds: shared_cs,
            peak_queue_depth: self.depth_acc.max_value(),
            end_time: end,
            unscheduled: self.queue.iter().map(|j| j.id).collect(),
            busy_cores: self.busy_cores,
            shared_cores: self.shared_cores,
            queue_depth: self.queue_depth,
            snapshots: self.snapshots,
            rejected: self.rejected,
        };
        Ok((outcome, trace))
    }

    /// Calls the policy until it has nothing more to start.
    fn invoke(&mut self, scheduler: &mut dyn Scheduler) {
        // Each round must start at least one job, so `queue.len()` rounds
        // bound the fixpoint iteration.
        for _ in 0..=self.queue.len() {
            let decisions: Vec<(Decision, StartReason)> = {
                let _invoke_span = self
                    .telemetry
                    .map(|t| SimTelemetry::time(&t.invoke_seconds));
                let ctx = SchedContext {
                    now: self.now,
                    queue: &self.queue,
                    cluster: &self.cluster,
                    running: &self.running_view,
                    shared_grace: self.config.shared_walltime_grace,
                    completed: &self.records,
                    telemetry: self.telemetry.map(|t| &t.sched),
                };
                let decided = scheduler.schedule(&ctx);
                // Batch the justification: one explain_all call shares
                // the queue scan across the invocation's decisions
                // instead of re-running `explain` per decision.
                let reasons = if self.trace.is_some() && !decided.is_empty() {
                    scheduler.explain_all(&ctx, &decided)
                } else {
                    vec![StartReason::Unspecified; decided.len()]
                };
                assert_eq!(
                    reasons.len(),
                    decided.len(),
                    "explain_all must justify every decision"
                );
                decided.into_iter().zip(reasons).collect()
            };
            if decisions.is_empty() {
                return;
            }
            if let Some(t) = self.telemetry {
                t.sched.decisions.add(decisions.len() as u64);
            }
            for (d, reason) in decisions {
                self.apply(d, reason);
            }
        }
    }

    /// Applies one start decision. Panics on policy bugs.
    fn apply(&mut self, decision: Decision, reason: StartReason) {
        let decision = match decision {
            Decision::Reshape { job, nodes } => {
                self.apply_reshape(job, nodes);
                return;
            }
            start => start,
        };
        let job_id = decision.job();
        let pos = self
            .queue
            .iter()
            .position(|j| j.id == job_id)
            .unwrap_or_else(|| panic!("policy started {job_id} which is not queued"));
        // Trace context captured before any state changes: who was still
        // waiting ahead, and how many nodes were idle.
        let idle_before = self.cluster.idle_count();
        let head_waiting = (pos != 0).then(|| (self.queue[0].id, self.queue[0].nodes));
        let spec = self.queue.remove(pos);
        self.record_depth();
        assert_eq!(
            decision.nodes().len(),
            spec.nodes as usize,
            "policy gave {} nodes to {} which requested {}",
            decision.nodes().len(),
            job_id,
            spec.nodes
        );
        let mode = decision.mode();
        if mode == ShareMode::Shared {
            assert!(
                spec.share_eligible,
                "policy co-allocated {job_id} which did not opt into sharing"
            );
            for &n in decision.nodes() {
                // `lane_owners` may repeat a multi-lane resident; the
                // assertion is idempotent, and skipping the dedup keeps
                // this validation allocation-free.
                // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                for resident in self.cluster.node(n).expect("node exists").lane_owners() {
                    let r = &self.running[&resident];
                    assert!(
                        r.spec.share_eligible,
                        "policy co-allocated {job_id} next to non-sharing {resident}"
                    );
                }
            }
        }
        let result = {
            let _alloc_span = self.telemetry.map(|t| SimTelemetry::time(&t.alloc_seconds));
            match mode {
                ShareMode::Exclusive => self
                    .cluster
                    .allocate_exclusive(job_id, decision.nodes(), spec.mem_per_node_mib.into())
                    .map(|_| ()),
                ShareMode::Shared => self
                    .cluster
                    .allocate_shared(job_id, decision.nodes(), spec.mem_per_node_mib.into())
                    .map(|_| ()),
            }
        };
        if let Err(e) = result {
            panic!("policy decision for {job_id} failed: {e}");
        }
        if let Some(t) = self.telemetry {
            match mode {
                ShareMode::Exclusive => t.starts_exclusive.inc(),
                ShareMode::Shared => t.starts_shared.inc(),
            }
        }

        let walltime = spec.walltime_estimate;
        let salvaged = self.salvage.remove(&job_id).unwrap_or(0.0);
        let mut running = RunningJob {
            start: self.now,
            nodes: decision.nodes().to_vec(),
            mode,
            work_done: salvaged,
            salvaged,
            rate: 1.0,
            last_update: self.now,
            generation: 0,
            shared_node_seconds: 0.0,
            shared_nodes_now: 0,
            walltime_consumed: 0.0,
            walltime_credit: 0.0,
            kill_arm: 0,
            spec,
        };
        if let Some(t) = &mut self.trace {
            t.push(TraceEvent::Started {
                time: self.now,
                job: job_id,
                mode,
                nodes: decision.nodes().to_vec(),
                reason,
                idle_before,
                head_waiting,
                partners: self.cluster.co_runners(job_id),
            });
        }
        {
            let view = &self.running_view;
            running.rerate_with(&self.cluster, self.truth, |co| view[&co].app);
        }
        running.generation = self.next_gen();
        self.events.push(
            running.eta(self.now),
            Event::Completion {
                job: job_id,
                generation: running.generation,
            },
        );
        let grace = match mode {
            ShareMode::Shared => self.config.shared_walltime_grace.max(1.0),
            ShareMode::Exclusive => 1.0,
        };
        let kill_at = self.now + walltime * grace;
        running.kill_arm = self.next_gen();
        self.events.push(
            kill_at,
            Event::WalltimeKill {
                job: job_id,
                arm: running.kill_arm,
            },
        );
        self.running_view
            .insert(job_id, summary_of(&running, kill_at));
        self.running.insert(job_id, running);
        // One co-runner per shared node, in grant order (the order of
        // `Cluster::co_runners`). A co-runner met again is not re-rated
        // again: nothing changed since its first re-rate, so it keeps the
        // same rate and completion time, and only a fresh completion
        // event is pushed, as a second re-rate would push it.
        let mut affected = std::mem::take(&mut self.affected_buf);
        affected.clear();
        for &n in decision.nodes() {
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            let node = self.cluster.node(n).expect("allocated node exists");
            let Some(co) = node.co_runner_of(job_id) else {
                continue;
            };
            if affected.contains(&co) {
                self.rearm_completion(co);
            } else {
                affected.push(co);
                self.rerate_job(co);
            }
        }
        self.affected_buf = affected;
        self.record_occupancy();
    }

    /// Applies a [`Decision::Reshape`]: moves a running exclusive
    /// malleable job to its new node set, charges the contract's reshape
    /// cost against its progress, re-rates it under the width-scaled
    /// model, and re-arms its completion and walltime-kill events.
    /// Panics on policy bugs (rigid/shared/unknown job, width outside
    /// the contract, a node set that is not a shrink-subset or
    /// grow-superset of the current allocation, busy or down added
    /// nodes).
    fn apply_reshape(&mut self, job_id: JobId, new_nodes: Vec<NodeId>) {
        let mut r = self
            .running
            .remove(&job_id)
            .unwrap_or_else(|| panic!("policy reshaped {job_id} which is not running"));
        let contract = r.spec.malleable;
        assert!(
            !contract.is_rigid(),
            "policy reshaped {job_id} which has a rigid contract"
        );
        assert_eq!(
            r.mode,
            ShareMode::Exclusive,
            "policy reshaped {job_id} which runs in shared mode"
        );
        let new_w = new_nodes.len() as u32;
        assert!(
            contract.admits(new_w),
            "policy reshaped {job_id} to width {new_w} outside [{}, {}]",
            contract.min_nodes,
            contract.max_nodes
        );
        assert_ne!(
            new_w as usize,
            r.nodes.len(),
            "policy reshaped {job_id} to its current width"
        );
        // A shrink keeps a strict subset of the held nodes; a grow keeps
        // every held node and adds (idle, up — the allocator enforces
        // that) nodes.
        if (new_w as usize) < r.nodes.len() {
            for n in &new_nodes {
                assert!(
                    r.nodes.contains(n),
                    "shrink of {job_id} kept {n} which it does not hold"
                );
            }
        } else {
            for n in &r.nodes {
                assert!(
                    new_nodes.contains(n),
                    "grow of {job_id} dropped held node {n}"
                );
            }
        }
        // Settle progress and normalized-walltime consumption at the old
        // width before anything changes.
        r.advance_to(self.now);
        let from = std::mem::replace(&mut r.nodes, new_nodes);
        {
            let _release_span = self
                .telemetry
                .map(|t| SimTelemetry::time(&t.release_seconds));
            self.cluster
                .release(job_id)
                // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                .expect("reshaped job held an allocation");
        }
        let result = {
            let _alloc_span = self.telemetry.map(|t| SimTelemetry::time(&t.alloc_seconds));
            self.cluster
                .allocate_exclusive(job_id, &r.nodes, r.spec.mem_per_node_mib.into())
        };
        if let Err(e) = result {
            panic!("reshape of {job_id} failed: {e}");
        }
        // The contract's cost is in node-seconds; progress is measured in
        // exclusive-rate seconds at the requested width, so the charge is
        // cost / requested_width. `work_done` may go (further) negative —
        // that is simply more work left to do.
        // The charge is system-initiated, so the same amount is credited
        // to the walltime allowance: a reshape must never push a job over
        // the bound the *user* was held to.
        let cost = f64::from(contract.reshape_cost);
        r.work_done -= cost / f64::from(r.spec.nodes);
        r.walltime_credit += cost / f64::from(r.spec.nodes);
        self.trace_ev(TraceEvent::Reshape {
            time: self.now,
            job: job_id,
            from,
            to: r.nodes.clone(),
            cost,
        });
        if let Some(t) = self.telemetry {
            t.reshapes.inc();
        }
        // Exclusive mode means no co-residents on either node set, so
        // only the job itself re-rates.
        {
            let view = &self.running_view;
            r.rerate_with(&self.cluster, self.truth, |co| view[&co].app);
        }
        r.generation = self.next_gen();
        self.events.push(
            r.eta(self.now),
            Event::Completion {
                job: job_id,
                generation: r.generation,
            },
        );
        // Re-arm the walltime kill: the remaining normalized allowance
        // (exclusive jobs get no grace, but accumulated reshape credit
        // extends the bound) burns at `new_width / requested` per wall
        // second from here on.
        let allowance = r.spec.walltime_estimate + r.walltime_credit;
        let remaining = (allowance - r.walltime_consumed).max(0.0);
        let kill_at = self.now + remaining / r.width_factor();
        r.kill_arm = self.next_gen();
        self.events.push(
            kill_at,
            Event::WalltimeKill {
                job: job_id,
                arm: r.kill_arm,
            },
        );
        self.running_view.insert(job_id, summary_of(&r, kill_at));
        self.running.insert(job_id, r);
        self.record_occupancy();
    }

    /// Finishes (or kills) a running job, releasing its nodes and
    /// re-rating the survivors.
    fn finish(&mut self, job_id: JobId, killed: bool) {
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let mut r = self.running.remove(&job_id).expect("job is running");
        self.running_view.remove(&job_id);
        r.advance_to(self.now);
        if !killed {
            debug_assert!(
                r.is_complete(),
                "{job_id} finished with {} work left",
                r.work_remaining()
            );
        }
        let alloc = {
            let _release_span = self
                .telemetry
                .map(|t| SimTelemetry::time(&t.release_seconds));
            self.cluster
                .release(job_id)
                // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                .expect("job held an allocation")
        };
        if let Some(t) = self.telemetry {
            t.completions.inc();
            if killed {
                t.walltime_kills.inc();
            }
        }
        // Re-rate every survivor that shared a node with the leaver.
        self.rerate_affected(&alloc);
        self.completed_count += 1;
        if self.config.retain_detail {
            self.records.push(JobRecord {
                id: r.spec.id,
                app: r.spec.app,
                nodes: r.spec.nodes,
                submit: r.spec.submit,
                start: r.start,
                finish: self.now,
                runtime_exclusive: r.spec.runtime_exclusive,
                walltime_estimate: r.spec.walltime_estimate,
                shared_node_seconds: r.shared_node_seconds,
                killed,
                shared_alloc: r.mode == ShareMode::Shared,
                restarts: self.attempts.get(&r.spec.id).copied().unwrap_or(0),
                salvaged_work: r.salvaged,
                user: r.spec.user,
            });
        }
        self.trace_ev(TraceEvent::Finished {
            time: self.now,
            job: job_id,
            killed,
        });
        self.record_occupancy();
    }

    /// Re-rates every distinct job still resident on the nodes a released
    /// allocation covered. First-encounter lane order matches the old
    /// per-node `occupants()` walk; the scratch buffer makes the dedup
    /// allocation-free across calls.
    fn rerate_affected(&mut self, alloc: &Allocation) {
        let mut affected = std::mem::take(&mut self.affected_buf);
        affected.clear();
        for &id in &alloc.nodes {
            for occupant in self
                .cluster
                .node(id)
                // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                .expect("node exists")
                .lane_owners()
            {
                if !affected.contains(&occupant) {
                    affected.push(occupant);
                }
            }
        }
        for &co in &affected {
            self.rerate_job(co);
        }
        self.affected_buf = affected;
    }

    /// Advances and re-rates one running job, in place, after an
    /// occupancy change on its nodes, scheduling a fresh completion event.
    fn rerate_job(&mut self, job_id: JobId) {
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let r = self.running.get_mut(&job_id).expect("job is running");
        r.advance_to(self.now);
        let view = &self.running_view;
        r.rerate_with(&self.cluster, self.truth, |co| view[&co].app);
        self.rearm_completion(job_id);
    }

    /// Supersedes a running job's armed completion with a fresh event at
    /// its current completion time, under a new generation.
    fn rearm_completion(&mut self, job_id: JobId) {
        let generation = self.next_gen();
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let r = self.running.get_mut(&job_id).expect("job is running");
        r.generation = generation;
        self.events.push(
            r.eta(self.now),
            Event::Completion {
                job: job_id,
                generation,
            },
        );
    }

    /// A node fails: every resident job is requeued (its progress lost),
    /// the node goes down, and a repair is scheduled.
    fn fail_node(&mut self, node: NodeId) {
        let Some(n) = self.cluster.node(node) else {
            panic!("failure event for unknown {node}");
        };
        if n.admin_state() == AdminState::Down {
            return; // already down (e.g. repair pending)
        }
        for victim in n.occupants() {
            self.requeue(victim, node);
        }
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        self.cluster.set_down(node).expect("node emptied above");
        self.trace_ev(TraceEvent::NodeDown {
            time: self.now,
            node,
            cause: DownCause::Failed,
        });
        let repair = self
            .config
            .failures
            .as_ref()
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            .expect("failure event implies a failure model")
            .repair_time;
        self.events.push(self.now + repair, Event::NodeRepair(node));
        self.record_occupancy();
    }

    /// Evicts a running job (its node `failed`) and puts it back in the
    /// queue (submission order preserved); all progress is lost — no
    /// checkpointing.
    fn requeue(&mut self, job_id: JobId, failed: NodeId) {
        if let Some(t) = self.telemetry {
            t.requeues.inc();
            nodeshare_obs::warn!(
                "engine",
                "job requeued by node failure";
                job = job_id,
                node = failed
            );
        }
        self.trace_ev(TraceEvent::Requeued {
            time: self.now,
            job: job_id,
            node: failed,
        });
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let mut r = self.running.remove(&job_id).expect("victim is running");
        self.running_view.remove(&job_id);
        r.advance_to(self.now); // keeps shared-time accounting exact
                                // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let alloc = self.cluster.release(job_id).expect("victim held nodes");
        self.rerate_affected(&alloc);
        *self.attempts.entry(job_id).or_insert(0) += 1;
        if let Some(interval) = self.config.checkpoint_interval {
            debug_assert!(interval > 0.0, "checkpoint interval must be positive");
            let salvaged = (r.work_done / interval).floor() * interval;
            if salvaged > 0.0 {
                self.salvage.insert(job_id, salvaged);
            }
        }
        let spec = r.spec;
        let pos = self
            .queue
            .partition_point(|j| (j.submit, j.id) <= (spec.submit, spec.id));
        self.queue.insert(pos, spec);
        self.record_depth();
        self.record_occupancy();
    }

    /// Records the occupancy series after an allocation change. Reads the
    /// cluster's O(1) occupancy counters rather than walking every node;
    /// the counters are invariant-checked against the full walk in the
    /// cluster crate's tests.
    fn record_occupancy(&mut self) {
        let (busy_cores, shared_nodes) = self.cluster.occupancy_counts();
        let cores_per_node = self.config.cluster.node.cores() as f64;
        let busy = busy_cores as f64;
        let shared = shared_nodes as f64 * cores_per_node;
        self.busy_acc.record(self.now, busy);
        self.shared_acc.record(self.now, shared);
        if self.config.retain_detail {
            self.busy_cores.record(self.now, busy);
            self.shared_cores.record(self.now, shared);
        }
        self.trace_ev(TraceEvent::Occupancy {
            time: self.now,
            busy_cores,
            shared_nodes,
        });
    }
}

/// Convenience: number of idle nodes needed to start `spec` exclusively.
pub fn nodes_needed(spec: &JobSpec) -> usize {
    spec.nodes as usize
}

/// Picks the first `k` idle nodes of a cluster (lowest ids), or `None`
/// when fewer are idle. The canonical node-selection helper shared by the
/// baseline policies.
pub fn first_idle_nodes(cluster: &Cluster, k: usize) -> Option<Vec<NodeId>> {
    let picked: Vec<NodeId> = cluster.idle_nodes().take(k).collect();
    (picked.len() == k).then_some(picked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodeshare_cluster::NodeSpec;
    use nodeshare_perf::{AppCatalog, ContentionModel};

    /// Starts the queue head exclusively whenever enough idle nodes exist.
    struct Fcfs;
    impl Scheduler for Fcfs {
        fn name(&self) -> &'static str {
            "test-fcfs"
        }
        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
            let Some(head) = ctx.queue.first() else {
                return vec![];
            };
            match first_idle_nodes(ctx.cluster, head.nodes as usize) {
                Some(nodes) => vec![Decision::StartExclusive {
                    job: head.id,
                    nodes,
                }],
                None => vec![],
            }
        }
    }

    fn spec(id: u64, submit: f64, nodes: u32, runtime: f64) -> JobSpec {
        JobSpec {
            malleable: Default::default(),
            id: JobId(id),
            app: nodeshare_perf::AppId(0),
            nodes,
            submit,
            runtime_exclusive: runtime,
            walltime_estimate: runtime * 2.0,
            mem_per_node_mib: 0,
            share_eligible: true,
            user: 0,
        }
    }

    fn matrix() -> CoRunTruth {
        CoRunTruth::build(&AppCatalog::trinity(), &ContentionModel::calibrated())
    }

    fn config(nodes: u32) -> SimConfig {
        SimConfig::new(ClusterSpec::new(nodes, NodeSpec::tiny()))
    }

    #[test]
    fn single_job_runs_at_exclusive_speed() {
        let w = Workload::new(vec![spec(0, 10.0, 2, 100.0)]).unwrap();
        let m = matrix();
        let out = run(&w, &m, &mut Fcfs, &config(4));
        assert!(out.complete());
        assert_eq!(out.records.len(), 1);
        let r = &out.records[0];
        assert_eq!(r.start, 10.0);
        assert_eq!(r.finish, 110.0);
        assert!(!r.killed);
        assert_eq!(r.shared_node_seconds, 0.0);
        // 2 nodes × 4 cores × 100 s busy.
        assert!((out.busy_core_seconds - 800.0).abs() < 1e-9);
        assert_eq!(out.shared_core_seconds, 0.0);
    }

    #[test]
    fn fcfs_serializes_conflicting_jobs() {
        let w = Workload::new(vec![spec(0, 0.0, 3, 100.0), spec(1, 1.0, 3, 100.0)]).unwrap();
        let m = matrix();
        let out = run(&w, &m, &mut Fcfs, &config(4));
        assert!(out.complete());
        let r1 = &out.records[1];
        assert_eq!(r1.start, 100.0, "second job waits for the first");
        assert_eq!(r1.finish, 200.0);
    }

    #[test]
    fn walltime_violation_kills() {
        let mut j = spec(0, 0.0, 1, 100.0);
        j.walltime_estimate = 50.0; // lies: true runtime 100
        let w = Workload::new(vec![j]).unwrap();
        let m = matrix();
        let out = run(&w, &m, &mut Fcfs, &config(4));
        let r = &out.records[0];
        assert!(r.killed);
        assert_eq!(r.finish, 50.0);
    }

    #[test]
    fn never_scheduling_leaves_jobs_unscheduled() {
        struct Never;
        impl Scheduler for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn schedule(&mut self, _: &SchedContext<'_>) -> Vec<Decision> {
                vec![]
            }
        }
        let w = Workload::new(vec![spec(0, 0.0, 1, 10.0)]).unwrap();
        let m = matrix();
        let out = run(&w, &m, &mut Never, &config(2));
        assert!(!out.complete());
        assert_eq!(out.unscheduled, vec![JobId(0)]);
        assert!(out.records.is_empty());
    }

    #[test]
    #[should_panic(expected = "not queued")]
    fn bad_decision_panics() {
        struct Bad;
        impl Scheduler for Bad {
            fn name(&self) -> &'static str {
                "bad"
            }
            fn schedule(&mut self, _: &SchedContext<'_>) -> Vec<Decision> {
                vec![Decision::StartExclusive {
                    job: JobId(99),
                    nodes: vec![NodeId(0)],
                }]
            }
        }
        let w = Workload::new(vec![spec(0, 0.0, 1, 10.0)]).unwrap();
        let m = matrix();
        run(&w, &m, &mut Bad, &config(2));
    }

    /// Shares everything pairwise: starts the head shared on the first
    /// partial node when possible, else on an idle node.
    struct GreedyShare;
    impl Scheduler for GreedyShare {
        fn name(&self) -> &'static str {
            "greedy-share"
        }
        fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
            let Some(head) = ctx.queue.first() else {
                return vec![];
            };
            let k = head.nodes as usize;
            let mut nodes: Vec<NodeId> = ctx.cluster.partial_nodes().take(k).collect();
            if nodes.len() < k {
                nodes.extend(ctx.cluster.idle_nodes().take(k - nodes.len()));
            }
            if nodes.len() == k {
                vec![Decision::StartShared {
                    job: head.id,
                    nodes,
                }]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn sharing_dilates_both_jobs_per_the_matrix() {
        let catalog = AppCatalog::trinity();
        let m = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
        let fe = catalog.by_name("miniFE").unwrap().id;
        let mut a = spec(0, 0.0, 1, 100.0);
        let mut b = spec(1, 0.0, 1, 100.0);
        a.app = fe;
        b.app = fe;
        a.walltime_estimate = 10_000.0;
        b.walltime_estimate = 10_000.0;
        let w = Workload::new(vec![a, b]).unwrap();
        let out = run(&w, &m, &mut GreedyShare, &config(1));
        assert!(out.complete());
        let rate = m.pair_matrix().rate(fe, fe);
        let expected_finish = 100.0 / rate;
        for r in &out.records {
            assert!(
                (r.finish - expected_finish).abs() < 1e-6,
                "finish {} vs expected {expected_finish}",
                r.finish
            );
            assert!((r.dilation() - 1.0 / rate).abs() < 1e-9);
            assert!(r.shared_alloc);
            // Both co-resident the whole time.
            assert!((r.shared_node_seconds - expected_finish).abs() < 1e-6);
        }
        // Busy = one node busy for the whole run.
        assert!((out.busy_core_seconds - expected_finish * 4.0).abs() < 1e-6);
        assert!((out.shared_core_seconds - expected_finish * 4.0).abs() < 1e-6);
    }

    #[test]
    fn corunner_speeds_up_after_partner_leaves() {
        // Job 0: 100 s of work; job 1: 50 s. They share one node; when job
        // 1 finishes, job 0 returns to full speed.
        let catalog = AppCatalog::trinity();
        let m = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
        let fe = catalog.by_name("miniFE").unwrap().id;
        let rate = m.pair_matrix().rate(fe, fe);
        let mut a = spec(0, 0.0, 1, 100.0);
        let mut b = spec(1, 0.0, 1, 50.0);
        a.app = fe;
        b.app = fe;
        a.walltime_estimate = 10_000.0;
        b.walltime_estimate = 10_000.0;
        let w = Workload::new(vec![a, b]).unwrap();
        let out = run(&w, &m, &mut GreedyShare, &config(1));
        let t1 = 50.0 / rate; // job 1 finishes
        let r0 = &out.records[0];
        // Job 0 did t1·rate work by t1, then the rest at rate 1.
        let expected_finish = t1 + (100.0 - t1 * rate);
        assert!(
            (r0.finish - expected_finish).abs() < 1e-6,
            "finish {} vs {expected_finish}",
            r0.finish
        );
        assert!((r0.shared_node_seconds - t1).abs() < 1e-6);
    }

    /// A source that delivers fixed chunks, each with its horizon.
    struct Scripted(VecDeque<(Vec<JobSpec>, Option<Seconds>)>);
    impl JobSource for Scripted {
        fn next_chunk(&mut self, out: &mut Vec<JobSpec>) -> Result<Option<Seconds>, SourceError> {
            let (jobs, horizon) = self.0.pop_front().unwrap_or((vec![], None));
            out.extend(jobs);
            Ok(horizon)
        }
    }

    #[test]
    fn a_source_breaking_its_contract_is_an_error_not_a_panic() {
        let mut zero_wide = spec(1, 5.0, 1, 10.0);
        zero_wide.nodes = 0;
        let cases = [
            (
                vec![(vec![spec(0, 0.0, 1, 10.0), zero_wide], None)],
                "job source delivered an invalid spec: job1: must request at least one node",
            ),
            (
                vec![(vec![spec(0, 5.0, 1, 10.0), spec(1, 4.0, 1, 10.0)], None)],
                "job source delivered job1 out of submit order",
            ),
            (
                vec![
                    (vec![spec(0, 0.0, 1, 10.0)], Some(50.0)),
                    (vec![spec(1, 20.0, 1, 10.0)], None),
                ],
                "job source broke its horizon promise at job1",
            ),
            (
                vec![
                    (vec![spec(0, 0.0, 1, 10.0)], Some(50.0)),
                    (vec![], Some(50.0)),
                ],
                "job source made no progress (no jobs, horizon stuck at 50)",
            ),
        ];
        let m = matrix();
        for (chunks, want) in cases {
            let mut source = Scripted(chunks.into());
            let err = simulate(&mut source, &m, &mut Fcfs, &config(2), Observe::default())
                .map(|_| ())
                .expect_err("a broken source contract fails the run");
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn deterministic_outcomes() {
        let catalog = AppCatalog::trinity();
        let m = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
        let spec_wl = nodeshare_workload::WorkloadSpec {
            n_jobs: 60,
            ..nodeshare_workload::WorkloadSpec::evaluation(&catalog, 5)
        };
        let w = spec_wl.generate(&catalog);
        let cfg = SimConfig::new(ClusterSpec::new(16, NodeSpec::tiny()));
        let a = run(&w, &m, &mut Fcfs, &cfg);
        let b = run(&w, &m, &mut Fcfs, &cfg);
        assert_eq!(a.records, b.records);
        assert_eq!(a.busy_core_seconds, b.busy_core_seconds);
    }
}
