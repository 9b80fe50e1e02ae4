//! Replay auditor: re-derives cluster state from a [`DecisionTrace`] and
//! checks the run's conservation laws against the [`SimOutcome`].
//!
//! The auditor is an *independent* accountant: it never looks at the
//! engine's internal state, only at the recorded events and the final
//! outcome. Any disagreement — node-seconds that do not add up, a job
//! co-resident with an incompatible partner, a start before submission —
//! is reported as a [`Violation`] naming the job, node, and invariant
//! involved.

use crate::outcome::SimOutcome;
use crate::sim::SimConfig;
use crate::trace::{DecisionTrace, DownCause, TraceEvent};
use nodeshare_cluster::{JobId, NodeId, ShareMode};
use nodeshare_perf::{AppId, CoRunTruth};
use nodeshare_workload::{Malleability, Seconds};
use std::collections::BTreeMap;

/// One broken invariant, with enough context to act on.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Name of the violated invariant (stable, grep-able).
    pub invariant: &'static str,
    /// The job involved, when one is.
    pub job: Option<JobId>,
    /// The node involved, when one is.
    pub node: Option<NodeId>,
    /// Simulation time of the offending event (end time for whole-run
    /// accounting checks).
    pub time: Seconds,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={:.3}", self.invariant, self.time)?;
        if let Some(j) = self.job {
            write!(f, " {j}")?;
        }
        if let Some(n) = self.node {
            write!(f, " {n}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Aggregate numbers from a clean audit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AuditSummary {
    /// Events replayed.
    pub events: usize,
    /// Start decisions checked.
    pub starts: usize,
    /// Shared-mode starts among them.
    pub shared_starts: usize,
    /// Job terminations.
    pub finished: usize,
    /// Walltime kills among them.
    pub killed: usize,
    /// Failure-driven requeues.
    pub requeues: usize,
    /// Reshape events checked.
    pub reshapes: usize,
    /// Busy core-seconds re-derived by replay.
    pub busy_core_seconds: f64,
    /// Shared (doubly-occupied-node) core-seconds re-derived by replay.
    pub shared_core_seconds: f64,
}

/// Relative-plus-absolute tolerance for accumulated time integrals.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 + 1e-9 * a.abs().max(b.abs())
}

#[derive(Clone, Debug)]
struct JobInfo {
    submit: Seconds,
    app: AppId,
    nodes: u32,
    walltime_estimate: Seconds,
    share_eligible: bool,
    malleable: Malleability,
    rejected: bool,
}

#[derive(Clone, Debug)]
struct RunState {
    mode: ShareMode,
    nodes: Vec<NodeId>,
    /// Width the job requested (reshapes move `nodes` away from it).
    requested: u32,
    /// Time of the last width change (start, or latest reshape).
    last_change: Seconds,
    /// Normalized walltime consumed up to `last_change` — the integral
    /// of `width / requested` over wall time, the budget the engine's
    /// walltime enforcement runs on.
    consumed: f64,
    /// Node-seconds held up to `last_change` (∫ width dt).
    node_seconds: f64,
    /// Total reshape cost charged so far, node-seconds.
    reshape_cost: f64,
    /// Reshapes applied during this attempt.
    reshapes: u32,
}

impl RunState {
    #[inline]
    fn width_factor(&self) -> f64 {
        self.nodes.len() as f64 / self.requested.max(1) as f64
    }

    /// `consumed` extended to `t` at the current width.
    fn consumed_at(&self, t: Seconds) -> f64 {
        self.consumed + (t - self.last_change).max(0.0) * self.width_factor()
    }

    /// `node_seconds` extended to `t` at the current width.
    fn node_seconds_at(&self, t: Seconds) -> f64 {
        self.node_seconds + (t - self.last_change).max(0.0) * self.nodes.len() as f64
    }
}

/// Replays a [`DecisionTrace`] and checks it against a [`SimOutcome`].
pub struct Auditor<'a> {
    truth: &'a CoRunTruth,
    config: &'a SimConfig,
    queue_order: bool,
}

impl<'a> Auditor<'a> {
    /// An auditor for runs produced under `config` with ground truth
    /// `truth` (the same values the engine ran with).
    pub fn new(truth: &'a CoRunTruth, config: &'a SimConfig) -> Self {
        Auditor {
            truth,
            config,
            queue_order: false,
        }
    }

    /// Additionally checks backfill queue-jump justification: a start that
    /// leapfrogs the queue head is only legal when the head could not have
    /// started exclusively (fewer idle nodes than it requests). All
    /// policies in [`nodeshare_core`'s lineup] satisfy this; policies that
    /// batch out-of-order decisions in one round may not, so it is opt-in.
    pub fn with_queue_order_check(mut self) -> Self {
        self.queue_order = true;
        self
    }

    /// Replays `trace`, checking every event and the final accounting
    /// against `outcome`. Returns the re-derived totals on success, or
    /// every violation found (never just the first).
    pub fn audit(
        &self,
        trace: &DecisionTrace,
        outcome: &SimOutcome,
    ) -> Result<AuditSummary, Vec<Violation>> {
        Replay::new(self, outcome).run(trace)
    }
}

struct Replay<'a> {
    auditor: &'a Auditor<'a>,
    outcome: &'a SimOutcome,
    jobs: BTreeMap<JobId, JobInfo>,
    running: BTreeMap<JobId, RunState>,
    /// Latest termination per job (requeued jobs terminate once).
    finished: BTreeMap<JobId, (Seconds, bool)>,
    occupants: Vec<Vec<JobId>>,
    up: Vec<bool>,
    /// Per-job `(∫ width dt, Σ reshape cost)` of finished attempts that
    /// reshaped at least once, for the work-conservation record check.
    reshaped_usage: BTreeMap<JobId, (f64, f64)>,
    /// Piecewise integration state.
    last_time: Seconds,
    busy_cs: f64,
    shared_cs: f64,
    summary: AuditSummary,
    violations: Vec<Violation>,
}

impl<'a> Replay<'a> {
    fn new(auditor: &'a Auditor<'a>, outcome: &'a SimOutcome) -> Self {
        let n = auditor.config.cluster.node_count as usize;
        Replay {
            auditor,
            outcome,
            jobs: BTreeMap::new(),
            running: BTreeMap::new(),
            finished: BTreeMap::new(),
            occupants: vec![Vec::new(); n],
            up: vec![true; n],
            reshaped_usage: BTreeMap::new(),
            last_time: 0.0,
            busy_cs: 0.0,
            shared_cs: 0.0,
            summary: AuditSummary::default(),
            violations: Vec::new(),
        }
    }

    fn flag(
        &mut self,
        invariant: &'static str,
        job: Option<JobId>,
        node: Option<NodeId>,
        time: Seconds,
        detail: String,
    ) {
        self.violations.push(Violation {
            invariant,
            job,
            node,
            time,
            detail,
        });
    }

    fn cores_per_node(&self) -> f64 {
        self.auditor.config.cluster.node.cores() as f64
    }

    fn occupied_and_shared(&self) -> (usize, usize) {
        let occupied = self.occupants.iter().filter(|o| !o.is_empty()).count();
        let shared = self.occupants.iter().filter(|o| o.len() >= 2).count();
        (occupied, shared)
    }

    /// Integrates the occupancy step function up to `t`.
    fn advance(&mut self, t: Seconds) {
        if t > self.last_time {
            let (occupied, shared) = self.occupied_and_shared();
            let cores = self.cores_per_node();
            self.busy_cs += (t - self.last_time) * occupied as f64 * cores;
            self.shared_cs += (t - self.last_time) * shared as f64 * cores;
            self.last_time = t;
        }
    }

    fn run(mut self, trace: &DecisionTrace) -> Result<AuditSummary, Vec<Violation>> {
        self.summary.events = trace.len();
        for event in trace.events() {
            self.advance(event.time());
            self.step(event);
        }
        self.advance(self.outcome.end_time);
        self.check_accounting();
        self.check_termination();
        self.check_records();
        if self.violations.is_empty() {
            self.summary.busy_core_seconds = self.busy_cs;
            self.summary.shared_core_seconds = self.shared_cs;
            Ok(self.summary)
        } else {
            Err(self.violations)
        }
    }

    fn step(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::Submitted {
                time,
                job,
                app,
                nodes,
                walltime_estimate,
                share_eligible,
                malleable,
            } => {
                if self.jobs.contains_key(job) {
                    self.flag(
                        "unique-submission",
                        Some(*job),
                        None,
                        *time,
                        "submitted twice".into(),
                    );
                }
                self.jobs.insert(
                    *job,
                    JobInfo {
                        submit: *time,
                        app: *app,
                        nodes: *nodes,
                        walltime_estimate: *walltime_estimate,
                        share_eligible: *share_eligible,
                        malleable: *malleable,
                        rejected: false,
                    },
                );
            }
            TraceEvent::Rejected { time, job } => match self.jobs.get_mut(job) {
                Some(info) => info.rejected = true,
                None => self.flag(
                    "rejection-of-known-job",
                    Some(*job),
                    None,
                    *time,
                    "rejected a job that was never submitted".into(),
                ),
            },
            TraceEvent::Started {
                time,
                job,
                mode,
                nodes,
                idle_before,
                head_waiting,
                partners,
                ..
            } => self.step_started(
                *time,
                *job,
                *mode,
                nodes,
                *idle_before,
                head_waiting,
                partners,
            ),
            TraceEvent::Finished { time, job, killed } => self.step_finished(*time, *job, *killed),
            TraceEvent::Reshape {
                time,
                job,
                from,
                to,
                cost,
            } => self.step_reshape(*time, *job, from, to, *cost),
            TraceEvent::Requeued { time, job, node } => {
                self.summary.requeues += 1;
                match self.running.remove(job) {
                    Some(run) => {
                        if !run.nodes.contains(node) {
                            self.flag(
                                "requeue-from-resident-node",
                                Some(*job),
                                Some(*node),
                                *time,
                                format!("requeued off {node} but ran on {:?}", run.nodes),
                            );
                        }
                        for &n in &run.nodes {
                            self.occupants[n.index()].retain(|&j| j != *job);
                        }
                    }
                    None => self.flag(
                        "requeue-of-running-job",
                        Some(*job),
                        Some(*node),
                        *time,
                        "requeued while not running".into(),
                    ),
                }
            }
            TraceEvent::NodeDown { time, node, cause } => {
                if node.index() >= self.up.len() {
                    self.flag(
                        "known-node",
                        None,
                        Some(*node),
                        *time,
                        "down event for a node outside the cluster".into(),
                    );
                    return;
                }
                if *cause == DownCause::Failed && !self.occupants[node.index()].is_empty() {
                    self.flag(
                        "failed-node-emptied",
                        self.occupants[node.index()].first().copied(),
                        Some(*node),
                        *time,
                        "node failed with resident jobs not requeued".into(),
                    );
                }
                self.up[node.index()] = false;
            }
            TraceEvent::NodeUp { time, node } => {
                if node.index() >= self.up.len() {
                    self.flag(
                        "known-node",
                        None,
                        Some(*node),
                        *time,
                        "up event for a node outside the cluster".into(),
                    );
                    return;
                }
                self.up[node.index()] = true;
            }
            TraceEvent::Occupancy {
                time,
                busy_cores,
                shared_nodes,
            } => {
                let (occupied, shared) = self.occupied_and_shared();
                let replayed_busy = occupied as u64 * self.cores_per_node() as u64;
                if replayed_busy != *busy_cores {
                    self.flag(
                        "occupancy-busy-cores",
                        None,
                        None,
                        *time,
                        format!(
                            "engine reports {busy_cores} busy cores, replay says {replayed_busy}"
                        ),
                    );
                }
                if shared != *shared_nodes {
                    self.flag(
                        "occupancy-shared-nodes",
                        None,
                        None,
                        *time,
                        format!("engine reports {shared_nodes} shared nodes, replay says {shared}"),
                    );
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn step_started(
        &mut self,
        time: Seconds,
        job: JobId,
        mode: ShareMode,
        nodes: &[NodeId],
        idle_before: usize,
        head_waiting: &Option<(JobId, u32)>,
        partners: &[(NodeId, JobId)],
    ) {
        self.summary.starts += 1;
        if mode == ShareMode::Shared {
            self.summary.shared_starts += 1;
        }
        let Some(info) = self.jobs.get(&job).cloned() else {
            self.flag(
                "start-of-submitted-job",
                Some(job),
                None,
                time,
                "started a job that was never submitted".into(),
            );
            return;
        };
        if info.rejected {
            self.flag(
                "no-start-after-rejection",
                Some(job),
                None,
                time,
                "started a job the system rejected at submission".into(),
            );
        }
        if time + 1e-9 < info.submit {
            self.flag(
                "no-start-before-submit",
                Some(job),
                None,
                time,
                format!("started at {time} but submitted at {}", info.submit),
            );
        }
        if self.running.contains_key(&job) {
            self.flag(
                "single-residency",
                Some(job),
                None,
                time,
                "started while already running".into(),
            );
        }
        if nodes.len() != info.nodes as usize {
            self.flag(
                "node-count-matches-request",
                Some(job),
                None,
                time,
                format!("granted {} nodes, requested {}", nodes.len(), info.nodes),
            );
        }
        if mode == ShareMode::Shared && !info.share_eligible {
            self.flag(
                "share-eligibility",
                Some(job),
                None,
                time,
                "co-allocated a job that did not opt into sharing".into(),
            );
        }
        // Per-node placement legality and compatibility.
        let smt = self.auditor.config.cluster.node.smt as usize;
        let mut replay_partners: Vec<(NodeId, JobId)> = Vec::new();
        for &n in nodes {
            if n.index() >= self.occupants.len() {
                self.flag(
                    "known-node",
                    Some(job),
                    Some(n),
                    time,
                    "start on a node outside the cluster".into(),
                );
                continue;
            }
            if !self.up[n.index()] {
                self.flag(
                    "start-on-up-node",
                    Some(job),
                    Some(n),
                    time,
                    "start on a down/drained node".into(),
                );
            }
            let residents = self.occupants[n.index()].clone();
            match mode {
                ShareMode::Exclusive if !residents.is_empty() => {
                    self.flag(
                        "exclusive-means-alone",
                        Some(job),
                        Some(n),
                        time,
                        format!("exclusive start on a node hosting {residents:?}"),
                    );
                }
                ShareMode::Exclusive => {}
                ShareMode::Shared => {
                    if residents.len() + 1 > smt {
                        self.flag(
                            "smt-capacity",
                            Some(job),
                            Some(n),
                            time,
                            format!(
                                "{} co-residents exceed the node's {smt} lanes",
                                residents.len() + 1
                            ),
                        );
                    }
                    for &other in &residents {
                        replay_partners.push((n, other));
                        let Some(oinfo) = self.jobs.get(&other).cloned() else {
                            continue;
                        };
                        if !oinfo.share_eligible {
                            self.flag(
                                "share-eligibility",
                                Some(other),
                                Some(n),
                                time,
                                format!("{job} placed next to non-sharing {other}"),
                            );
                        }
                        if self
                            .running
                            .get(&other)
                            .is_some_and(|r| r.mode != ShareMode::Shared)
                        {
                            self.flag(
                                "exclusive-means-alone",
                                Some(other),
                                Some(n),
                                time,
                                format!("{job} placed next to exclusively-running {other}"),
                            );
                        }
                        let rate = self.auditor.truth.pair_matrix().rate(info.app, oinfo.app);
                        let back = self.auditor.truth.pair_matrix().rate(oinfo.app, info.app);
                        if !(rate.is_finite() && rate > 0.0 && back.is_finite() && back > 0.0) {
                            self.flag(
                                "compatible-pairing",
                                Some(job),
                                Some(n),
                                time,
                                format!(
                                    "pair ({:?}, {:?}) has no positive finite co-run rate",
                                    info.app, oinfo.app
                                ),
                            );
                        }
                    }
                }
            }
        }
        // The engine's recorded partner list must match the replay's view.
        let mut recorded = partners.to_vec();
        let mut derived = replay_partners;
        recorded.sort();
        derived.sort();
        if recorded != derived {
            self.flag(
                "partner-list-faithful",
                Some(job),
                recorded.first().or(derived.first()).map(|(n, _)| *n),
                time,
                format!("trace says partners {recorded:?}, replay says {derived:?}"),
            );
        }
        // Backfill justification (opt-in): leapfrogging the head is only
        // legal when the head could not have started on the idle nodes.
        if self.auditor.queue_order {
            if let Some((head, head_nodes)) = head_waiting {
                if idle_before >= *head_nodes as usize {
                    self.flag(
                        "queue-order",
                        Some(job),
                        None,
                        time,
                        format!(
                            "jumped waiting head {head} although {idle_before} idle nodes \
                             could have started its {head_nodes}-node request"
                        ),
                    );
                }
            }
        }
        for &n in nodes {
            if n.index() < self.occupants.len() {
                self.occupants[n.index()].push(job);
            }
        }
        self.running.insert(
            job,
            RunState {
                mode,
                nodes: nodes.to_vec(),
                requested: info.nodes,
                last_change: time,
                consumed: 0.0,
                node_seconds: 0.0,
                reshape_cost: 0.0,
                reshapes: 0,
            },
        );
    }

    /// Replays one reshape: checks the contract, the node-set algebra,
    /// the target nodes, and rolls the width-dependent accounting
    /// forward.
    fn step_reshape(
        &mut self,
        time: Seconds,
        job: JobId,
        from: &[NodeId],
        to: &[NodeId],
        cost: f64,
    ) {
        self.summary.reshapes += 1;
        let Some(run) = self.running.get(&job).cloned() else {
            self.flag(
                "reshape-of-running-job",
                Some(job),
                to.first().copied(),
                time,
                "reshaped while not running".into(),
            );
            return;
        };
        let info = self.jobs.get(&job).cloned();
        if let Some(info) = &info {
            if info.malleable.is_rigid() {
                self.flag(
                    "no-reshape-of-rigid-job",
                    Some(job),
                    to.first().copied(),
                    time,
                    "reshaped a job with a rigid contract".into(),
                );
            } else if !info.malleable.admits(to.len() as u32) {
                self.flag(
                    "reshape-width-in-range",
                    Some(job),
                    to.first().copied(),
                    time,
                    format!(
                        "reshaped to width {} outside the contract's [{}, {}]",
                        to.len(),
                        info.malleable.min_nodes,
                        info.malleable.max_nodes
                    ),
                );
            }
            if !close(cost, f64::from(info.malleable.reshape_cost)) {
                self.flag(
                    "reshape-cost-matches-contract",
                    Some(job),
                    None,
                    time,
                    format!(
                        "trace charges {cost} node-seconds, contract says {}",
                        info.malleable.reshape_cost
                    ),
                );
            }
        }
        if run.mode != ShareMode::Exclusive {
            self.flag(
                "reshape-of-exclusive-job",
                Some(job),
                to.first().copied(),
                time,
                "reshaped a shared-mode allocation".into(),
            );
        }
        if from != run.nodes.as_slice() {
            self.flag(
                "reshape-from-set-faithful",
                Some(job),
                from.first().copied(),
                time,
                format!("trace says from {from:?}, replay says {:?}", run.nodes),
            );
        }
        if to.len() == run.nodes.len() {
            self.flag(
                "reshape-changes-width",
                Some(job),
                to.first().copied(),
                time,
                format!("reshape kept width {}", to.len()),
            );
        } else if to.len() < run.nodes.len() {
            for n in to {
                if !run.nodes.contains(n) {
                    self.flag(
                        "reshape-keeps-held-nodes",
                        Some(job),
                        Some(*n),
                        time,
                        format!("shrink kept {n} which the job did not hold"),
                    );
                }
            }
        } else {
            for n in &run.nodes {
                if !to.contains(n) {
                    self.flag(
                        "reshape-keeps-held-nodes",
                        Some(job),
                        Some(*n),
                        time,
                        format!("grow dropped held node {n}"),
                    );
                }
            }
        }
        // Added nodes must be idle and up; dropped nodes lose the job.
        for &n in to {
            if n.index() >= self.occupants.len() {
                self.flag(
                    "known-node",
                    Some(job),
                    Some(n),
                    time,
                    "reshape onto a node outside the cluster".into(),
                );
                continue;
            }
            if run.nodes.contains(&n) {
                continue;
            }
            if !self.up[n.index()] {
                self.flag(
                    "grow-on-idle-up-nodes",
                    Some(job),
                    Some(n),
                    time,
                    "grew onto a down/drained node".into(),
                );
            }
            if !self.occupants[n.index()].is_empty() {
                self.flag(
                    "grow-on-idle-up-nodes",
                    Some(job),
                    Some(n),
                    time,
                    format!("grew onto {n} hosting {:?}", self.occupants[n.index()]),
                );
            }
        }
        for &n in &run.nodes {
            if n.index() < self.occupants.len() {
                self.occupants[n.index()].retain(|&j| j != job);
            }
        }
        for &n in to {
            if n.index() < self.occupants.len() {
                self.occupants[n.index()].push(job);
            }
        }
        // detlint: allow(D5, the entry was cloned from the map above)
        let run = self.running.get_mut(&job).expect("checked above");
        run.consumed = run.consumed_at(time);
        run.node_seconds = run.node_seconds_at(time);
        run.last_change = time;
        run.nodes = to.to_vec();
        run.reshape_cost += cost;
        run.reshapes += 1;
    }

    fn step_finished(&mut self, time: Seconds, job: JobId, killed: bool) {
        self.summary.finished += 1;
        if killed {
            self.summary.killed += 1;
        }
        let Some(run) = self.running.remove(&job) else {
            self.flag(
                "finish-of-running-job",
                Some(job),
                None,
                time,
                "finished while not running".into(),
            );
            return;
        };
        for &n in &run.nodes {
            if n.index() < self.occupants.len() {
                self.occupants[n.index()].retain(|&j| j != job);
            }
        }
        if let Some(info) = self.jobs.get(&job) {
            let grace = match run.mode {
                ShareMode::Shared => self.auditor.config.shared_walltime_grace.max(1.0),
                ShareMode::Exclusive => 1.0,
            };
            // The budget is normalized: a reshaped job consumes it in
            // proportion to its current width over its requested
            // width. For never-reshaped jobs this is exactly the
            // elapsed wall time. Reshape charges are system-initiated,
            // so each extends the bound by `cost / requested` — the
            // engine must never kill a job over work it imposed.
            let bound =
                info.walltime_estimate * grace + run.reshape_cost / f64::from(info.nodes.max(1));
            let ran = run.consumed_at(time);
            if ran > bound + 1e-6 {
                self.flag(
                    "walltime-enforced",
                    Some(job),
                    run.nodes.first().copied(),
                    time,
                    format!(
                        "consumed {ran:.3}s of normalized walltime, past its \
                         enforced bound of {bound:.3}s"
                    ),
                );
            }
        }
        if run.reshapes > 0 {
            self.reshaped_usage
                .insert(job, (run.node_seconds_at(time), run.reshape_cost));
        }
        self.finished.insert(job, (time, killed));
    }

    fn check_accounting(&mut self) {
        let end = self.outcome.end_time;
        if !close(self.busy_cs, self.outcome.busy_core_seconds) {
            self.flag(
                "node-second-conservation",
                None,
                None,
                end,
                format!(
                    "outcome accounts {} busy core-seconds, replay derives {}",
                    self.outcome.busy_core_seconds, self.busy_cs
                ),
            );
        }
        if !close(self.shared_cs, self.outcome.shared_core_seconds) {
            self.flag(
                "shared-second-conservation",
                None,
                None,
                end,
                format!(
                    "outcome accounts {} shared core-seconds, replay derives {}",
                    self.outcome.shared_core_seconds, self.shared_cs
                ),
            );
        }
    }

    fn check_termination(&mut self) {
        let end = self.outcome.end_time;
        for (&job, _) in self.running.iter() {
            self.violations.push(Violation {
                invariant: "no-job-left-running",
                job: Some(job),
                node: None,
                time: end,
                detail: "still running when the event queue drained".into(),
            });
        }
        let all_terminated = self
            .jobs
            .iter()
            .all(|(id, info)| info.rejected || self.finished.contains_key(id));
        if self.outcome.complete() && !all_terminated {
            let missing: Vec<JobId> = self
                .jobs
                .iter()
                .filter(|(id, info)| !info.rejected && !self.finished.contains_key(id))
                .map(|(id, _)| *id)
                .collect();
            self.flag(
                "complete-means-all-terminated",
                missing.first().copied(),
                None,
                end,
                format!("outcome claims completion but {missing:?} never terminated"),
            );
        }
        if !self.outcome.complete() && all_terminated && self.running.is_empty() {
            self.flag(
                "complete-means-all-terminated",
                self.outcome.unscheduled.first().copied(),
                None,
                end,
                format!(
                    "every submitted job terminated yet outcome lists {:?} unscheduled",
                    self.outcome.unscheduled
                ),
            );
        }
        for &job in &self.outcome.rejected {
            if self.jobs.get(&job).is_none_or(|info| !info.rejected) {
                self.flag(
                    "rejection-list-faithful",
                    Some(job),
                    None,
                    end,
                    "outcome lists a rejection the trace never recorded".into(),
                );
            }
        }
    }

    fn check_records(&mut self) {
        let end = self.outcome.end_time;
        for r in &self.outcome.records {
            match self.finished.get(&r.id) {
                None => self.flag(
                    "record-has-trace-finish",
                    Some(r.id),
                    None,
                    end,
                    "outcome has a record for a job the trace never finished".into(),
                ),
                Some(&(t, killed)) => {
                    if !close(t, r.finish) {
                        self.flag(
                            "record-times-faithful",
                            Some(r.id),
                            None,
                            end,
                            format!("record finish {} vs traced finish {t}", r.finish),
                        );
                    }
                    if killed != r.killed {
                        self.flag(
                            "record-kill-flag-faithful",
                            Some(r.id),
                            None,
                            end,
                            format!("record killed={} vs traced killed={killed}", r.killed),
                        );
                    }
                    if r.start + 1e-9 < r.submit {
                        self.flag(
                            "no-start-before-submit",
                            Some(r.id),
                            None,
                            end,
                            format!("record start {} precedes submit {}", r.start, r.submit),
                        );
                    }
                    // Work conservation across reshapes: a clean (not
                    // killed, never restarted, unsalvaged) exclusive job
                    // that reshaped must have held exactly its work plus
                    // every reshape charge in node-seconds —
                    // ∫ width dt = requested × runtime + Σ costs.
                    if let Some(&(held, cost)) = self.reshaped_usage.get(&r.id) {
                        let owed = f64::from(r.nodes) * r.runtime_exclusive + cost;
                        if !r.killed
                            && r.restarts == 0
                            && r.salvaged_work == 0.0
                            && !close(held, owed)
                        {
                            self.flag(
                                "reshape-work-conservation",
                                Some(r.id),
                                None,
                                end,
                                format!(
                                    "held {held:.6} node-seconds but owed {owed:.6} \
                                     ({} nodes × {:.6}s work + {cost:.6} reshape cost)",
                                    r.nodes, r.runtime_exclusive
                                ),
                            );
                        }
                    }
                }
            }
        }
        let recorded = self.outcome.records.len();
        let traced = self.finished.len();
        if recorded != traced {
            self.flag(
                "record-finish-bijection",
                None,
                None,
                end,
                format!("{recorded} outcome records vs {traced} traced terminations"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_names_everything() {
        let v = Violation {
            invariant: "node-second-conservation",
            job: Some(JobId(7)),
            node: Some(NodeId(3)),
            time: 123.456,
            detail: "off by 42".into(),
        };
        let s = v.to_string();
        assert!(s.contains("node-second-conservation"));
        assert!(s.contains("job7"));
        assert!(s.contains("n0003"));
        assert!(s.contains("off by 42"));
        assert!(s.contains("123.456"));
    }

    #[test]
    fn tolerance_is_relative_and_absolute() {
        assert!(close(0.0, 0.0));
        assert!(close(1e9, 1e9 + 0.5));
        assert!(!close(100.0, 101.0));
    }
}
