//! What schedulers see and what they may decide.
//!
//! The engine owns the [`Scheduler`] trait; scheduling policies (in
//! `nodeshare-core`) implement it. The context deliberately exposes only
//! scheduler-legal information: user walltime *estimates*, never true
//! runtimes — exactly the information asymmetry a real batch system has.

use crate::progress::RunningJob;
use nodeshare_cluster::{Cluster, JobId, NodeId, ShareMode};
use nodeshare_perf::AppId;
use nodeshare_workload::{JobSpec, Malleability, Seconds};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Scheduler-visible summary of a running job.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunningSummary {
    /// The job.
    pub job: JobId,
    /// Application it runs.
    pub app: AppId,
    /// Current width: the number of nodes the job holds *now*. Equals
    /// the requested width unless a reshape changed it.
    pub nodes: u32,
    /// Width the job originally requested (and started at).
    pub requested_nodes: u32,
    /// The job's width-malleability contract ([`Malleability::RIGID`]
    /// for ordinary jobs). Policies may only issue
    /// [`Decision::Reshape`] for running exclusive jobs whose contract
    /// admits the new width.
    pub malleable: Malleability,
    /// Start time.
    pub start: Seconds,
    /// The user's walltime estimate.
    pub walltime_estimate: Seconds,
    /// Absolute time at which the job will be killed if still running.
    /// For shared-mode jobs this includes the co-allocation walltime
    /// grace (see [`crate::SimConfig::shared_walltime_grace`]).
    pub kill_at: Seconds,
    /// Whether the job opted into sharing.
    pub share_eligible: bool,
    /// Allocation mode it started with.
    pub mode: ShareMode,
}

impl RunningSummary {
    /// Latest possible end — the kill bound. Backfill reservations plan
    /// against this.
    #[inline]
    pub fn est_end(&self) -> Seconds {
        self.kill_at
    }

    fn of(r: &RunningJob, kill_at: Seconds) -> RunningSummary {
        RunningSummary {
            job: r.spec.id,
            app: r.spec.app,
            nodes: r.nodes.len() as u32,
            requested_nodes: r.spec.nodes,
            malleable: r.spec.malleable,
            start: r.start,
            walltime_estimate: r.spec.walltime_estimate,
            kill_at,
            share_eligible: r.spec.share_eligible,
            mode: r.mode,
        }
    }
}

/// Everything a policy may consult when deciding.
pub struct SchedContext<'a> {
    /// Current simulation time.
    pub now: Seconds,
    /// Waiting jobs in submission order (head = oldest).
    pub queue: &'a [JobSpec],
    /// Cluster occupancy (read-only).
    pub cluster: &'a Cluster,
    /// Running jobs, ordered by id for deterministic iteration.
    pub running: &'a BTreeMap<JobId, RunningSummary>,
    /// Walltime grace factor shared-mode jobs receive (engine
    /// configuration the policy must plan with: a job it starts shared
    /// will be killed at `start + estimate × shared_grace`).
    pub shared_grace: f64,
    /// Completed-job records so far, in completion order. Lets policies
    /// learn from history (e.g. walltime-estimate correction); append-only
    /// across invocations within one run.
    pub completed: &'a [nodeshare_metrics::JobRecord],
    /// Scheduler-side telemetry instruments, when the run collects
    /// telemetry (see [`crate::telemetry::SimTelemetry`]). Policies bump
    /// these to report decision counts, backfill scan depth, and pairing
    /// hit rates; `None` means the run is untelemetered and policies
    /// skip the bookkeeping entirely.
    pub telemetry: Option<&'a crate::telemetry::SchedTelemetry>,
}

impl SchedContext<'_> {
    /// Estimated-end summaries of the jobs resident on `node`, for
    /// co-allocation planning.
    pub fn residents(&self, node: NodeId) -> Vec<&RunningSummary> {
        self.cluster
            .node(node)
            .map(|n| {
                n.occupants()
                    .iter()
                    .filter_map(|j| self.running.get(j))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// A start decision returned by a policy. The engine validates and
/// applies it; an inapplicable decision is a policy bug and panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Start `job` exclusively on `nodes` (all lanes).
    StartExclusive {
        /// The queued job to start.
        job: JobId,
        /// Idle nodes to occupy; length must equal the job's node request.
        nodes: Vec<NodeId>,
    },
    /// Start `job` in shared mode, taking one lane on each node. Nodes may
    /// be idle or host share-eligible co-runners.
    StartShared {
        /// The queued job to start.
        job: JobId,
        /// Target nodes; length must equal the job's node request.
        nodes: Vec<NodeId>,
    },
    /// Reshape a *running* exclusive malleable job to a new node set.
    ///
    /// `nodes` is the complete post-reshape allocation: a shrink keeps a
    /// strict subset of the current nodes; a grow keeps every current
    /// node and adds idle up nodes. The new width must lie within the
    /// job's `[min_nodes, max_nodes]` contract and differ from the
    /// current width. The engine re-rates the job, charges the contract's
    /// reshape cost against its remaining work, and records a
    /// [`crate::trace::TraceEvent::Reshape`].
    Reshape {
        /// The running job to reshape.
        job: JobId,
        /// The complete new node set.
        nodes: Vec<NodeId>,
    },
}

impl Decision {
    /// The job this decision concerns.
    pub fn job(&self) -> JobId {
        match self {
            Decision::StartExclusive { job, .. }
            | Decision::StartShared { job, .. }
            | Decision::Reshape { job, .. } => *job,
        }
    }

    /// The nodes this decision uses (for a reshape, the complete new
    /// allocation).
    pub fn nodes(&self) -> &[NodeId] {
        match self {
            Decision::StartExclusive { nodes, .. }
            | Decision::StartShared { nodes, .. }
            | Decision::Reshape { nodes, .. } => nodes,
        }
    }

    /// Allocation mode of the decision. Reshapes only apply to
    /// exclusive allocations, so a [`Decision::Reshape`] is exclusive.
    pub fn mode(&self) -> ShareMode {
        match self {
            Decision::StartExclusive { .. } | Decision::Reshape { .. } => ShareMode::Exclusive,
            Decision::StartShared { .. } => ShareMode::Shared,
        }
    }

    /// True for a [`Decision::Reshape`].
    pub fn is_reshape(&self) -> bool {
        matches!(self, Decision::Reshape { .. })
    }
}

/// A scheduling policy.
///
/// The engine invokes `schedule` whenever the world may have changed (job
/// arrival, completion, kill, node state change) and re-invokes it until
/// it returns no decisions, so a policy may start one job per call or
/// many.
pub trait Scheduler {
    /// Policy name for reports (e.g. `"easy-backfill"`).
    fn name(&self) -> &'static str;

    /// Inspects the context and returns jobs to start now.
    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision>;

    /// Justifies one of this invocation's decisions for the decision
    /// trace ([`crate::trace::TraceEvent::Started`]). Called with the
    /// same context `schedule` saw, before the decision is applied. The
    /// default derives the reason from queue position and target-node
    /// occupancy; policies with first-hand intent (a pure FCFS policy, a
    /// backfiller that knows which hole it filled) may override it.
    fn explain(&self, ctx: &SchedContext<'_>, decision: &Decision) -> crate::trace::StartReason {
        crate::trace::StartReason::classify(ctx, decision)
    }

    /// Justifies a whole invocation's decisions at once, against the
    /// same pre-apply context. The engine calls this (not `explain`)
    /// when tracing, so a policy that can amortize its justification
    /// across decisions may override it. The default delegates to
    /// `explain` per decision, so overriding only `explain` keeps
    /// working; wrapper policies must forward this method to preserve
    /// their inner policy's batching.
    fn explain_all(
        &self,
        ctx: &SchedContext<'_>,
        decisions: &[Decision],
    ) -> Vec<crate::trace::StartReason> {
        decisions.iter().map(|d| self.explain(ctx, d)).collect()
    }
}

/// A boxed policy is a policy, so generic wrappers (estimate learning,
/// priority layers) compose over whatever a strategy factory built.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<Decision> {
        (**self).schedule(ctx)
    }

    fn explain(&self, ctx: &SchedContext<'_>, decision: &Decision) -> crate::trace::StartReason {
        (**self).explain(ctx, decision)
    }

    fn explain_all(
        &self,
        ctx: &SchedContext<'_>,
        decisions: &[Decision],
    ) -> Vec<crate::trace::StartReason> {
        (**self).explain_all(ctx, decisions)
    }
}

pub(crate) fn summary_of(r: &RunningJob, kill_at: Seconds) -> RunningSummary {
    RunningSummary::of(r, kill_at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_accessors() {
        let d = Decision::StartShared {
            job: JobId(4),
            nodes: vec![NodeId(1), NodeId(2)],
        };
        assert_eq!(d.job(), JobId(4));
        assert_eq!(d.nodes(), &[NodeId(1), NodeId(2)]);
        assert_eq!(d.mode(), ShareMode::Shared);
        let e = Decision::StartExclusive {
            job: JobId(5),
            nodes: vec![NodeId(0)],
        };
        assert_eq!(e.mode(), ShareMode::Exclusive);
        assert_eq!(e.job(), JobId(5));
    }

    #[test]
    fn est_end_is_the_kill_bound() {
        let s = RunningSummary {
            job: JobId(1),
            app: AppId(0),
            nodes: 2,
            requested_nodes: 2,
            malleable: Malleability::RIGID,
            start: 100.0,
            walltime_estimate: 50.0,
            kill_at: 175.0, // shared grace applied
            share_eligible: true,
            mode: ShareMode::Shared,
        };
        assert_eq!(s.est_end(), 175.0);
    }
}
