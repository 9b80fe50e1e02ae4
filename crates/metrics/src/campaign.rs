//! Campaign-level metrics: the quantities the paper's tables report.
//!
//! Definitions (see DESIGN.md §1):
//!
//! * **computational efficiency** `E_comp = Σ work_done / Σ busy core-seconds`
//!   — useful exclusive-equivalent work per consumed machine time. Exclusive
//!   scheduling yields ≤ 1.0; co-allocation pushes it above 1.0 when paired
//!   jobs' combined throughput beats one exclusive job.
//! * **scheduling efficiency** `E_sched = Σ work_done / (makespan × cores)`
//!   — effective utilization of the whole machine over the campaign.
//!
//! The paper reports both as *gains relative to the standard-allocation
//! baseline* (+19% and +25.2%); [`crate::stats::relative_gain`] computes
//! that comparison.

use crate::record::JobRecord;
use crate::stats::Summary;
use nodeshare_cluster::ClusterSpec;
use nodeshare_workload::Seconds;
use serde::{Deserialize, Serialize};

/// Aggregated results of one simulated campaign.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CampaignMetrics {
    /// Finished jobs.
    pub jobs: usize,
    /// Jobs killed at their walltime limit.
    pub killed: usize,
    /// Total node-failure requeues across the campaign.
    pub total_restarts: u64,
    /// Campaign makespan: last finish − first submit.
    pub makespan: Seconds,
    /// Total useful work delivered, exclusive core-seconds.
    pub work_core_seconds: f64,
    /// Core-seconds during which nodes were occupied (integrated by the
    /// engine).
    pub busy_core_seconds: f64,
    /// Core-seconds during which occupied nodes hosted two jobs.
    pub shared_core_seconds: f64,
    /// `work / busy` — see module docs.
    pub computational_efficiency: f64,
    /// `work / (makespan × total cores)` — see module docs.
    pub scheduling_efficiency: f64,
    /// Mean core utilization over the makespan (`busy / (makespan × cores)`).
    pub utilization: f64,
    /// Queue-wait summary, seconds.
    pub wait: Summary,
    /// Bounded-slowdown summary.
    pub bounded_slowdown: Summary,
    /// Runtime-dilation summary (1.0 = exclusive speed).
    pub dilation: Summary,
    /// Mean response (turnaround) time, seconds.
    pub mean_response: Seconds,
    /// Fraction of busy node time spent in shared occupancy.
    pub shared_fraction: f64,
}

impl CampaignMetrics {
    /// Computes campaign metrics from job records plus the engine's
    /// integrated occupancy.
    ///
    /// `busy_core_seconds` / `shared_core_seconds` come from the engine's
    /// time integration; they cannot be reconstructed from records alone
    /// once allocations overlap.
    pub fn compute(
        records: &[JobRecord],
        spec: &ClusterSpec,
        busy_core_seconds: f64,
        shared_core_seconds: f64,
    ) -> CampaignMetrics {
        let jobs = records.len();
        let killed = records.iter().filter(|r| r.killed).count();
        let total_restarts = records.iter().map(|r| r.restarts as u64).sum();
        let first_submit = records
            .iter()
            .map(|r| r.submit)
            // detlint: allow(D4, min fold is order-insensitive)
            .fold(f64::INFINITY, f64::min);
        // detlint: allow(D4, max fold is order-insensitive)
        let last_finish = records.iter().map(|r| r.finish).fold(0.0, f64::max);
        let makespan = if jobs == 0 {
            0.0
        } else {
            last_finish - first_submit
        };
        let cores_per_node = spec.node.cores() as f64;
        let work_core_seconds: f64 = records
            .iter()
            .map(|r| r.work_done_node_seconds() * cores_per_node)
            // detlint: allow(D4, the engine emits records sorted by job id; serial sum is deterministic)
            .sum();
        let total_core_time = makespan * spec.total_cores() as f64;

        let waits: Vec<f64> = records.iter().map(JobRecord::wait).collect();
        let slowdowns: Vec<f64> = records.iter().map(JobRecord::bounded_slowdown).collect();
        let dilations: Vec<f64> = records
            .iter()
            .filter(|r| !r.killed)
            .map(JobRecord::dilation)
            .collect();
        let mean_response = if jobs == 0 {
            0.0
        } else {
            // detlint: allow(D4, records are in canonical job order; serial sum is deterministic)
            records.iter().map(JobRecord::response).sum::<f64>() / jobs as f64
        };

        CampaignMetrics {
            jobs,
            killed,
            total_restarts,
            makespan,
            work_core_seconds,
            busy_core_seconds,
            shared_core_seconds,
            computational_efficiency: if busy_core_seconds > 0.0 {
                work_core_seconds / busy_core_seconds
            } else {
                0.0
            },
            scheduling_efficiency: if total_core_time > 0.0 {
                work_core_seconds / total_core_time
            } else {
                0.0
            },
            utilization: if total_core_time > 0.0 {
                busy_core_seconds / total_core_time
            } else {
                0.0
            },
            wait: Summary::of(&waits),
            bounded_slowdown: Summary::of(&slowdowns),
            dilation: Summary::of(&dilations),
            mean_response,
            shared_fraction: if busy_core_seconds > 0.0 {
                shared_core_seconds / busy_core_seconds
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodeshare_cluster::JobId;
    use nodeshare_perf::AppId;

    fn rec(id: u64, submit: f64, start: f64, finish: f64, nodes: u32, excl: f64) -> JobRecord {
        JobRecord {
            id: JobId(id),
            app: AppId(0),
            nodes,
            submit,
            start,
            finish,
            runtime_exclusive: excl,
            walltime_estimate: excl * 2.0,
            shared_node_seconds: 0.0,
            killed: false,
            shared_alloc: false,
            restarts: 0,
            salvaged_work: 0.0,
            user: 0,
        }
    }

    fn spec() -> ClusterSpec {
        ClusterSpec::test_small() // 4 nodes × 4 cores
    }

    #[test]
    fn exclusive_campaign_has_unit_computational_efficiency() {
        // Two jobs, each 1 node × 100 s of work, run back to back at
        // exclusive speed: busy = work.
        let records = vec![
            rec(1, 0.0, 0.0, 100.0, 1, 100.0),
            rec(2, 0.0, 100.0, 200.0, 1, 100.0),
        ];
        let busy = 2.0 * 100.0 * 4.0; // node-runs × cores
        let m = CampaignMetrics::compute(&records, &spec(), busy, 0.0);
        assert!((m.computational_efficiency - 1.0).abs() < 1e-12);
        assert_eq!(m.makespan, 200.0);
        // 800 work core-seconds over 200 s × 16 cores.
        assert!((m.scheduling_efficiency - 0.25).abs() < 1e-12);
        assert!((m.utilization - 0.25).abs() < 1e-12);
        assert_eq!(m.jobs, 2);
        assert_eq!(m.killed, 0);
        assert_eq!(m.wait.max, 100.0);
    }

    #[test]
    fn sharing_raises_computational_efficiency() {
        // Two jobs co-resident on one node for 125 s each (dilation 1.25):
        // work = 2 × 100 node-s, busy = 125 node-s (the node is busy once).
        let records = vec![
            rec(1, 0.0, 0.0, 125.0, 1, 100.0),
            rec(2, 0.0, 0.0, 125.0, 1, 100.0),
        ];
        let busy = 125.0 * 4.0;
        let m = CampaignMetrics::compute(&records, &spec(), busy, busy);
        assert!((m.computational_efficiency - 1.6).abs() < 1e-12);
        assert_eq!(m.shared_fraction, 1.0);
        assert!((m.dilation.mean - 1.25).abs() < 1e-12);
    }

    #[test]
    fn killed_jobs_count_as_waste() {
        let mut r = rec(1, 0.0, 0.0, 100.0, 2, 500.0);
        r.killed = true;
        let m = CampaignMetrics::compute(&[r], &spec(), 800.0, 0.0);
        assert_eq!(m.work_core_seconds, 0.0);
        assert_eq!(m.computational_efficiency, 0.0);
        assert_eq!(m.killed, 1);
        // Killed jobs are excluded from dilation stats.
        assert_eq!(m.dilation.n, 0);
    }

    #[test]
    fn empty_campaign_is_all_zero() {
        let m = CampaignMetrics::compute(&[], &spec(), 0.0, 0.0);
        assert_eq!(m.jobs, 0);
        assert_eq!(m.makespan, 0.0);
        assert_eq!(m.scheduling_efficiency, 0.0);
        assert_eq!(m.utilization, 0.0);
    }

    #[test]
    fn makespan_spans_submit_to_finish() {
        let records = vec![rec(1, 50.0, 60.0, 160.0, 1, 100.0)];
        let m = CampaignMetrics::compute(&records, &spec(), 400.0, 0.0);
        assert_eq!(m.makespan, 110.0);
        assert_eq!(m.mean_response, 110.0);
    }
}
