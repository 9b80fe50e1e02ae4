#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare
//!
//! Node-sharing scheduling strategies for HPC batch systems — a
//! from-scratch Rust reproduction of *"Effects and Benefits of Node
//! Sharing Strategies in HPC Batch Systems"* (IPDPS 2019): co-allocation
//! of jobs onto the free hyper-thread lanes of busy nodes, driven by
//! co-allocation-aware extensions of first-fit and EASY backfill.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`cluster`] | `nodeshare-cluster` | SMT machine model, lane-granular allocation |
//! | [`perf`] | `nodeshare-perf` | mini-app profiles, SMT contention model, predictors |
//! | [`workload`] | `nodeshare-workload` | job model, synthetic campaigns, SWF traces |
//! | [`engine`] | `nodeshare-engine` | discrete-event simulation, `Scheduler` trait |
//! | [`sched`] | `nodeshare-core` | FCFS / first-fit / EASY / conservative + **CoFirstFit** / **CoBackfill** / **Adaptive** |
//! | [`slurm`] | `nodeshare-slurm` | sbatch scripts, slurm.conf, partitions, squeue/sinfo/sacct |
//! | [`metrics`] | `nodeshare-metrics` | computational & scheduling efficiency, summaries |
//! | [`report`] | `nodeshare-report` | trace analytics: lifecycle spans, Perfetto export, markdown reports |
//!
//! ## Quickstart
//!
//! ```
//! use nodeshare::prelude::*;
//!
//! let catalog = AppCatalog::trinity();
//! let model = ContentionModel::calibrated();
//! let matrix = CoRunTruth::build(&catalog, &model);
//! let workload = WorkloadSpec { n_jobs: 50, ..WorkloadSpec::evaluation(&catalog, 42) }
//!     .generate(&catalog);
//! let config = SimConfig::new(ClusterSpec::evaluation()); // 128 nodes
//!
//! // The paper's contribution vs. its baseline:
//! let pairing = Pairing::new(PairingPolicy::default_threshold(),
//!                            Predictor::class_based(&catalog, &model));
//! let co = nodeshare::engine::run(&workload, &matrix, &mut Backfill::co(pairing), &config);
//! let easy = nodeshare::engine::run(&workload, &matrix, &mut Backfill::easy(), &config);
//! assert!(co.complete() && easy.complete());
//! ```

pub use nodeshare_cluster as cluster;
pub use nodeshare_core as sched;
pub use nodeshare_engine as engine;
pub use nodeshare_metrics as metrics;
pub use nodeshare_perf as perf;
pub use nodeshare_report as report;
pub use nodeshare_slurm as slurm;
pub use nodeshare_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use nodeshare_cluster::{Cluster, ClusterSpec, JobId, Lane, NodeId, NodeSpec, ShareMode};
    pub use nodeshare_core::{
        Adaptive, Backfill, Conservative, Fcfs, FirstFit, Pairing, PairingPolicy, PredictorKind,
        StrategyConfig, StrategyKind,
    };
    pub use nodeshare_engine::{
        run, simulate, AuditSummary, Auditor, Decision, DecisionTrace, Observe, SchedContext,
        Scheduler, SimConfig, SimOutcome, StartReason, TraceEvent, Violation,
    };
    pub use nodeshare_metrics::{CampaignMetrics, JobRecord, Summary, Table};
    pub use nodeshare_perf::{
        AppCatalog, AppClass, AppId, CoRunTruth, ContentionModel, PairMatrix, PairRates, Predictor,
    };
    pub use nodeshare_slurm::{BatchSystem, JobScript, SlurmConf};
    pub use nodeshare_workload::{
        ArrivalProcess, EstimateModel, JobSpec, Malleability, Seconds, Workload, WorkloadSpec,
    };
}
