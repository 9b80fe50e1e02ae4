#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-bench
//!
//! Shared experiment harness behind the per-table/figure binaries in
//! `src/bin/` and the Criterion micro-benchmarks in `benches/`.
//!
//! Every seeded experiment follows the same recipe: build the evaluation
//! world (128 Trinity-like SMT-2 nodes, the mini-app catalog, the
//! calibrated contention truth), declare its (preset × cluster ×
//! strategy × seed) grid as a [`campaign::CampaignSpec`], run it through
//! [`campaign::run_campaign`] — cells sharded over a worker pool and
//! merged back in canonical order — and aggregate the per-seed metrics.

pub mod campaign;
pub mod orchestrator;

use nodeshare_cluster::ClusterSpec;
use nodeshare_engine::SimConfig;
use nodeshare_metrics::CampaignMetrics;
use nodeshare_perf::{AppCatalog, CoRunTruth, ContentionModel, PairMatrix};
use nodeshare_workload::{ArrivalProcess, WorkloadSpec};

/// The fixed evaluation world shared by all experiments.
pub struct World {
    /// Mini-app catalog.
    pub catalog: AppCatalog,
    /// Contention ground truth.
    pub model: ContentionModel,
    /// Precomputed ground truth (pair matrix + n-way model).
    pub matrix: CoRunTruth,
    /// Pairwise view of the truth (analysis convenience).
    pub pair: PairMatrix,
    /// 128 Trinity-like nodes.
    pub cluster: ClusterSpec,
}

impl World {
    /// Builds the canonical evaluation world.
    pub fn evaluation() -> Self {
        let catalog = AppCatalog::trinity();
        let model = ContentionModel::calibrated();
        let matrix = CoRunTruth::build(&catalog, &model);
        let pair = matrix.pair_matrix().clone();
        World {
            catalog,
            model,
            matrix,
            pair,
            cluster: ClusterSpec::evaluation(),
        }
    }

    /// Engine config for this world.
    ///
    /// Replay auditing follows the build profile (on in debug, off in
    /// release benches) unless the experiment was invoked with `--audit`
    /// or `NODESHARE_AUDIT=1`, which forces it on so a release campaign
    /// can be re-run under the full invariant check.
    pub fn config(&self) -> SimConfig {
        sim_config(self.cluster)
    }

    /// The *online* campaign: Poisson arrivals at ~90% offered load
    /// (wait-time regime).
    pub fn online_spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec::evaluation(&self.catalog, seed)
    }

    /// The *saturated* campaign used for the headline table: the same job
    /// mix arriving ~40% faster than the machine drains it, so the queue
    /// stays deep and throughput — not arrival timing — limits the
    /// makespan. This is the regime where node sharing pays.
    pub fn saturated_spec(&self, seed: u64) -> WorkloadSpec {
        let mut spec = WorkloadSpec::evaluation(&self.catalog, seed);
        spec.arrival = ArrivalProcess::Poisson { rate: 0.0080 };
        spec
    }
}

/// Engine config for `cluster`, with replay auditing forced on when
/// [`audit_requested`] (see [`World::config`]).
pub(crate) fn sim_config(cluster: ClusterSpec) -> SimConfig {
    let mut cfg = SimConfig::new(cluster);
    if audit_requested() {
        cfg.audit = true;
        announce_audit();
    }
    cfg
}

/// True when the current process was asked to audit its simulations,
/// either via a `--audit` argument or the `NODESHARE_AUDIT` environment
/// variable (any value except `0`/empty).
pub fn audit_requested() -> bool {
    if std::env::args().any(|a| a == "--audit") {
        return true;
    }
    std::env::var("NODESHARE_AUDIT").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Says once, on stderr, that the replay auditor is forced on: a silent
/// auditor is indistinguishable from a disabled one in a recorded
/// experiment log.
fn announce_audit() {
    static ANNOUNCE: std::sync::Once = std::sync::Once::new();
    ANNOUNCE.call_once(|| {
        nodeshare_obs::info!(
            "bench",
            "replay audit ON: every campaign is traced and re-verified"
        );
    });
}

/// Mean of a field across replications.
pub fn mean_of(metrics: &[CampaignMetrics], f: impl Fn(&CampaignMetrics) -> f64) -> f64 {
    if metrics.is_empty() {
        return 0.0;
    }
    // detlint: allow(D4, replications summed in fixed seed order; serial reduction is deterministic)
    metrics.iter().map(f).sum::<f64>() / metrics.len() as f64
}

/// The default replication seeds.
pub fn seeds(n: u64) -> Vec<u64> {
    (0..n).map(|i| 1_000 + i).collect()
}

/// Writes experiment output both to stdout and to `results/<name>.txt`,
/// plus CSV to `results/<name>.csv` when provided.
pub fn emit(name: &str, text: &str, csv: Option<&str>) {
    println!("{text}");
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), text);
        if let Some(csv) = csv {
            let _ = std::fs::write(dir.join(format!("{name}.csv")), csv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignSpec, CellOptions, PresetVariant};
    use crate::orchestrator::Parallelism;
    use nodeshare_core::{StrategyConfig, StrategyKind};

    #[test]
    fn mean_of_works() {
        let world = World::evaluation();
        let spec = CampaignSpec::on_evaluation_cluster(
            "unit_mean",
            vec![PresetVariant::new(
                "online",
                WorkloadSpec {
                    n_jobs: 10,
                    ..world.online_spec(0)
                },
            )],
            vec![StrategyConfig::exclusive(StrategyKind::Fcfs).into()],
            seeds(2),
        );
        let run = run_campaign(&world, &spec, Parallelism::Serial, &CellOptions::default())
            .expect("campaign completes");
        let mean = mean_of(&run.seed_metrics(0, 0, 0), |m| m.jobs as f64);
        assert_eq!(mean, 10.0);
    }
}
