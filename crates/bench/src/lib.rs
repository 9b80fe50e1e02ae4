#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-bench
//!
//! Shared experiment harness behind the per-table/figure binaries in
//! `src/bin/` and the Criterion micro-benchmarks in `benches/`.
//!
//! Every experiment follows the same recipe: build the evaluation world
//! (128 Trinity-like SMT-2 nodes, the mini-app catalog, the calibrated
//! contention truth), generate seeded workloads, run each strategy, and
//! aggregate campaign metrics across replications (in parallel with
//! Rayon — replications are independent).

pub mod campaign;
pub mod orchestrator;

use nodeshare_cluster::ClusterSpec;
use nodeshare_core::StrategyConfig;
use nodeshare_engine::{
    simulate, DecisionTrace, Observe, Scheduler, SimConfig, SimOutcome, SimTelemetry,
};
use nodeshare_metrics::CampaignMetrics;
use nodeshare_perf::{AppCatalog, CoRunTruth, ContentionModel, PairMatrix};
use nodeshare_workload::{ArrivalProcess, Workload, WorkloadSpec};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

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
        let mut cfg = SimConfig::new(self.cluster);
        if audit_requested() {
            cfg.audit = true;
            announce_audit();
        }
        cfg
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

    /// Runs `workload` under a strategy and returns outcome + metrics.
    ///
    /// When `NODESHARE_TELEMETRY` names a directory, the campaign runs
    /// under the telemetry layer and its JSONL sample stream plus
    /// Prometheus exposition are written there, one file pair per
    /// campaign (see [`telemetry_dir`]).
    pub fn run_strategy(
        &self,
        workload: &Workload,
        cfg: &StrategyConfig,
    ) -> (SimOutcome, CampaignMetrics) {
        let mut sched = cfg.build(&self.catalog, &self.model);
        let telemetry =
            telemetry_dir().map(|dir| (dir, SimTelemetry::new(telemetry_sample_interval())));
        let observe = Observe {
            trace: false,
            telemetry: telemetry.as_ref().map(|(_, t)| t),
        };
        let (out, _) = simulate_workload(
            workload,
            &self.matrix,
            sched.as_mut(),
            &self.config(),
            observe,
        );
        if let Some((dir, telemetry)) = &telemetry {
            write_campaign_telemetry(dir, cfg.label(), telemetry);
        }
        assert!(
            out.complete(),
            "{}: {} jobs never scheduled",
            cfg.label(),
            out.unscheduled.len()
        );
        let m = out.metrics(&self.cluster);
        (out, m)
    }

    /// Runs a strategy over `seeds.len()` independent replications in
    /// parallel and returns per-seed metrics.
    pub fn replicate(
        &self,
        cfg: &StrategyConfig,
        seeds: &[u64],
        spec_of: impl Fn(u64) -> WorkloadSpec + Sync,
    ) -> Vec<CampaignMetrics> {
        seeds
            .par_iter()
            .map(|&seed| {
                let workload = spec_of(seed).generate(&self.catalog);
                self.run_strategy(&workload, cfg).1
            })
            .collect()
    }
}

/// Jobs per chunk when an in-memory workload is streamed into the
/// engine: the chunking `nodeshare_engine::run` uses, so the event-queue
/// gauge in telemetry samples (which follows the chunking) matches it.
const CHUNK_JOBS: usize = 8192;

/// [`simulate`] over an in-memory workload, which cannot fail to deliver.
pub(crate) fn simulate_workload(
    workload: &Workload,
    truth: &CoRunTruth,
    scheduler: &mut dyn Scheduler,
    config: &SimConfig,
    observe: Observe<'_>,
) -> (SimOutcome, Option<DecisionTrace>) {
    simulate(
        &mut workload.source(CHUNK_JOBS),
        truth,
        scheduler,
        config,
        observe,
    )
    .unwrap_or_else(|e| panic!("in-memory workload source failed: {e}"))
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
pub(crate) fn announce_audit() {
    static ANNOUNCE: std::sync::Once = std::sync::Once::new();
    ANNOUNCE.call_once(|| {
        nodeshare_obs::info!(
            "bench",
            "replay audit ON: every campaign is traced and re-verified"
        );
    });
}

/// The directory campaigns dump telemetry into, from the
/// `NODESHARE_TELEMETRY` environment variable (`0`/empty disables).
pub fn telemetry_dir() -> Option<std::path::PathBuf> {
    match std::env::var("NODESHARE_TELEMETRY") {
        Ok(dir) if !dir.is_empty() && dir != "0" => Some(std::path::PathBuf::from(dir)),
        _ => None,
    }
}

/// Telemetry sampling period in simulated seconds:
/// `NODESHARE_SAMPLE_INTERVAL` when set and positive, else 300.
pub(crate) fn telemetry_sample_interval() -> f64 {
    std::env::var("NODESHARE_SAMPLE_INTERVAL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(300.0)
}

/// Writes one campaign's JSONL samples and Prometheus exposition into
/// `dir` under a sanitized strategy label with a process-wide sequence
/// number (replications run in parallel and must not collide).
fn write_campaign_telemetry(dir: &std::path::Path, label: &str, telemetry: &SimTelemetry) {
    static CAMPAIGN: AtomicU64 = AtomicU64::new(0);
    let n = CAMPAIGN.fetch_add(1, Ordering::Relaxed);
    let slug: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    if std::fs::create_dir_all(dir).is_err() {
        nodeshare_obs::warn!("bench", "cannot create telemetry directory"; dir = dir.display());
        return;
    }
    let stem = format!("{slug}-{n:04}");
    write_files(dir, &stem, telemetry);
}

/// Writes one simulation's JSONL samples and Prometheus exposition as
/// `<dir>/<stem>.jsonl` / `<dir>/<stem>.prom`, creating `dir` as needed.
/// Campaign cells call this with a per-cell directory so parallel cells
/// never interleave writes into one file.
pub(crate) fn write_telemetry_files(dir: &std::path::Path, stem: &str, telemetry: &SimTelemetry) {
    if std::fs::create_dir_all(dir).is_err() {
        nodeshare_obs::warn!("bench", "cannot create telemetry directory"; dir = dir.display());
        return;
    }
    write_files(dir, stem, telemetry);
}

fn write_files(dir: &std::path::Path, stem: &str, telemetry: &SimTelemetry) {
    let jsonl = dir.join(format!("{stem}.jsonl"));
    let prom = dir.join(format!("{stem}.prom"));
    let ok = std::fs::write(&jsonl, telemetry.jsonl()).is_ok()
        && std::fs::write(&prom, telemetry.prometheus()).is_ok();
    if ok {
        nodeshare_obs::debug!(
            "bench",
            "campaign telemetry written";
            samples = telemetry.samples().len(),
            jsonl = jsonl.display(),
            prometheus = prom.display()
        );
    } else {
        nodeshare_obs::warn!("bench", "failed to write campaign telemetry"; stem = stem);
    }
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
    use nodeshare_core::StrategyKind;

    #[test]
    fn world_builds_and_runs_small_campaign() {
        let world = World::evaluation();
        let mut spec = world.online_spec(7);
        spec.n_jobs = 40;
        let workload = spec.generate(&world.catalog);
        let (out, m) = world.run_strategy(
            &workload,
            &StrategyConfig::exclusive(StrategyKind::EasyBackfill),
        );
        assert_eq!(out.records.len(), 40);
        assert!(m.computational_efficiency <= 1.0 + 1e-9);
    }

    #[test]
    fn replicate_is_parallel_and_deterministic() {
        let world = World::evaluation();
        let cfg = StrategyConfig::exclusive(StrategyKind::FirstFit);
        let spec_of = |seed| WorkloadSpec {
            n_jobs: 30,
            ..world.online_spec(seed)
        };
        let a = world.replicate(&cfg, &seeds(3), spec_of);
        let b = world.replicate(&cfg, &seeds(3), spec_of);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.makespan, y.makespan);
        }
    }

    #[test]
    fn telemetry_env_dumps_campaign_files() {
        let dir = std::env::temp_dir().join("nodeshare_bench_telemetry_test");
        let _ = std::fs::remove_dir_all(&dir);
        // Campaigns started while the variable is set dump telemetry;
        // concurrent tests may also write here, which is harmless.
        std::env::set_var("NODESHARE_TELEMETRY", &dir);
        let world = World::evaluation();
        let mut spec = world.online_spec(13);
        spec.n_jobs = 25;
        let workload = spec.generate(&world.catalog);
        let cfg = StrategyConfig::exclusive(StrategyKind::Conservative);
        let (out, _) = world.run_strategy(&workload, &cfg);
        std::env::remove_var("NODESHARE_TELEMETRY");
        assert!(out.complete());
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let slug_jsonl = names
            .iter()
            .find(|n| n.starts_with("conservative") && n.ends_with(".jsonl"))
            .unwrap_or_else(|| panic!("no conservative jsonl in {names:?}"));
        let jsonl = std::fs::read_to_string(dir.join(slug_jsonl)).unwrap();
        assert!(jsonl.lines().count() >= 2);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"t\":")));
        let prom_name = slug_jsonl.replace(".jsonl", ".prom");
        let prom = std::fs::read_to_string(dir.join(prom_name)).unwrap();
        assert!(prom.contains("# TYPE sched_decisions_total counter"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mean_of_works() {
        let world = World::evaluation();
        let cfg = StrategyConfig::exclusive(StrategyKind::Fcfs);
        let spec_of = |seed| WorkloadSpec {
            n_jobs: 10,
            ..world.online_spec(seed)
        };
        let ms = world.replicate(&cfg, &seeds(2), spec_of);
        let mean = mean_of(&ms, |m| m.jobs as f64);
        assert_eq!(mean, 10.0);
    }
}
