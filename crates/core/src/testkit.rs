//! Shared fixtures for policy unit tests (compiled only for tests).

use nodeshare_cluster::{ClusterSpec, JobId, NodeSpec};
use nodeshare_engine::{DecisionTrace, Observe, SimConfig, SimOutcome, SimTelemetry};
use nodeshare_perf::{AppCatalog, AppId, CoRunTruth, ContentionModel, Predictor};
use nodeshare_workload::{JobSpec, Workload};

/// A test world: cluster spec, truth matrix, workload.
pub struct World {
    /// Cluster spec (tiny nodes).
    pub config: SimConfig,
    /// Ground-truth co-run rates.
    pub matrix: CoRunTruth,
    /// The jobs.
    pub workload: Workload,
}

/// Builds a job: `nodes` nodes, true runtime `runtime`, estimate 2×,
/// submit at `id` seconds (so earlier ids arrive earlier), share-eligible,
/// app = miniFE by default.
pub fn job(id: u64, nodes: u32, runtime: f64) -> JobSpec {
    JobSpec {
        malleable: Default::default(),
        id: JobId(id),
        app: AppId(0), // miniFE
        nodes,
        submit: id as f64,
        runtime_exclusive: runtime,
        walltime_estimate: runtime * 2.0,
        mem_per_node_mib: 64,
        share_eligible: true,
        user: 0,
    }
}

/// A job with an explicit app by catalog name.
pub fn job_app(id: u64, nodes: u32, runtime: f64, app_name: &str) -> JobSpec {
    let catalog = AppCatalog::trinity();
    let mut j = job(id, nodes, runtime);
    j.app = catalog.by_name(app_name).expect("app exists").id;
    j
}

/// Builds a world with `nodes` tiny nodes.
pub fn world(nodes: u32, jobs: Vec<JobSpec>) -> World {
    let catalog = AppCatalog::trinity();
    let matrix = CoRunTruth::build(&catalog, &ContentionModel::calibrated());
    World {
        config: SimConfig::new(ClusterSpec::new(nodes, NodeSpec::tiny())),
        matrix,
        workload: Workload::new(jobs).expect("valid jobs"),
    }
}

/// Runs the world under a policy.
pub fn simulate(world: &World, policy: &mut dyn nodeshare_engine::Scheduler) -> SimOutcome {
    nodeshare_engine::run(&world.workload, &world.matrix, policy, &world.config)
}

/// Runs the world under a policy through the engine's one entry point.
fn simulate_observed(
    world: &World,
    policy: &mut dyn nodeshare_engine::Scheduler,
    observe: Observe<'_>,
) -> (SimOutcome, Option<DecisionTrace>) {
    let mut source = world.workload.source(world.workload.len());
    nodeshare_engine::simulate(&mut source, &world.matrix, policy, &world.config, observe)
        .expect("in-memory workloads always deliver")
}

/// Runs the world under a policy with a telemetry sink attached,
/// returning the outcome and the populated telemetry.
pub fn simulate_with_telemetry(
    world: &World,
    policy: &mut dyn nodeshare_engine::Scheduler,
) -> (SimOutcome, SimTelemetry) {
    let tele = SimTelemetry::new(300.0);
    let observe = Observe {
        trace: false,
        telemetry: Some(&tele),
    };
    let (out, _) = simulate_observed(world, policy, observe);
    (out, tele)
}

/// Runs the world under a policy, returning the decision trace too.
pub fn simulate_traced(
    world: &World,
    policy: &mut dyn nodeshare_engine::Scheduler,
) -> (SimOutcome, DecisionTrace) {
    let observe = Observe {
        trace: true,
        ..Observe::default()
    };
    let (out, trace) = simulate_observed(world, policy, observe);
    (out, trace.expect("trace requested"))
}

/// The oracle predictor for the trinity catalog.
pub fn oracle() -> Predictor {
    Predictor::oracle(&AppCatalog::trinity(), &ContentionModel::calibrated())
}
