//! Declarative experiment campaigns over a (strategy × seed × preset ×
//! cluster) cell grid.
//!
//! Every seeded experiment binary declares its grid as a [`CampaignSpec`]:
//! four axes whose cartesian product is the campaign's cell grid. Each cell
//! is one **serial** simulation — determinism inside a cell is exactly
//! the source paper's serial-code contract — and cells are independent,
//! so the orchestrator ([`crate::orchestrator`]) shards them freely
//! across workers while [`run_campaign`] merges the per-cell
//! [`CampaignMetrics`] rows back in **canonical cell order**. The
//! resulting tables are bit-identical whether the campaign ran
//! `--serial`, `--jobs 1`, or `--jobs 64`.
//!
//! Canonical order is the declaration order of the axes, nested
//! preset-major: presets → clusters → strategies → seeds (seeds
//! innermost, so replications of one configuration are adjacent).

use crate::orchestrator::{run_cells, CellFailure, Parallelism};
use crate::{sim_config, World};
use nodeshare_cluster::ClusterSpec;
use nodeshare_core::StrategyConfig;
use nodeshare_engine::{
    simulate, DecisionTrace, FailureModel, Observe, SimOutcome, SimTelemetry, STREAM_CHUNK_JOBS,
};
use nodeshare_metrics::{CampaignMetrics, Table};
use nodeshare_workload::WorkloadSpec;

/// One strategy axis entry: a configuration plus the label it carries in
/// tables, telemetry paths, and failure reports.
#[derive(Clone, Debug)]
pub struct StrategyVariant {
    /// Table/log label (unique within the campaign).
    pub label: String,
    /// The scheduling policy this axis entry runs.
    pub config: StrategyConfig,
}

impl From<StrategyConfig> for StrategyVariant {
    fn from(config: StrategyConfig) -> Self {
        StrategyVariant {
            label: config.label().to_string(),
            config,
        }
    }
}

impl StrategyVariant {
    /// A variant with an explicit label (for configurations that differ
    /// only in predictor, pairing policy, or refinements).
    pub fn named(label: impl Into<String>, config: StrategyConfig) -> Self {
        StrategyVariant {
            label: label.into(),
            config,
        }
    }
}

/// Pre-sampled random node failures for a preset, mirroring the F9
/// experiment's configuration. The per-cell failure stream is seeded
/// from the cell's workload seed (`seed ^ 0xfa11`), so failure campaigns
/// replicate exactly like failure-free ones.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailurePlan {
    /// Mean time between failures per node, hours.
    pub mtbf_hours: f64,
    /// Node repair time, seconds.
    pub repair_s: f64,
    /// Horizon over which failures are pre-sampled, seconds.
    pub horizon_s: f64,
}

/// One workload-preset axis entry: a named, data-only description of the
/// campaign a cell simulates. Everything seed-dependent (workload
/// generation, failure streams) is derived inside the cell from the
/// seed axis, keeping the spec declarative.
#[derive(Clone, Debug)]
pub struct PresetVariant {
    /// Table/log label (unique within the campaign).
    pub label: String,
    /// The workload template. Each cell generates it with its own seed
    /// from the seed axis; the template's `seed` is ignored.
    pub workload: WorkloadSpec,
    /// Inject random node failures.
    pub failures: Option<FailurePlan>,
    /// Application checkpoint interval in *work* seconds.
    pub checkpoint_interval: Option<f64>,
}

impl PresetVariant {
    /// A failure-free preset generating `workload`.
    pub fn new(label: impl Into<String>, workload: WorkloadSpec) -> Self {
        PresetVariant {
            label: label.into(),
            workload,
            failures: None,
            checkpoint_interval: None,
        }
    }

    /// The workload spec this preset generates for one seed.
    pub fn workload_spec(&self, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            ..self.workload.clone()
        }
    }
}

/// One cluster axis entry.
#[derive(Clone, Debug)]
pub struct ClusterVariant {
    /// Table/log label (unique within the campaign).
    pub label: String,
    /// The machine this axis entry simulates.
    pub spec: ClusterSpec,
}

impl ClusterVariant {
    /// The canonical 128-node SMT-2 evaluation machine.
    pub fn evaluation() -> Self {
        ClusterVariant {
            label: "128n-smt2".to_string(),
            spec: ClusterSpec::evaluation(),
        }
    }

    /// A variant with an explicit label.
    pub fn named(label: impl Into<String>, spec: ClusterSpec) -> Self {
        ClusterVariant {
            label: label.into(),
            spec,
        }
    }
}

/// A declarative campaign: the cartesian product of four axes.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name — prefixes telemetry directories, obs log targets,
    /// and result files.
    pub name: &'static str,
    /// Workload presets (outermost canonical axis).
    pub presets: Vec<PresetVariant>,
    /// Simulated machines.
    pub clusters: Vec<ClusterVariant>,
    /// Scheduling policies.
    pub strategies: Vec<StrategyVariant>,
    /// Replication seeds (innermost canonical axis).
    pub seeds: Vec<u64>,
}

/// Coordinates of one cell: indices into the four spec axes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellCoord {
    /// Index into [`CampaignSpec::presets`].
    pub preset: usize,
    /// Index into [`CampaignSpec::clusters`].
    pub cluster: usize,
    /// Index into [`CampaignSpec::strategies`].
    pub strategy: usize,
    /// Index into [`CampaignSpec::seeds`].
    pub seed: usize,
}

impl CampaignSpec {
    /// A campaign on the evaluation cluster only.
    pub fn on_evaluation_cluster(
        name: &'static str,
        presets: Vec<PresetVariant>,
        strategies: Vec<StrategyVariant>,
        seeds: Vec<u64>,
    ) -> Self {
        CampaignSpec {
            name,
            presets,
            clusters: vec![ClusterVariant::evaluation()],
            strategies,
            seeds,
        }
    }

    /// Total cell count.
    pub fn n_cells(&self) -> usize {
        self.presets.len() * self.clusters.len() * self.strategies.len() * self.seeds.len()
    }

    /// Every cell coordinate, in canonical order.
    pub fn cells(&self) -> Vec<CellCoord> {
        let mut out = Vec::with_capacity(self.n_cells());
        for preset in 0..self.presets.len() {
            for cluster in 0..self.clusters.len() {
                for strategy in 0..self.strategies.len() {
                    for seed in 0..self.seeds.len() {
                        out.push(CellCoord {
                            preset,
                            cluster,
                            strategy,
                            seed,
                        });
                    }
                }
            }
        }
        out
    }

    /// The canonical index of a coordinate — the inverse of
    /// [`CampaignSpec::cells`] ordering.
    pub fn index_of(&self, c: &CellCoord) -> usize {
        ((c.preset * self.clusters.len() + c.cluster) * self.strategies.len() + c.strategy)
            * self.seeds.len()
            + c.seed
    }

    /// Human-readable cell coordinates:
    /// `preset/cluster/strategy/seedN`.
    pub fn cell_label(&self, c: &CellCoord) -> String {
        format!(
            "{}/{}/{}/seed{}",
            self.presets[c.preset].label,
            self.clusters[c.cluster].label,
            self.strategies[c.strategy].label,
            self.seeds[c.seed]
        )
    }

    /// Filesystem-safe cell name (telemetry subdirectory).
    pub fn cell_slug(&self, c: &CellCoord) -> String {
        self.cell_label(c)
            .chars()
            .map(|ch| {
                if ch.is_ascii_alphanumeric() || ch == '-' || ch == '_' {
                    ch
                } else {
                    '-'
                }
            })
            .collect()
    }

    /// Validates axis shapes: every axis non-empty, labels unique within
    /// their axis (duplicate labels would alias telemetry directories
    /// and make failure reports ambiguous).
    pub fn validate(&self) {
        assert!(
            !self.presets.is_empty()
                && !self.clusters.is_empty()
                && !self.strategies.is_empty()
                && !self.seeds.is_empty(),
            "campaign {}: every axis needs at least one entry",
            self.name
        );
        let unique = |labels: Vec<&str>, axis: &str| {
            // detlint: allow(D1, duplicate-slug guard; membership checks only, never iterated)
            let mut seen = std::collections::HashSet::new();
            for l in labels {
                assert!(
                    seen.insert(l.to_string()),
                    "campaign {}: duplicate {axis} label {l:?}",
                    self.name
                );
            }
        };
        unique(
            self.presets.iter().map(|p| p.label.as_str()).collect(),
            "preset",
        );
        unique(
            self.clusters.iter().map(|c| c.label.as_str()).collect(),
            "cluster",
        );
        unique(
            self.strategies.iter().map(|s| s.label.as_str()).collect(),
            "strategy",
        );
    }
}

/// Per-cell execution options.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellOptions {
    /// Record a decision trace for every cell and keep its FNV-1a hash
    /// in the result — the differential tests compare these across
    /// worker counts. (Tracing also happens whenever auditing is on.)
    pub hash_traces: bool,
}

/// What one cell produced.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Where in the grid this result belongs.
    pub coord: CellCoord,
    /// The full simulation outcome (records, occupancy series, …).
    pub outcome: SimOutcome,
    /// Aggregated campaign metrics against the cell's cluster.
    pub metrics: CampaignMetrics,
    /// FNV-1a hash of the decision trace, when one was recorded.
    pub trace_hash: Option<u64>,
    /// Wall-clock seconds the cell's simulation took on its worker.
    ///
    /// Observability only: never part of the outcome, metrics, table
    /// rows, or trace hash the determinism proofs compare — two runs of
    /// one campaign are bit-identical in every compared artifact even
    /// though their wall clocks differ.
    pub wall_seconds: f64,
}

/// Stable FNV-1a hash of a decision trace (over the `Debug` rendering of
/// every event — `f64` formatting is exact for round-trip values, so
/// equal traces hash equal and diverging traces collide with
/// probability ~2⁻⁶⁴).
pub fn trace_hash(trace: &DecisionTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut buf = String::new();
    for ev in trace.events() {
        use std::fmt::Write as _;
        buf.clear();
        let _ = write!(buf, "{ev:?}");
        for b in buf.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The directory campaign cells dump telemetry into, from the
/// `NODESHARE_TELEMETRY` environment variable (`0`/empty disables).
fn telemetry_dir() -> Option<std::path::PathBuf> {
    match std::env::var("NODESHARE_TELEMETRY") {
        Ok(dir) if !dir.is_empty() && dir != "0" => Some(std::path::PathBuf::from(dir)),
        _ => None,
    }
}

/// Telemetry sampling period in simulated seconds:
/// `NODESHARE_SAMPLE_INTERVAL` when set and positive, else 300.
fn telemetry_sample_interval() -> f64 {
    std::env::var("NODESHARE_SAMPLE_INTERVAL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s > 0.0)
        .unwrap_or(300.0)
}

/// Runs one cell: generates the seeded workload, builds the policy,
/// runs the serial simulation (audited and/or telemetry-instrumented as
/// configured), and aggregates metrics.
///
/// # Panics
/// Panics when the policy wedges (incomplete campaign) or the replay
/// audit finds violations — the orchestrator turns either into a
/// [`CellFailure`] carrying this cell's coordinates.
pub fn run_cell(
    world: &World,
    spec: &CampaignSpec,
    coord: &CellCoord,
    opts: &CellOptions,
) -> CellResult {
    let sv = &spec.strategies[coord.strategy];
    let pv = &spec.presets[coord.preset];
    let cv = &spec.clusters[coord.cluster];
    let seed = spec.seeds[coord.seed];
    let label = spec.cell_label(coord);
    let slug = spec.cell_slug(coord);
    let target = format!("campaign::{}::{}", spec.name, slug);

    let workload = pv.workload_spec(seed).generate(&world.catalog);
    let mut sim_cfg = sim_config(cv.spec);
    if let Some(fp) = &pv.failures {
        sim_cfg.failures = Some(FailureModel {
            mtbf_per_node: fp.mtbf_hours * 3_600.0,
            repair_time: fp.repair_s,
            seed: seed ^ 0xfa11,
        });
        sim_cfg.failure_horizon = fp.horizon_s;
    }
    sim_cfg.checkpoint_interval = pv.checkpoint_interval;

    nodeshare_obs::debug!(target.as_str(), "cell start"; jobs = workload.len());
    let mut sched = sv.config.build(&world.catalog, &world.model);
    let telemetry = telemetry_dir().map(|dir| {
        (
            dir.join(spec.name).join(&slug),
            SimTelemetry::new(telemetry_sample_interval()),
        )
    });
    let observe = Observe {
        // An audited run records its trace anyway; keep it for the cell
        // report.
        trace: sim_cfg.audit || opts.hash_traces,
        telemetry: telemetry.as_ref().map(|(_, tele)| tele),
    };
    let sim_started = std::time::Instant::now();
    let (out, trace) = simulate(
        &mut workload.source(STREAM_CHUNK_JOBS),
        &world.matrix,
        sched.as_mut(),
        &sim_cfg,
        observe,
    )
    .unwrap_or_else(|e| panic!("in-memory workload source failed: {e}"));
    let wall_seconds = sim_started.elapsed().as_secs_f64();
    let hash = trace.as_ref().map(trace_hash);
    if let Some((dir, tele)) = &telemetry {
        write_cell_files(dir, &label, cv.spec.total_cores(), tele, trace.as_ref());
    }
    assert!(
        out.complete(),
        "cell {label}: {} jobs never scheduled",
        out.unscheduled.len()
    );
    let metrics = out.metrics(&cv.spec);
    nodeshare_obs::debug!(
        target.as_str(),
        "cell done";
        events = out.events_processed,
        makespan_h = format!("{:.2}", metrics.makespan / 3_600.0),
        wall_ms = format!("{:.1}", wall_seconds * 1e3)
    );
    CellResult {
        coord: *coord,
        outcome: out,
        metrics,
        trace_hash: hash,
        wall_seconds,
    }
}

/// Writes a cell's observability artifacts into its own directory, so
/// parallel cells never interleave writes and a campaign's telemetry is
/// browsable by cell coordinates: `campaign.jsonl` (telemetry samples)
/// and `campaign.prom` (Prometheus exposition), plus, when the cell was
/// traced, `report.md` and `perfetto.json` (load at
/// <https://ui.perfetto.dev>). Report rendering is pure — it reads the
/// finished trace and never feeds back into the simulation.
fn write_cell_files(
    dir: &std::path::Path,
    label: &str,
    total_cores: u64,
    telemetry: &SimTelemetry,
    trace: Option<&DecisionTrace>,
) {
    let mut files = vec![
        ("campaign.jsonl", telemetry.jsonl()),
        ("campaign.prom", telemetry.prometheus()),
    ];
    if let Some(trace) = trace {
        let opts = nodeshare_report::ReportOptions {
            title: Some(format!("cell report: {label}")),
            total_cores: Some(total_cores),
        };
        let report = nodeshare_report::Report::from_trace(trace, &opts);
        files.push(("report.md", report.markdown));
        files.push(("perfetto.json", report.perfetto_json));
    }
    let ok = std::fs::create_dir_all(dir).is_ok()
        && files
            .iter()
            .all(|(name, body)| std::fs::write(dir.join(name), body).is_ok());
    if !ok {
        nodeshare_obs::warn!("bench", "failed to write cell telemetry"; dir = dir.display());
    }
}

/// A completed campaign: per-cell results in canonical order plus the
/// streamed per-cell metrics table.
#[derive(Debug)]
pub struct CampaignRun {
    /// The spec that produced this run.
    pub spec: CampaignSpec,
    /// Per-cell results, canonical order.
    pub results: Vec<CellResult>,
    /// One row per cell (canonical order), streamed as cells completed.
    pub cell_table: Table,
    /// Wall-clock seconds the whole campaign took (observability only).
    pub wall_seconds: f64,
    /// How many workers the campaign ran on.
    pub workers: usize,
}

impl CampaignRun {
    /// Total simulation events processed across all cells.
    pub fn total_events(&self) -> u64 {
        self.results
            .iter()
            .map(|r| r.outcome.events_processed)
            .sum::<u64>()
    }

    /// Campaign throughput in cells per minute of wall-clock time.
    pub fn cells_per_minute(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.results.len() as f64 * 60.0 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Renders the campaign's wall-clock profile as markdown: totals,
    /// a per-cell table in canonical order, and the slowest cells.
    ///
    /// Row *order* is deterministic (the merge delivers canonical cell
    /// order regardless of worker count); the wall-clock *values* are
    /// whatever the machine did — they never feed back into results.
    pub fn summary_markdown(&self) -> String {
        use std::fmt::Write as _;
        let mut md = String::new();
        let _ = writeln!(md, "# campaign summary: {}\n", self.spec.name);
        let _ = writeln!(md, "| total | value |");
        let _ = writeln!(md, "|---|---|");
        let _ = writeln!(md, "| cells | {} |", self.results.len());
        let _ = writeln!(md, "| workers | {} |", self.workers);
        let _ = writeln!(md, "| wall time | {:.2} s |", self.wall_seconds);
        let _ = writeln!(md, "| cells/min | {:.1} |", self.cells_per_minute());
        let _ = writeln!(md, "| events | {} |", self.total_events());
        // detlint: allow(D4, diagnostic wall-time total; machine-dependent by design and never fed back into results)
        let cell_seconds: f64 = self.results.iter().map(|r| r.wall_seconds).sum();
        if cell_seconds > 0.0 {
            let _ = writeln!(
                md,
                "| events/sec (aggregate) | {:.0} |",
                self.total_events() as f64 / cell_seconds
            );
        }
        let _ = writeln!(md, "\n## Cells\n");
        let _ = writeln!(md, "| # | cell | events | wall ms | events/sec |");
        let _ = writeln!(md, "|---|---|---|---|---|");
        for (idx, r) in self.results.iter().enumerate() {
            let _ = writeln!(
                md,
                "| {idx} | {} | {} | {:.1} | {:.0} |",
                self.spec.cell_label(&r.coord),
                r.outcome.events_processed,
                r.wall_seconds * 1e3,
                events_per_sec(r)
            );
        }
        let mut slowest: Vec<&CellResult> = self.results.iter().collect();
        slowest.sort_by(|a, b| {
            b.wall_seconds.total_cmp(&a.wall_seconds).then_with(|| {
                self.spec
                    .index_of(&a.coord)
                    .cmp(&self.spec.index_of(&b.coord))
            })
        });
        let _ = writeln!(md, "\n## Slowest cells\n");
        let _ = writeln!(md, "| cell | wall ms |");
        let _ = writeln!(md, "|---|---|");
        for r in slowest.iter().take(5) {
            let _ = writeln!(
                md,
                "| {} | {:.1} |",
                self.spec.cell_label(&r.coord),
                r.wall_seconds * 1e3
            );
        }
        md
    }
}

/// A cell's simulation throughput in events per wall-clock second.
fn events_per_sec(r: &CellResult) -> f64 {
    if r.wall_seconds > 0.0 {
        r.outcome.events_processed as f64 / r.wall_seconds
    } else {
        0.0
    }
}

impl CampaignRun {
    /// The cells of one (preset, cluster, strategy) configuration, in
    /// seed order (seeds are the innermost axis, so they are adjacent).
    pub fn seed_results(&self, preset: usize, cluster: usize, strategy: usize) -> &[CellResult] {
        let first = self.spec.index_of(&CellCoord {
            preset,
            cluster,
            strategy,
            seed: 0,
        });
        &self.results[first..first + self.spec.seeds.len()]
    }

    /// The per-seed metrics of one (preset, cluster, strategy)
    /// configuration, in seed order — the replication vector the
    /// experiment tables aggregate with [`crate::mean_of`].
    pub fn seed_metrics(
        &self,
        preset: usize,
        cluster: usize,
        strategy: usize,
    ) -> Vec<CampaignMetrics> {
        self.seed_results(preset, cluster, strategy)
            .iter()
            .map(|r| r.metrics.clone())
            .collect()
    }
}

/// The columns of the streamed per-cell table.
fn cell_table_header() -> Vec<&'static str> {
    vec![
        "cell",
        "preset",
        "cluster",
        "strategy",
        "seed",
        "makespan_h",
        "e_comp",
        "e_sched",
        "util",
        "shared",
        "kills",
        "restarts",
    ]
}

fn cell_table_row(spec: &CampaignSpec, index: usize, r: &CellResult) -> Vec<String> {
    let c = &r.coord;
    let m = &r.metrics;
    vec![
        format!("{index}"),
        spec.presets[c.preset].label.clone(),
        spec.clusters[c.cluster].label.clone(),
        spec.strategies[c.strategy].label.clone(),
        format!("{}", spec.seeds[c.seed]),
        format!("{:.2}", m.makespan / 3_600.0),
        format!("{:.3}", m.computational_efficiency),
        format!("{:.3}", m.scheduling_efficiency),
        format!("{:.3}", m.utilization),
        format!("{:.3}", m.shared_fraction),
        format!("{}", m.killed),
        format!("{}", m.total_restarts),
    ]
}

/// Executes a campaign under the given parallelism and merges the
/// per-cell rows into the metrics table in canonical cell order.
///
/// On failure, sibling cells' results are still computed (and logged),
/// but the campaign as a whole reports every failed cell's coordinates.
pub fn run_campaign(
    world: &World,
    spec: &CampaignSpec,
    parallelism: Parallelism,
    opts: &CellOptions,
) -> Result<CampaignRun, Vec<CellFailure>> {
    spec.validate();
    let coords = spec.cells();
    let n = coords.len();
    let campaign_target = format!("campaign::{}", spec.name);
    nodeshare_obs::info!(
        campaign_target.as_str(),
        "campaign start";
        cells = n,
        workers = parallelism.workers(),
        serial = (parallelism == Parallelism::Serial)
    );
    let started = std::time::Instant::now();
    let outcomes = run_cells(
        &coords,
        parallelism,
        |_, c| spec.cell_label(c),
        |_, c| run_cell(world, spec, c, opts),
    );
    let wall_seconds = started.elapsed().as_secs_f64();
    let mut table = Table::new(cell_table_header());
    let mut results = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for (idx, outcome) in outcomes.into_iter().enumerate() {
        let r = match outcome {
            Ok(r) => r,
            Err(f) => {
                failures.push(f);
                continue;
            }
        };
        table.row(cell_table_row(spec, idx, &r));
        // Progress, in canonical order: one line per completed cell
        // with its wall-clock profile.
        nodeshare_obs::info!(
            campaign_target.as_str(),
            "cell merged";
            cell = spec.cell_label(&r.coord),
            index = idx,
            of = n,
            wall_ms = format!("{:.1}", r.wall_seconds * 1e3),
            events_per_sec = format!("{:.0}", events_per_sec(&r))
        );
        results.push(r);
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    let run = CampaignRun {
        spec: spec.clone(),
        results,
        cell_table: table,
        wall_seconds,
        workers: parallelism.workers(),
    };
    nodeshare_obs::info!(
        campaign_target.as_str(),
        "campaign done";
        cells = run.results.len(),
        wall_s = format!("{:.2}", run.wall_seconds),
        cells_per_min = format!("{:.1}", run.cells_per_minute()),
        events = run.total_events()
    );
    Ok(run)
}

/// Writes the run's per-cell artifacts next to an experiment's tables:
/// `results/<name>_cells.csv`, the streamed per-cell metrics table (the
/// raw replication-level artifact behind the aggregated tables, in
/// canonical cell order and bit-identical across worker counts), and
/// `results/<name>_summary.md`, the wall-clock profile (totals, a
/// per-cell table in canonical order, the slowest cells).
pub fn write_cell_artifacts(name: &str, run: &CampaignRun) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(
            dir.join(format!("{name}_cells.csv")),
            run.cell_table.to_csv(),
        );
        let _ = std::fs::write(
            dir.join(format!("{name}_summary.md")),
            run.summary_markdown(),
        );
    }
}

/// Entry point for experiment binaries: runs `spec` with default cell
/// options and, if any cell fails, prints every failed cell with its
/// coordinates and exits non-zero.
pub fn run_or_exit(world: &World, spec: &CampaignSpec, parallelism: Parallelism) -> CampaignRun {
    run_campaign(world, spec, parallelism, &CellOptions::default()).unwrap_or_else(|failures| {
        for f in &failures {
            nodeshare_obs::error!("campaign", f);
        }
        eprintln!(
            "campaign failed: {} cell(s) panicked or failed audit; sibling cells were unaffected",
            failures.len()
        );
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodeshare_core::StrategyKind;

    fn tiny_spec(world: &World) -> CampaignSpec {
        CampaignSpec::on_evaluation_cluster(
            "unit",
            vec![
                PresetVariant::new(
                    "sat",
                    WorkloadSpec {
                        n_jobs: 20,
                        ..world.saturated_spec(0)
                    },
                ),
                PresetVariant::new(
                    "online",
                    WorkloadSpec {
                        n_jobs: 15,
                        ..world.online_spec(0)
                    },
                ),
            ],
            vec![
                StrategyConfig::exclusive(StrategyKind::Fcfs).into(),
                StrategyConfig::sharing(StrategyKind::CoBackfill).into(),
            ],
            vec![1_000, 1_001],
        )
    }

    #[test]
    fn cell_enumeration_is_canonical_and_invertible() {
        let spec = tiny_spec(&World::evaluation());
        let cells = spec.cells();
        assert_eq!(cells.len(), spec.n_cells());
        // 2 presets x 1 cluster x 2 strategies x 2 seeds
        assert_eq!(cells.len(), 8);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(spec.index_of(c), i);
        }
        // Seeds are the innermost axis: adjacent cells replicate one
        // configuration.
        assert_eq!(cells[0].seed, 0);
        assert_eq!(cells[1].seed, 1);
        assert_eq!(cells[0].strategy, cells[1].strategy);
        assert_eq!(spec.cell_label(&cells[0]), "sat/128n-smt2/fcfs/seed1000");
    }

    #[test]
    fn campaign_runs_and_aggregates_deterministically() {
        let world = World::evaluation();
        let spec = tiny_spec(&world);
        let opts = CellOptions { hash_traces: true };
        let serial = run_campaign(&world, &spec, Parallelism::Serial, &opts).unwrap();
        let parallel = run_campaign(&world, &spec, Parallelism::Jobs(4), &opts).unwrap();
        assert_eq!(serial.results.len(), spec.n_cells());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(a.coord, b.coord);
            assert_eq!(a.trace_hash, b.trace_hash);
            assert!(a.outcome == b.outcome);
        }
        assert_eq!(serial.cell_table.to_csv(), parallel.cell_table.to_csv());
        let ms = serial.seed_metrics(0, 0, 1);
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].jobs, 20);
        // Wall-clock observability rides along without entering any
        // compared artifact above.
        for run in [&serial, &parallel] {
            assert!(run.wall_seconds > 0.0);
            assert!(run.cells_per_minute() > 0.0);
            assert!(run.results.iter().all(|r| r.wall_seconds > 0.0));
        }
        assert!(serial.total_events() > 0);
        assert_eq!(serial.total_events(), parallel.total_events());
    }

    #[test]
    fn summary_markdown_lists_every_cell_in_canonical_order() {
        let world = World::evaluation();
        let mut spec = tiny_spec(&world);
        spec.name = "unit_summary";
        let run = run_campaign(&world, &spec, Parallelism::Jobs(4), &CellOptions::default())
            .expect("campaign completes");
        let md = run.summary_markdown();
        assert!(md.starts_with("# campaign summary: unit_summary"));
        assert!(md.contains("| cells | 8 |"));
        assert!(md.contains("## Slowest cells"));
        // Every cell appears, and the per-cell rows follow canonical
        // order no matter which worker finished first.
        let mut last = None;
        for (idx, c) in spec.cells().iter().enumerate() {
            let row = format!("| {idx} | {} |", spec.cell_label(c));
            let pos = md
                .find(&row)
                .unwrap_or_else(|| panic!("missing row {row:?}"));
            assert!(last.is_none_or(|p| p < pos), "rows out of order at {row:?}");
            last = Some(pos);
        }
    }

    #[test]
    fn telemetry_cells_get_report_artifacts() {
        let dir = std::env::temp_dir().join("nodeshare_campaign_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("NODESHARE_TELEMETRY", &dir);
        let world = World::evaluation();
        let mut spec = tiny_spec(&world);
        spec.name = "unit_report";
        spec.presets.truncate(1);
        spec.strategies.truncate(1);
        spec.seeds.truncate(1);
        let coord = spec.cells()[0];
        let r = run_cell(&world, &spec, &coord, &CellOptions { hash_traces: true });
        std::env::remove_var("NODESHARE_TELEMETRY");
        assert!(r.trace_hash.is_some());
        let cell_dir = dir.join(spec.name).join(spec.cell_slug(&coord));
        let md = std::fs::read_to_string(cell_dir.join("report.md"))
            .expect("cell report.md written next to telemetry");
        assert!(md.contains(&format!("cell report: {}", spec.cell_label(&coord))));
        assert!(md.contains("## Queue waits"));
        let perfetto = std::fs::read_to_string(cell_dir.join("perfetto.json"))
            .expect("cell perfetto.json written next to telemetry");
        assert!(perfetto.starts_with("{\"traceEvents\":["));
        let jsonl = std::fs::read_to_string(cell_dir.join("campaign.jsonl"))
            .expect("cell campaign.jsonl written");
        assert!(jsonl.lines().count() >= 2);
        assert!(jsonl.lines().all(|l| l.starts_with("{\"t\":")));
        let prom = std::fs::read_to_string(cell_dir.join("campaign.prom"))
            .expect("cell campaign.prom written");
        assert!(prom.contains("# TYPE sched_decisions_total counter"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn preset_template_seed_is_ignored() {
        let world = World::evaluation();
        let mut spec = tiny_spec(&world);
        spec.presets.truncate(1);
        spec.presets[0].workload.seed = 1;
        let mut other = spec.clone();
        other.presets[0].workload.seed = 99;
        let opts = CellOptions { hash_traces: true };
        let a = run_campaign(&world, &spec, Parallelism::Serial, &opts).unwrap();
        let b = run_campaign(&world, &other, Parallelism::Serial, &opts).unwrap();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert!(x.trace_hash.is_some());
            assert_eq!(x.trace_hash, y.trace_hash, "cell {:?}", x.coord);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate strategy label")]
    fn duplicate_labels_are_rejected() {
        let mut spec = tiny_spec(&World::evaluation());
        let dup = spec.strategies[0].clone();
        spec.strategies.push(dup);
        spec.validate();
    }
}
