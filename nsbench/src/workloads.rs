//! The benchmark's workloads: inputs made from a seed, one run of a
//! workload (plain, or layered through the timing wrappers), and the
//! outcome digest the output check compares.

use crate::layers::{elapsed_ns, SchedStats, TimedScheduler, TimedSource};
use nodeshare_bench::World;
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_engine::{
    run_streamed, run_streamed_traced, Auditor, DecisionTrace, Scheduler, SimConfig, SimOutcome,
};
use nodeshare_report::{perfetto, summary, Analysis, Report, ReportOptions, TraceData};
use nodeshare_workload::{swf, JobSource, Workload, WorkloadSpec};
use std::io::{BufReader, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Jobs per chunk when a materialized cell is streamed into the engine;
/// the engine's `run` uses the same chunking.
const CHUNK_JOBS: usize = 8192;

/// The seed whose outcome digests are pinned in [`Kind::pinned`].
pub const DEFAULT_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Co-backfill on the saturated preset: deep queues, shared
    /// placement and pairing lookups (the paper's headline regime).
    CobackfillSaturated,
    /// Conservative backfill on the saturated preset: reservation
    /// timeline upkeep dominates.
    ConservativeSaturated,
    /// EASY in lean mode, streamed from an SWF file of the online preset:
    /// shallow queue, no sharing; event queue, source refill and SWF
    /// parsing carry the run.
    EasyStreamSwf,
    /// Audited, traced co-backfill run, then trace encode, parse,
    /// analysis and render, all in memory.
    TracePipeline,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::CobackfillSaturated,
        Kind::ConservativeSaturated,
        Kind::EasyStreamSwf,
        Kind::TracePipeline,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CobackfillSaturated => "cobackfill-saturated",
            Kind::ConservativeSaturated => "conservative-saturated",
            Kind::EasyStreamSwf => "easy-stream-swf",
            Kind::TracePipeline => "trace-pipeline",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Cells in one run: independent seeds, so that one run's cost does
    /// not hinge on one seed's queue trajectory.
    pub fn cells(self) -> usize {
        match self {
            Kind::CobackfillSaturated => 24,
            Kind::ConservativeSaturated => 48,
            Kind::EasyStreamSwf => 1,
            Kind::TracePipeline => 12,
        }
    }

    /// Jobs per cell at full size.
    pub fn default_jobs(self) -> usize {
        match self {
            Kind::CobackfillSaturated => 1_250,
            Kind::ConservativeSaturated => 600,
            Kind::EasyStreamSwf => 100_000,
            Kind::TracePipeline => 250,
        }
    }

    /// Outcome digest of the full-size run at [`DEFAULT_SEED`].
    pub fn pinned(self) -> u64 {
        match self {
            Kind::CobackfillSaturated => 0x9266_a84e_aaa2_6f40,
            Kind::ConservativeSaturated => 0xb234_f6b4_9e0a_6e1e,
            Kind::EasyStreamSwf => 0xc819_c2da_5a21_1b05,
            Kind::TracePipeline => 0xf7d7_de02_e1c0_c29c,
        }
    }

    fn strategy(self) -> StrategyConfig {
        match self {
            Kind::CobackfillSaturated | Kind::TracePipeline => {
                StrategyConfig::sharing(StrategyKind::CoBackfill)
            }
            Kind::ConservativeSaturated => StrategyConfig::exclusive(StrategyKind::Conservative),
            Kind::EasyStreamSwf => StrategyConfig::exclusive(StrategyKind::EasyBackfill),
        }
    }

    fn spec(self, world: &World, seed: u64, jobs: usize) -> WorkloadSpec {
        let mut spec = match self {
            Kind::EasyStreamSwf => world.online_spec(seed),
            _ => world.saturated_spec(seed),
        };
        spec.n_jobs = jobs;
        spec
    }
}

/// A file removed when its owner drops.
struct ScratchFile(PathBuf);

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// One campaign cell's jobs: the strategy runs once over each.
enum Cell {
    Jobs(Workload),
    Swf(ScratchFile),
}

/// Everything a run needs that is built before the clock starts.
pub struct Setup {
    kind: Kind,
    world: World,
    cells: Vec<Cell>,
    /// Jobs per cell.
    jobs: usize,
    /// Host seconds spent generating the jobs, within this setup.
    pub generate_s: f64,
}

/// Builds the evaluation world and every cell's input: generated jobs
/// in memory, or for the stream workload an SWF file written in chunks
/// (so the setup's own memory stays small) under `work_dir`. Cell `i`
/// of seed `s` generates from seed `1000·s + i`.
pub fn setup(
    kind: Kind,
    seed: u64,
    jobs: usize,
    work_dir: &Path,
    tag: usize,
) -> Result<Setup, String> {
    let world = World::evaluation();
    let mut cells = Vec::new();
    let mut generate_s = 0.0;
    for i in 0..kind.cells() {
        let cell_seed = seed.wrapping_mul(1000).wrapping_add(i as u64);
        let spec = kind.spec(&world, cell_seed, jobs);
        let cell = if kind == Kind::EasyStreamSwf {
            let file = ScratchFile(work_dir.join(format!(
                "{}-{seed}-{i}-{}-{tag}.swf",
                kind.name(),
                std::process::id()
            )));
            generate_s += write_swf(&spec, &world, &file.0)?;
            Cell::Swf(file)
        } else {
            let started = Instant::now();
            let workload = spec.generate(&world.catalog);
            generate_s += started.elapsed().as_secs_f64();
            Cell::Jobs(workload)
        };
        cells.push(cell);
    }
    Ok(Setup {
        kind,
        world,
        cells,
        jobs,
        generate_s,
    })
}

/// Streams `spec`'s jobs into an SWF file; returns the generation time.
fn write_swf(spec: &WorkloadSpec, world: &World, path: &Path) -> Result<f64, String> {
    let io_err = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(path.parent().unwrap_or(Path::new("."))).map_err(io_err)?;
    let mut out = BufWriter::new(std::fs::File::create(path).map_err(io_err)?);
    let started = Instant::now();
    let mut source = spec.stream(&world.catalog, CHUNK_JOBS);
    let mut generate_ns = elapsed_ns(started);
    let mut first = true;
    loop {
        let mut chunk = Vec::new();
        let started = Instant::now();
        let more = source
            .next_chunk(&mut chunk)
            .map_err(|e| format!("generator: {e}"))?;
        generate_ns += elapsed_ns(started);
        if !chunk.is_empty() {
            let text = swf::write(&Workload::new(chunk)?, world.cluster.node.cores());
            // Every chunk carries the format's comment header; keep the first.
            let header: usize = if first {
                0
            } else {
                text.lines()
                    .take_while(|l| l.starts_with(';'))
                    .map(|l| l.len() + 1)
                    .sum()
            };
            out.write_all(&text.as_bytes()[header..]).map_err(io_err)?;
            first = false;
        }
        if more.is_none() {
            break;
        }
    }
    out.flush().map_err(io_err)?;
    Ok(generate_ns as f64 * 1e-9)
}

/// Host times and sizes of one run's stages, summed over cells. Every run
/// records them; the stages the workload does not reach stay 0.
#[derive(Default)]
pub struct Stages {
    /// The engine call (`run*`).
    pub engine_ns: u64,
    /// `SimOutcome::metrics`.
    pub metrics_ns: u64,
    /// `Auditor::audit` with the queue-order check.
    pub audit_ns: u64,
    /// `DecisionTrace::to_json`.
    pub encode_ns: u64,
    /// Bytes of trace JSON.
    pub trace_bytes: u64,
    /// `TraceData::parse_json`.
    pub parse_ns: u64,
    /// `Analysis::from_trace`.
    pub analyze_ns: u64,
    /// `perfetto::render` plus `render_markdown`.
    pub render_ns: u64,
    /// Bytes of Perfetto JSON plus markdown.
    pub bytes_out: u64,
}

/// What the wrappers saw in a layered run.
#[derive(Default)]
pub struct Wrapped {
    /// The `core` scheduler's calls.
    pub sched: SchedStats,
    /// Host time in `explain_all`.
    pub explain_ns: u64,
    /// Host time in the source's `next_chunk`.
    pub source_ns: u64,
    /// `next_chunk` calls.
    pub chunks: u64,
    /// Jobs the source delivered.
    pub source_jobs: u64,
}

impl Wrapped {
    /// Adds one cell's wrapper statistics.
    fn absorb(&mut self, scheduler: TimedScheduler, source: &TimedSource<'_>) {
        let (s, cell) = (&mut self.sched, scheduler.stats);
        s.busy_ns += cell.busy_ns;
        s.calls += cell.calls;
        s.decisions += cell.decisions;
        s.useful_calls += cell.useful_calls;
        s.queue_sum += cell.queue_sum;
        s.call_ns.extend(cell.call_ns);
        self.explain_ns += scheduler.explain_ns.get();
        self.source_ns += source.busy_ns;
        self.chunks += source.chunks;
        self.source_jobs += source.jobs;
    }
}

/// One run of a workload: every cell once.
#[derive(Default)]
pub struct Run {
    /// Host seconds, from each cell's scheduler construction to its last
    /// output, summed over cells. Output checks are outside it.
    pub wall_s: f64,
    /// Simulated events, summed over cells.
    pub events: u64,
    /// Highest waiting-job count of any cell.
    pub peak_queue_depth: f64,
    /// Digest of every cell's outcome (see [`outcome_digest`]).
    pub digest: u64,
    /// Per-stage timings, summed over cells.
    pub stages: Stages,
    /// Wrapper statistics, summed over cells, for a layered run.
    pub wrapped: Option<Wrapped>,
}

/// Runs the workload once. `Err` names the output check that failed.
pub fn run_once(setup: &Setup, layered: bool) -> Result<Run, String> {
    let mut run = Run {
        wrapped: layered.then(Wrapped::default),
        ..Run::default()
    };
    let mut digest = Digest::new();
    for cell in &setup.cells {
        run_cell(setup, cell, &mut run, &mut digest)?;
    }
    run.digest = digest.finish();
    Ok(run)
}

/// Runs one cell, adding its figures to `run` and its outcome to
/// `digest`.
fn run_cell(setup: &Setup, cell: &Cell, run: &mut Run, digest: &mut Digest) -> Result<(), String> {
    let world = &setup.world;
    let mut config = SimConfig::new(world.cluster);
    config.audit = false;
    config.retain_detail = setup.kind != Kind::EasyStreamSwf;
    let traced = setup.kind == Kind::TracePipeline;
    let stages = &mut run.stages;

    let started = Instant::now();
    let scheduler = setup.kind.strategy().build(&world.catalog, &world.model);
    let source = open_source(setup, cell)?;
    let (out, trace) = match &mut run.wrapped {
        Some(wrapped) => {
            let mut scheduler = TimedScheduler::new(scheduler);
            let mut source = TimedSource::new(source);
            let ran = engine_run(&mut source, &mut scheduler, world, &config, traced, stages);
            wrapped.absorb(scheduler, &source);
            ran
        }
        None => {
            let (mut scheduler, mut source) = (scheduler, source);
            engine_run(
                source.as_mut(),
                scheduler.as_mut(),
                world,
                &config,
                traced,
                stages,
            )
        }
    };
    let metrics = config.retain_detail.then(|| {
        let t = Instant::now();
        let m = out.metrics(&world.cluster);
        stages.metrics_ns += elapsed_ns(t);
        m
    });
    let opts = ReportOptions {
        title: Some(format!("nsbench {}", setup.kind.name())),
        total_cores: Some(world.cluster.total_cores()),
    };
    let rendered = match &trace {
        Some(trace) => Some(pipeline(trace, &out, world, &config, &opts, stages)?),
        None => None,
    };
    run.wall_s += started.elapsed().as_secs_f64();
    run.events += out.events_processed;
    run.peak_queue_depth = run.peak_queue_depth.max(out.peak_queue_depth);

    // Output check, outside the clock.
    if !out.complete() {
        return Err(format!("{} jobs left unscheduled", out.unscheduled.len()));
    }
    let accounted = out.completed_jobs + out.rejected.len() as u64;
    if accounted != setup.jobs as u64 {
        return Err(format!(
            "job conservation: {} completed + {} rejected != {} jobs",
            out.completed_jobs,
            out.rejected.len(),
            setup.jobs
        ));
    }
    outcome_digest(&out, digest);
    if let Some(m) = metrics {
        digest.f64(m.makespan);
        digest.f64(m.utilization);
        digest.f64(m.mean_response);
        digest.f64(m.scheduling_efficiency);
        digest.f64(m.computational_efficiency);
    }
    if let (Some(trace), Some((perfetto_json, markdown))) = (&trace, &rendered) {
        // The pipeline went through JSON; the report built directly from
        // the in-memory trace must say exactly the same.
        let direct = Report::from_trace(trace, &opts);
        if &direct.markdown != markdown || &direct.perfetto_json != perfetto_json {
            return Err("report from trace JSON differs from report from trace".into());
        }
        digest.bytes(markdown.as_bytes());
        digest.bytes(perfetto_json.as_bytes());
    }
    Ok(())
}

/// The engine call, timed into `stages.engine_ns`. For a materialized
/// cell this is exactly what `run` / `run_traced` do.
fn engine_run(
    source: &mut dyn JobSource,
    scheduler: &mut dyn Scheduler,
    world: &World,
    config: &SimConfig,
    traced: bool,
    stages: &mut Stages,
) -> (SimOutcome, Option<DecisionTrace>) {
    let started = Instant::now();
    let ran = if traced {
        let (out, trace) = run_streamed_traced(source, &world.matrix, scheduler, config);
        (out, Some(trace))
    } else {
        (run_streamed(source, &world.matrix, scheduler, config), None)
    };
    stages.engine_ns += elapsed_ns(started);
    ran
}

fn open_source<'a>(setup: &'a Setup, cell: &'a Cell) -> Result<Box<dyn JobSource + 'a>, String> {
    Ok(match cell {
        Cell::Jobs(workload) => Box::new(workload.source(CHUNK_JOBS)),
        Cell::Swf(file) => {
            let f =
                std::fs::File::open(&file.0).map_err(|e| format!("{}: {e}", file.0.display()))?;
            Box::new(swf::SwfSource::new(
                BufReader::new(f),
                &setup.world.catalog,
                swf::SwfImportOptions {
                    cores_per_node: setup.world.cluster.node.cores(),
                    ..Default::default()
                },
            ))
        }
    })
}

/// Audit, encode, parse, analyze and render — `nodeshare audit` followed
/// by `nodeshare report`, in memory. Returns (Perfetto JSON, markdown).
fn pipeline(
    trace: &DecisionTrace,
    out: &SimOutcome,
    world: &World,
    config: &SimConfig,
    opts: &ReportOptions,
    stages: &mut Stages,
) -> Result<(String, String), String> {
    let t = Instant::now();
    let verdict = Auditor::new(&world.matrix, config)
        .with_queue_order_check()
        .audit(trace, out);
    stages.audit_ns += elapsed_ns(t);
    if let Err(violations) = verdict {
        return Err(format!(
            "audit found {} violation(s), first: {}",
            violations.len(),
            violations[0]
        ));
    }
    let t = Instant::now();
    let json = trace.to_json();
    stages.encode_ns += elapsed_ns(t);
    stages.trace_bytes += json.len() as u64;
    let t = Instant::now();
    let data = TraceData::parse_json(&json).map_err(|e| format!("trace JSON: {e}"))?;
    stages.parse_ns += elapsed_ns(t);
    let t = Instant::now();
    let analysis = Analysis::from_trace(&data);
    stages.analyze_ns += elapsed_ns(t);
    let t = Instant::now();
    let perfetto_json = perfetto::render(&data);
    let markdown = summary::render_markdown(&analysis, opts);
    stages.render_ns += elapsed_ns(t);
    stages.bytes_out += (perfetto_json.len() + markdown.len()) as u64;
    Ok((perfetto_json, markdown))
}

/// FNV-1a over the words of an outcome.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The digest of the outcome's counts, integrals, and — when the run
/// retained detail — every job's start, end and width.
fn outcome_digest(out: &SimOutcome, d: &mut Digest) {
    d.u64(out.events_processed);
    d.u64(out.completed_jobs);
    d.u64(out.rejected.len() as u64);
    d.u64(out.unscheduled.len() as u64);
    d.f64(out.busy_core_seconds);
    d.f64(out.shared_core_seconds);
    d.f64(out.peak_queue_depth);
    d.f64(out.end_time);
    for r in &out.records {
        d.u64(r.id.0);
        d.f64(r.start);
        d.f64(r.finish);
        d.u64(u64::from(r.nodes));
        d.u64(u64::from(r.killed) | u64::from(r.shared_alloc) << 1);
    }
}
