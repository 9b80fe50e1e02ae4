#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-cli
//!
//! The `nodeshare` command-line tool: simulate campaigns, generate and
//! replay SWF workloads, and inspect the co-run structure — all of it
//! driving the library crates, nothing bespoke.
//!
//! ```text
//! nodeshare simulate --jobs 500 --seed 42 --strategy co-backfill
//! nodeshare simulate --source trace.swf --materialize --conf slurm.conf --strategy easy
//! nodeshare simulate --telemetry run.jsonl --log-level debug
//! nodeshare metrics --jobs 200 --strategy co-backfill
//! nodeshare workload --jobs 1000 --seed 1 --out campaign.swf
//! nodeshare pairs
//! nodeshare apps
//! ```

pub mod args;
pub mod report;

use args::{ArgError, Invocation};
use nodeshare_cluster::ClusterSpec;
use nodeshare_core::{PairingPolicy, PredictorKind, StrategyConfig, StrategyKind};
use nodeshare_engine::{
    DecisionTrace, FailureModel, Observe, SimConfig, SimOutcome, STREAM_CHUNK_JOBS,
};
use nodeshare_perf::{AppCatalog, CoRunTruth, ContentionModel, PairMatrix, Resource};
use nodeshare_slurm::SlurmConf;
use nodeshare_workload::{
    ctrace, source::collect_source, swf, ArrivalProcess, JobSource, Preset, Workload, WorkloadStats,
};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments.
    Args(ArgError),
    /// I/O failure (file given on the command line).
    Io(String, std::io::Error),
    /// Anything else with a user-facing message.
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Other(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Usage text.
pub const USAGE: &str = "\
nodeshare — node-sharing batch-system simulator

USAGE:
  nodeshare simulate [options]     run one campaign and print a report
  nodeshare metrics [options]      run one campaign and print its Prometheus
                                   metrics exposition instead of the report
  nodeshare audit [options]        run a campaign under the replay auditor
  nodeshare report TRACE.json      derive observability artifacts from a
                                   decision trace (see `audit --trace`)
  nodeshare workload [options]     generate a synthetic campaign as SWF
  nodeshare pairs                  print the co-run pair matrix
  nodeshare apps                   print the mini-app characterization
  nodeshare lint [--root DIR]      run the determinism & hygiene lint
                                   (rules D1-D5, see DESIGN.md); exits
                                   nonzero when findings exist
  nodeshare help                   this text

AUDIT OPTIONS (all SIMULATE options except --telemetry, plus):
  --trace FILE       dump the decision trace as JSON

REPORT OPTIONS:
  --in FILE          the decision-trace JSON (or pass it positionally)
  --perfetto FILE    Perfetto/Chrome trace output (default FILE.perfetto.json,
                     load at https://ui.perfetto.dev)
  --md FILE          markdown summary output     (default FILE.report.md)
  --cores N          machine core count, enables the utilization line
  --title T          report heading

TELEMETRY OPTIONS (simulate and metrics):
  --telemetry FILE   write sim-time JSONL samples to FILE and the
                     Prometheus exposition to FILE.prom
  --sample-interval S  sampling period in simulated seconds (default 300)
  --log-level SPEC   structured-log filter, e.g. `debug` or
                     `warn,engine=debug` (overrides NODESHARE_LOG)

SIMULATE OPTIONS:
  --strategy S       fcfs | first-fit | easy | conservative | adaptive |
                     co-first-fit | co-backfill | co-backfill-only
                     (default co-backfill)
  --pairing P        never | any | threshold          (default threshold)
  --predictor P      oracle | nway | class | oblivious (default class)
  --conf FILE        slurm.conf-style machine description
  --nodes N          cluster size when no --conf        (default 128)
  --source FILE      stream jobs from a workload trace instead of
                     generating or materializing: SWF or cluster-trace
                     CSV, pulled chunk by chunk so the file never has
                     to fit in memory
  --source-format F  swf | alibaba | google  (default: inferred from the
                     extension — .swf -> swf, .csv -> alibaba)
  --materialize      load --source fully into memory up front (restores
                     the workload-stats section of the report; reads an
                     SWF trace that is not submit-sorted)
  --lean             keep counters and occupancy integrals only, no
                     per-job records: bounded memory for million-job
                     streamed campaigns (simulate/metrics only;
                     incompatible with --csv)
  --jobs N           synthetic campaign size            (default 500)
  --seed S           workload seed                      (default 42)
  --preset P         evaluation | saturated | capability | capacity |
                     memory-heavy | spike               (default saturated)
  --rate R           Poisson arrivals per second (overrides the preset)
  --share-fraction F fraction of jobs opting into sharing (default 1.0)
  --malleable-fraction F  fraction of jobs carrying a width-malleability
                     contract the adaptive strategy may reshape (default 0)
  --mtbf-hours H     inject node failures with this per-node MTBF
  --checkpoint-mins M  salvage work at this checkpoint interval
  --duration-match T only pair jobs with walltime overlap ratio >= T,
                     for T in (0, 1]
  --learning         learn per-user estimate corrections (Tsafrir-style)
  --csv FILE         also write per-job records as CSV

WORKLOAD OPTIONS:
  --jobs N --seed S --rate R --share-fraction F --out FILE (default stdout)
";

/// Runs the CLI and returns the text to print.
pub fn run_cli<I, S>(argv: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut argv: Vec<String> = argv.into_iter().map(Into::into).collect();
    // `nodeshare CMD --help` (or `-h`) prints CMD's part of the usage.
    if argv.iter().skip(1).any(|a| a == "--help" || a == "-h") {
        if let Some(usage) = subcommand_usage(&argv[0]) {
            return Ok(usage);
        }
    }
    // `report` takes its input positionally (`nodeshare report t.json`);
    // rewrite that one token to `--in t.json` for the flag parser.
    if argv.first().map(String::as_str) == Some("report")
        && argv.get(1).is_some_and(|a| !a.starts_with("--"))
    {
        argv.splice(1..1, ["--in".to_string()]);
    }
    // `nodeshare --help` and `-h` are the conventional spellings of `help`.
    if matches!(argv.first().map(String::as_str), Some("--help" | "-h")) {
        argv[0] = "help".to_string();
    }
    let inv = Invocation::parse(argv)?;
    match inv.command.as_str() {
        "simulate" => simulate(&inv),
        "metrics" => metrics_cmd(&inv),
        "audit" => audit_cmd(&inv),
        "report" => report_cmd(&inv),
        "workload" => workload_cmd(&inv),
        "pairs" => pairs(&inv),
        "apps" => apps(&inv),
        "lint" => lint_cmd(&inv),
        "help" => Ok(USAGE.to_string()),
        other => Err(CliError::Other(format!(
            "unknown subcommand {other:?}; try `nodeshare help`"
        ))),
    }
}

/// The usage of one subcommand: its synopsis plus the [`USAGE`] option
/// sections it accepts. `None` for a name that is not a subcommand.
fn subcommand_usage(command: &str) -> Option<String> {
    let sections: &[&str] = match command {
        "help" => return Some(USAGE.to_string()),
        "simulate" | "metrics" => &["SIMULATE OPTIONS", "TELEMETRY OPTIONS"],
        "audit" => &["AUDIT OPTIONS", "SIMULATE OPTIONS"],
        "report" => &["REPORT OPTIONS"],
        "workload" => &["WORKLOAD OPTIONS"],
        _ => &[],
    };
    // The synopsis is the subcommand's line under USAGE plus its
    // continuation lines, which are indented deeper.
    let head = format!("  nodeshare {command} ");
    let mut lines = USAGE.lines().skip_while(|line| !line.starts_with(&head));
    let first = lines.next()?;
    let mut usage = String::new();
    for line in std::iter::once(first).chain(lines.take_while(|line| line.starts_with("   "))) {
        usage.push_str(&line[2..]);
        usage.push('\n');
    }
    for section in USAGE.split("\n\n") {
        if sections.iter().any(|name| section.starts_with(name)) {
            usage.push('\n');
            usage.push_str(section.trim_end());
            usage.push('\n');
        }
    }
    Some(usage)
}

fn parse_strategy(inv: &Invocation) -> Result<StrategyConfig, CliError> {
    let kind = match inv.get("strategy").unwrap_or("co-backfill") {
        "fcfs" => StrategyKind::Fcfs,
        "first-fit" => StrategyKind::FirstFit,
        "easy" | "easy-backfill" => StrategyKind::EasyBackfill,
        "conservative" => StrategyKind::Conservative,
        "adaptive" => StrategyKind::Adaptive,
        "co-first-fit" => StrategyKind::CoFirstFit,
        "co-backfill" => StrategyKind::CoBackfill,
        "co-backfill-only" => StrategyKind::CoBackfillOnly,
        other => return Err(CliError::Other(format!("unknown strategy {other:?}"))),
    };
    let pairing = match inv.get("pairing").unwrap_or("threshold") {
        "never" => PairingPolicy::Never,
        "any" => PairingPolicy::Any,
        "threshold" => PairingPolicy::default_threshold(),
        other => return Err(CliError::Other(format!("unknown pairing {other:?}"))),
    };
    let predictor = match inv.get("predictor").unwrap_or("class") {
        "oracle" => PredictorKind::Oracle,
        "nway" => PredictorKind::NWayOracle,
        "class" => PredictorKind::ClassBased,
        "oblivious" => PredictorKind::Oblivious,
        other => return Err(CliError::Other(format!("unknown predictor {other:?}"))),
    };
    let duration_match = match inv.get("duration-match") {
        None => None,
        Some(_) => {
            let theta: f64 = inv.num("duration-match", 1.0)?;
            if !(theta > 0.0 && theta <= 1.0) {
                return Err(CliError::Other(format!(
                    "--duration-match must be in (0, 1], got {theta}"
                )));
            }
            Some(theta)
        }
    };
    let config = if kind.shares() {
        StrategyConfig {
            pairing,
            predictor,
            duration_match,
            ..StrategyConfig::sharing(kind)
        }
    } else {
        StrategyConfig::exclusive(kind)
    };
    Ok(StrategyConfig {
        estimate_learning: inv.has("learning"),
        ..config
    })
}

fn load_cluster(inv: &Invocation) -> Result<ClusterSpec, CliError> {
    match inv.get("conf") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_string(), e))?;
            let conf = SlurmConf::parse(&text).map_err(|e| CliError::Other(e.to_string()))?;
            Ok(conf.cluster)
        }
        None => {
            let nodes: u32 = inv.num("nodes", 128)?;
            if nodes == 0 {
                return Err(CliError::Other("--nodes must be positive".into()));
            }
            Ok(ClusterSpec::new(
                nodes,
                nodeshare_cluster::NodeSpec::trinity_like(),
            ))
        }
    }
}

/// The trace dialect behind `--source`.
#[derive(Clone, Copy)]
enum SourceKind {
    Swf,
    Trace(ctrace::TraceFormat),
}

/// Resolves `--source-format`, falling back to the file extension
/// (`.swf` → SWF, `.csv` → Alibaba batch; Google digests share `.csv`
/// and must be named explicitly).
fn source_kind(inv: &Invocation, path: &str) -> Result<SourceKind, CliError> {
    if let Some(f) = inv.get("source-format") {
        if f.eq_ignore_ascii_case("swf") {
            return Ok(SourceKind::Swf);
        }
        return ctrace::TraceFormat::parse(f)
            .map(SourceKind::Trace)
            .ok_or_else(|| {
                CliError::Other(format!(
                    "unknown source format {f:?} (swf | alibaba | google)"
                ))
            });
    }
    let ext = std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
        .to_ascii_lowercase();
    match ext.as_str() {
        "swf" => Ok(SourceKind::Swf),
        "csv" => Ok(SourceKind::Trace(ctrace::TraceFormat::AlibabaBatch)),
        _ => Err(CliError::Other(format!(
            "cannot infer the trace dialect of {path:?}; \
             pass --source-format swf|alibaba|google"
        ))),
    }
}

/// Opens a trace file for buffered reading.
fn open_file(path: &str) -> Result<std::io::BufReader<std::fs::File>, CliError> {
    let file = std::fs::File::open(path).map_err(|e| CliError::Io(path.to_string(), e))?;
    Ok(std::io::BufReader::new(file))
}

/// How SWF processor counts map onto `cluster`'s nodes.
fn swf_options(cluster: &ClusterSpec) -> swf::SwfImportOptions {
    swf::SwfImportOptions {
        cores_per_node: cluster.node.cores(),
        ..Default::default()
    }
}

/// Opens `--source` as a streaming [`JobSource`]. The box borrows the
/// catalog, so it lives within the calling command's frame.
fn open_source<'c>(
    inv: &Invocation,
    path: &str,
    catalog: &'c AppCatalog,
    cluster: &ClusterSpec,
) -> Result<Box<dyn JobSource + 'c>, CliError> {
    let kind = source_kind(inv, path)?;
    let reader = open_file(path)?;
    Ok(match kind {
        SourceKind::Swf => Box::new(swf::SwfSource::new(reader, catalog, swf_options(cluster))),
        SourceKind::Trace(format) => Box::new(ctrace::CTraceSource::new(
            reader,
            format,
            catalog,
            ctrace::CTraceOptions {
                cores_per_node: cluster.node.cores(),
                node_mem_mib: cluster.node.mem_mib.try_into().unwrap_or(u32::MAX),
                ..Default::default()
            },
        )),
    })
}

fn build_workload(
    inv: &Invocation,
    catalog: &AppCatalog,
    cluster: &ClusterSpec,
) -> Result<Workload, CliError> {
    if let Some(path) = inv.get("source") {
        // Only the `--materialize` paths reach here; streamed runs feed
        // the engine directly and never build a Workload. An SWF trace
        // is read whole, so it need not be submit-sorted.
        let workload = match source_kind(inv, path)? {
            SourceKind::Swf => {
                swf::read_to_workload(open_file(path)?, catalog, swf_options(cluster))
                    .map(|(workload, _)| workload)
            }
            SourceKind::Trace(_) => {
                collect_source(open_source(inv, path, catalog, cluster)?.as_mut())
            }
        }
        .map_err(|e| CliError::Other(format!("{path}: {e}")))?;
        if workload.is_empty() {
            return Err(CliError::Other(format!("{path}: no usable jobs")));
        }
        return Ok(workload);
    }
    let preset_name = inv.get("preset").unwrap_or("saturated");
    let preset = Preset::parse(preset_name)
        .ok_or_else(|| CliError::Other(format!("unknown preset {preset_name:?}")))?;
    let mut spec = preset.spec(catalog, inv.num("seed", 42u64)?);
    spec.n_jobs = inv.num("jobs", 500usize)?;
    if inv.has("rate") {
        spec.arrival = ArrivalProcess::Poisson {
            rate: inv.num("rate", 0.0080f64)?,
        };
    }
    spec.share_fraction = inv.num("share-fraction", 1.0f64)?;
    spec.malleable_fraction = inv.num("malleable-fraction", 0.0f64)?;
    Ok(spec.generate(catalog))
}

/// Options shared by `simulate` and `audit`.
const SIM_OPTIONS: &[&str] = &[
    "strategy",
    "pairing",
    "predictor",
    "conf",
    "nodes",
    "source",
    "source-format",
    "materialize",
    "lean",
    "jobs",
    "seed",
    "rate",
    "preset",
    "share-fraction",
    "malleable-fraction",
    "mtbf-hours",
    "checkpoint-mins",
    "duration-match",
    "learning",
    "csv",
];

/// Options accepted by the commands that can attach a telemetry layer
/// (`simulate` and `metrics`; `audit` takes only `log-level`).
const OBSERVABILITY_OPTIONS: &[&str] = &["telemetry", "sample-interval", "log-level"];

/// Applies `--log-level` to the global structured logger.
fn apply_log_level(inv: &Invocation) -> Result<(), CliError> {
    if let Some(spec) = inv.get("log-level") {
        if spec.is_empty() {
            return Err(CliError::Other(
                "--log-level needs a filter spec, e.g. `debug` or `warn,engine=debug`".into(),
            ));
        }
        nodeshare_obs::logger::set_filter(nodeshare_obs::Filter::parse(spec));
    }
    Ok(())
}

/// Builds the telemetry layer requested on the command line, validating
/// the sampling interval. `force` makes one even without `--telemetry`
/// (the `metrics` subcommand always samples).
fn build_telemetry(
    inv: &Invocation,
    force: bool,
) -> Result<Option<nodeshare_engine::SimTelemetry>, CliError> {
    if !force && !inv.has("telemetry") {
        if inv.has("sample-interval") {
            return Err(CliError::Other(
                "--sample-interval requires --telemetry".into(),
            ));
        }
        return Ok(None);
    }
    let interval: f64 = inv.num("sample-interval", 300.0)?;
    if !interval.is_finite() || interval <= 0.0 {
        return Err(CliError::Other(
            "--sample-interval must be a positive number of seconds".into(),
        ));
    }
    Ok(Some(nodeshare_engine::SimTelemetry::new(interval)))
}

/// Writes the JSONL sample stream to `path` and the Prometheus
/// exposition next to it, returning a one-line note for the report.
fn write_telemetry(
    telemetry: &nodeshare_engine::SimTelemetry,
    path: &str,
) -> Result<String, CliError> {
    if path.is_empty() {
        return Err(CliError::Other("--telemetry needs a file path".into()));
    }
    std::fs::write(path, telemetry.jsonl()).map_err(|e| CliError::Io(path.to_string(), e))?;
    let prom = format!("{path}.prom");
    std::fs::write(&prom, telemetry.prometheus()).map_err(|e| CliError::Io(prom.clone(), e))?;
    Ok(format!(
        "telemetry: {} samples -> {path}; exposition -> {prom}",
        telemetry.samples().len()
    ))
}

/// Everything one campaign run needs except its job source.
struct Env {
    catalog: AppCatalog,
    truth: CoRunTruth,
    cluster: ClusterSpec,
    config: SimConfig,
    sched: Box<dyn nodeshare_engine::Scheduler>,
}

fn prepare_env(inv: &Invocation) -> Result<Env, CliError> {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let truth = CoRunTruth::build(&catalog, &model);
    let cluster = load_cluster(inv)?;
    let strategy = parse_strategy(inv)?;

    let mut config = SimConfig::new(cluster);
    if inv.has("lean") {
        if inv.has("csv") {
            return Err(CliError::Other(
                "--lean keeps no per-job records, so --csv has nothing to write".into(),
            ));
        }
        config.retain_detail = false;
        // Lean runs cannot be replay-audited (the auditor needs the
        // records); drop the implicit debug-build audit too.
        config.audit = false;
    }
    let mtbf_h: f64 = inv.num("mtbf-hours", 0.0)?;
    if mtbf_h > 0.0 {
        config.failures = Some(FailureModel {
            mtbf_per_node: mtbf_h * 3_600.0,
            repair_time: 1_800.0,
            seed: inv.num("seed", 42u64)? ^ 0xfa11,
        });
    }
    let ckpt_min: f64 = inv.num("checkpoint-mins", 0.0)?;
    if ckpt_min > 0.0 {
        config.checkpoint_interval = Some(ckpt_min * 60.0);
    }

    let sched = strategy.build(&catalog, &model);
    Ok(Env {
        catalog,
        truth,
        cluster,
        config,
        sched,
    })
}

/// Runs the campaign `inv` names with one [`nodeshare_engine::simulate`]
/// call. `--source` without `--materialize` streams the trace file
/// through the engine chunk by chunk; everything else goes through an
/// in-memory workload. Returns the outcome, the trace when `observe`
/// asks for one, and the report's workload section. A source that fails
/// mid-run (bad input) is a [`CliError`] naming the file and line.
fn run_campaign(
    inv: &Invocation,
    env: &mut Env,
    observe: Observe<'_>,
) -> Result<(SimOutcome, Option<DecisionTrace>, String), CliError> {
    let streamed_path = inv.get("source").filter(|_| !inv.has("materialize"));
    let workload;
    let (mut source, section): (Box<dyn JobSource + '_>, String) = match streamed_path {
        Some(path) => (
            open_source(inv, path, &env.catalog, &env.cluster)?,
            format!("workload: streamed from {path}"),
        ),
        None => {
            workload = build_workload(inv, &env.catalog, &env.cluster)?;
            let stats = WorkloadStats::of(&workload).report(Some(&env.catalog));
            (
                Box::new(workload.source(STREAM_CHUNK_JOBS)),
                format!("workload:\n{stats}"),
            )
        }
    };
    let (out, trace) = nodeshare_engine::simulate(
        source.as_mut(),
        &env.truth,
        env.sched.as_mut(),
        &env.config,
        observe,
    )
    .map_err(|e| CliError::Other(format!("{}: {e}", streamed_path.unwrap_or("workload"))))?;
    Ok((out, trace, section))
}

/// Fails when jobs were left in the queue forever.
fn require_complete(out: &SimOutcome) -> Result<(), CliError> {
    if out.complete() {
        return Ok(());
    }
    Err(CliError::Other(format!(
        "{} jobs could never be scheduled on this cluster (first: {:?})",
        out.unscheduled.len(),
        out.unscheduled.first()
    )))
}

/// Writes the per-job records to `--csv`, when given.
fn write_csv(inv: &Invocation, out: &SimOutcome, catalog: &AppCatalog) -> Result<(), CliError> {
    if let Some(path) = inv.get("csv") {
        std::fs::write(path, report::records_csv(out, catalog))
            .map_err(|e| CliError::Io(path.to_string(), e))?;
    }
    Ok(())
}

/// The compact per-run summary a lean campaign gets instead of the full
/// per-job report.
fn lean_summary(out: &nodeshare_engine::SimOutcome) -> String {
    format!(
        "lean run (per-job records not retained)\n\
         completed jobs:    {}\n\
         rejected jobs:     {}\n\
         makespan:          {:.0} s\n\
         peak queue depth:  {:.0}\n\
         busy core-seconds: {:.0} ({:.0} shared)",
        out.completed_jobs,
        out.rejected.len(),
        out.end_time,
        out.peak_queue_depth,
        out.busy_core_seconds,
        out.shared_core_seconds,
    )
}

fn simulate(inv: &Invocation) -> Result<String, CliError> {
    let known: Vec<&str> = [SIM_OPTIONS, OBSERVABILITY_OPTIONS].concat();
    inv.check_known(&known)?;
    apply_log_level(inv)?;
    let telemetry = build_telemetry(inv, false)?;
    let observe = Observe {
        trace: false,
        telemetry: telemetry.as_ref(),
    };
    // detlint: allow(D2, wall time feeds the human-facing timing banner only, never the compared artifacts)
    let started = std::time::Instant::now();
    let mut env = prepare_env(inv)?;
    let (out, _, workload_section) = run_campaign(inv, &mut env, observe)?;
    let wall = started.elapsed().as_secs_f64();
    require_complete(&out)?;
    write_csv(inv, &out, &env.catalog)?;
    let mut tail = String::new();
    if let (Some(t), Some(path)) = (telemetry.as_ref(), inv.get("telemetry")) {
        tail = format!("\n{}", write_telemetry(t, path)?);
    }
    let body = if env.config.retain_detail {
        report::render(&out, &env.cluster, &env.catalog)
    } else {
        lean_summary(&out)
    };
    Ok(format!(
        "{workload_section}\n{body}\nsimulated {} events in {:.3} s wall time ({:.0} events/s){tail}",
        out.events_processed,
        wall,
        out.events_processed as f64 / wall.max(1e-9),
    ))
}

/// `nodeshare metrics`: run the campaign with telemetry always on and
/// print the Prometheus exposition instead of the human report.
fn metrics_cmd(inv: &Invocation) -> Result<String, CliError> {
    let known: Vec<&str> = [SIM_OPTIONS, OBSERVABILITY_OPTIONS].concat();
    inv.check_known(&known)?;
    apply_log_level(inv)?;
    let telemetry = build_telemetry(inv, true)?.expect("forced telemetry");
    let mut env = prepare_env(inv)?;
    let observe = Observe {
        trace: false,
        telemetry: Some(&telemetry),
    };
    let (out, _, _) = run_campaign(inv, &mut env, observe)?;
    require_complete(&out)?;
    write_csv(inv, &out, &env.catalog)?;
    if let Some(path) = inv.get("telemetry") {
        write_telemetry(&telemetry, path)?;
    }
    Ok(telemetry.prometheus())
}

fn audit_cmd(inv: &Invocation) -> Result<String, CliError> {
    let mut known: Vec<&str> = SIM_OPTIONS.to_vec();
    known.push("trace");
    known.push("log-level");
    inv.check_known(&known)?;
    apply_log_level(inv)?;
    if inv.has("lean") {
        return Err(CliError::Other(
            "--lean drops the per-job records the replay auditor verifies; \
             audit runs need full detail"
                .into(),
        ));
    }
    // The auditor runs explicitly below, with the stricter queue-order
    // check on; disable the engine's own implicit audit-and-panic.
    let mut env = prepare_env(inv)?;
    env.config.audit = false;
    let observe = Observe {
        trace: true,
        telemetry: None,
    };
    let (out, trace, _) = run_campaign(inv, &mut env, observe)?;
    let trace = trace.expect("tracing was requested");
    if let Some(path) = inv.get("trace") {
        std::fs::write(path, trace.to_json()).map_err(|e| CliError::Io(path.to_string(), e))?;
    }
    write_csv(inv, &out, &env.catalog)?;
    let verdict = nodeshare_engine::Auditor::new(&env.truth, &env.config)
        .with_queue_order_check()
        .audit(&trace, &out);
    match verdict {
        Ok(summary) => Ok(report::audit_report(&out, &summary, inv.get("trace"))),
        Err(violations) => {
            let mut msg = format!(
                "audit of {} FAILED with {} violation(s):",
                out.scheduler,
                violations.len()
            );
            for v in &violations {
                msg.push_str("\n  ");
                msg.push_str(&v.to_string());
            }
            Err(CliError::Other(msg))
        }
    }
}

/// `nodeshare report`: turn a decision-trace JSON file into a Perfetto
/// trace and a markdown summary.
fn report_cmd(inv: &Invocation) -> Result<String, CliError> {
    inv.check_known(&["in", "perfetto", "md", "cores", "title"])?;
    let input = inv.get("in").filter(|p| !p.is_empty()).ok_or_else(|| {
        CliError::Other(
            "report needs a trace file: `nodeshare report trace.json` \
             (produce one with `nodeshare audit --trace trace.json`)"
                .into(),
        )
    })?;
    let text = std::fs::read_to_string(input).map_err(|e| CliError::Io(input.to_string(), e))?;

    let cores: u64 = inv.num("cores", 0)?;
    let opts = nodeshare_report::ReportOptions {
        title: Some(
            inv.get("title")
                .map(str::to_string)
                .unwrap_or_else(|| format!("nodeshare run report: {input}")),
        ),
        total_cores: (cores > 0).then_some(cores),
    };
    let rep = nodeshare_report::Report::from_json(&text, &opts)
        .map_err(|e| CliError::Other(format!("{input}: {e}")))?;

    let perfetto_path = inv
        .get("perfetto")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{input}.perfetto.json"));
    let md_path = inv
        .get("md")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{input}.report.md"));
    std::fs::write(&perfetto_path, &rep.perfetto_json)
        .map_err(|e| CliError::Io(perfetto_path.clone(), e))?;
    std::fs::write(&md_path, &rep.markdown).map_err(|e| CliError::Io(md_path.clone(), e))?;

    Ok(format!(
        "{}\nperfetto trace -> {perfetto_path} (open at https://ui.perfetto.dev)\n\
         markdown summary -> {md_path}\n",
        rep.markdown.trim_end(),
    ))
}

fn workload_cmd(inv: &Invocation) -> Result<String, CliError> {
    inv.check_known(&[
        "jobs",
        "seed",
        "rate",
        "preset",
        "share-fraction",
        "malleable-fraction",
        "out",
    ])?;
    let catalog = AppCatalog::trinity();
    let preset_name = inv.get("preset").unwrap_or("saturated");
    let preset = Preset::parse(preset_name)
        .ok_or_else(|| CliError::Other(format!("unknown preset {preset_name:?}")))?;
    let mut spec = preset.spec(&catalog, inv.num("seed", 42u64)?);
    spec.n_jobs = inv.num("jobs", 1000usize)?;
    if inv.has("rate") {
        spec.arrival = ArrivalProcess::Poisson {
            rate: inv.num("rate", 0.0080f64)?,
        };
    }
    spec.share_fraction = inv.num("share-fraction", 1.0f64)?;
    spec.malleable_fraction = inv.num("malleable-fraction", 0.0f64)?;
    let workload = spec.generate(&catalog);
    let cores = nodeshare_cluster::NodeSpec::trinity_like().cores();
    let text = swf::write(&workload, cores);
    match inv.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| CliError::Io(path.to_string(), e))?;
            Ok(format!(
                "wrote {} jobs to {path}\n{}",
                workload.len(),
                WorkloadStats::of(&workload).report(Some(&catalog))
            ))
        }
        None => Ok(text),
    }
}

fn pairs(inv: &Invocation) -> Result<String, CliError> {
    inv.check_known(&[])?;
    let catalog = AppCatalog::trinity();
    let matrix = PairMatrix::build(&catalog, &ContentionModel::calibrated());
    let mut out = String::from("combined co-run throughput (row + column on one node):\n\n");
    out.push_str(&format!("{:>10}", ""));
    for b in catalog.iter() {
        out.push_str(&format!("{:>10}", b.name));
    }
    out.push('\n');
    for a in catalog.iter() {
        out.push_str(&format!("{:>10}", a.name));
        for b in catalog.iter() {
            out.push_str(&format!("{:>10.2}", matrix.combined_throughput(a.id, b.id)));
        }
        out.push('\n');
    }
    Ok(out)
}

fn apps(inv: &Invocation) -> Result<String, CliError> {
    inv.check_known(&[])?;
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let mut t = nodeshare_metrics::Table::new(vec![
        "app", "class", "issue", "membw", "llc", "net", "mem/node", "smt-self",
    ]);
    for app in catalog.iter() {
        t.row(vec![
            app.name.clone(),
            app.class.label().to_string(),
            format!("{:.2}", app.demand.get(Resource::IssueSlots)),
            format!("{:.2}", app.demand.get(Resource::MemBandwidth)),
            format!("{:.2}", app.demand.get(Resource::LlcCapacity)),
            format!("{:.2}", app.demand.get(Resource::Network)),
            format!("{} GiB", app.mem_per_node_mib / 1024),
            format!("{:.2}x", model.smt_self_speedup(&app.demand)),
        ]);
    }
    Ok(t.render())
}

/// `nodeshare lint`: the determinism & hygiene gate (DESIGN.md,
/// "Determinism contract"), same engine as `cargo run -p detlint`.
/// Clean → the report text; findings → an error, so the binary exits
/// nonzero and the command composes into shell gates.
fn lint_cmd(inv: &Invocation) -> Result<String, CliError> {
    inv.check_known(&["root"])?;
    let start = match inv.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::current_dir().map_err(|e| CliError::Io(".".into(), e))?,
    };
    let root = detlint::find_root(&start).ok_or_else(|| {
        CliError::Other(format!(
            "no detlint.toml found at or above {}",
            start.display()
        ))
    })?;
    let cfg = detlint::load_config(&root).map_err(CliError::Other)?;
    let report = detlint::scan_workspace(&root, &cfg).map_err(CliError::Other)?;
    let rendered = detlint::render_report(&report).trim_end().to_string();
    if report.findings.is_empty() {
        Ok(rendered)
    } else {
        Err(CliError::Other(rendered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_cli(["help"]).unwrap().contains("USAGE"));
        assert!(run_cli(["frobnicate"]).is_err());
        assert!(run_cli(Vec::<String>::new()).is_err());
    }

    #[test]
    fn lint_runs_clean_on_this_workspace() {
        let out = run_cli(["lint", "--root", env!("CARGO_MANIFEST_DIR")]).unwrap();
        assert!(out.contains("detlint: clean"), "{out}");
        assert!(out.contains("D1/D2/D3/D4/D5"), "{out}");
        // A start dir with no detlint.toml above it is a clean error.
        assert!(run_cli(["lint", "--root", "/"]).is_err());
    }

    #[test]
    fn simulate_small_campaign_end_to_end() {
        let out = run_cli([
            "simulate",
            "--jobs",
            "60",
            "--seed",
            "7",
            "--nodes",
            "32",
            "--rate",
            "0.02",
            "--strategy",
            "co-backfill",
        ])
        .unwrap();
        assert!(out.contains("nodeshare report: co-backfill"));
        assert!(out.contains("computational efficiency"));
        assert!(out.contains("jobs 60"));
        assert!(out.contains("events/s"), "summary reports throughput");
    }

    #[test]
    fn simulate_rejects_bad_options() {
        assert!(run_cli(["simulate", "--strategy", "magic"]).is_err());
        assert!(run_cli(["simulate", "--pairing", "sometimes"]).is_err());
        assert!(run_cli(["simulate", "--predictor", "psychic"]).is_err());
        assert!(run_cli(["simulate", "--bogus", "1"]).is_err());
        assert!(run_cli(["simulate", "--nodes", "0"]).is_err());
        assert!(run_cli(["simulate", "--jobs", "NaNcy"]).is_err());
    }

    #[test]
    fn exclusive_strategies_ignore_pairing_flags() {
        let out = run_cli([
            "simulate",
            "--jobs",
            "30",
            "--nodes",
            "32",
            "--strategy",
            "easy",
            "--pairing",
            "any",
        ])
        .unwrap();
        assert!(out.contains("easy-backfill"));
        assert!(out.contains("shared node-time 0.0%"));
    }

    #[test]
    fn workload_roundtrips_through_simulate() {
        let dir = std::env::temp_dir().join("nodeshare_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.swf");
        let path_str = path.to_str().unwrap();
        let out = run_cli(["workload", "--jobs", "40", "--seed", "3", "--out", path_str]).unwrap();
        assert!(out.contains("wrote 40 jobs"));
        let out = run_cli([
            "simulate",
            "--source",
            path_str,
            "--materialize",
            "--nodes",
            "64",
            "--strategy",
            "first-fit",
        ])
        .unwrap();
        assert!(out.contains("first-fit"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn streamed_source_matches_materialized_byte_for_byte() {
        let dir = std::env::temp_dir().join("nodeshare_cli_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let swf_path = dir.join("campaign.swf");
        let swf_str = swf_path.to_str().unwrap();
        run_cli(["workload", "--jobs", "60", "--seed", "9", "--out", swf_str]).unwrap();
        let streamed_csv = dir.join("streamed.csv");
        let materialized_csv = dir.join("materialized.csv");
        let base = ["--nodes", "64", "--strategy", "easy"];
        let out = run_cli(
            [
                "simulate",
                "--source",
                swf_str,
                "--csv",
                streamed_csv.to_str().unwrap(),
            ]
            .into_iter()
            .chain(base)
            .map(str::to_string)
            .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(out.contains(&format!("streamed from {swf_str}")));
        run_cli(
            [
                "simulate",
                "--source",
                swf_str,
                "--materialize",
                "--csv",
                materialized_csv.to_str().unwrap(),
            ]
            .into_iter()
            .chain(base)
            .map(str::to_string)
            .collect::<Vec<_>>(),
        )
        .unwrap();
        let streamed = std::fs::read_to_string(&streamed_csv).unwrap();
        let materialized = std::fs::read_to_string(&materialized_csv).unwrap();
        assert_eq!(streamed, materialized, "streamed != materialized records");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lean_simulate_prints_counts_not_records() {
        let out = run_cli([
            "simulate", "--jobs", "50", "--seed", "7", "--nodes", "32", "--rate", "0.02", "--lean",
        ])
        .unwrap();
        assert!(out.contains("lean run"), "got: {out}");
        assert!(out.contains("completed jobs:    50"), "got: {out}");
        assert!(out.contains("events/s"));
        assert!(
            !out.contains("computational efficiency"),
            "lean runs keep no records, so there is no per-job report"
        );
    }

    #[test]
    fn lean_and_source_flags_validate() {
        // No records -> nothing for --csv to write.
        assert!(run_cli(["simulate", "--jobs", "10", "--lean", "--csv", "/tmp/x.csv"]).is_err());
        // The auditor replays per-job records; lean has none.
        assert!(run_cli(["audit", "--jobs", "10", "--lean"]).is_err());
        // `--source FILE --materialize` replaced the old `--swf FILE`.
        assert!(run_cli(["simulate", "--swf", "a.swf"]).is_err());
        // Unknown dialect name, and an extension nothing can be inferred from.
        assert!(run_cli(["simulate", "--source", "t.csv", "--source-format", "borg"]).is_err());
        assert!(run_cli(["simulate", "--source", "trace.dat"]).is_err());
    }

    #[test]
    fn audit_streams_a_source_trace() {
        let dir = std::env::temp_dir().join("nodeshare_cli_audit_stream_test");
        std::fs::create_dir_all(&dir).unwrap();
        let swf_path = dir.join("campaign.swf");
        let swf_str = swf_path.to_str().unwrap();
        run_cli(["workload", "--jobs", "40", "--seed", "4", "--out", swf_str]).unwrap();
        let out = run_cli([
            "audit",
            "--source",
            swf_str,
            "--nodes",
            "64",
            "--strategy",
            "co-backfill",
        ])
        .unwrap();
        assert!(out.contains("all invariants hold"), "got: {out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pairs_and_apps_render() {
        let p = run_cli(["pairs"]).unwrap();
        assert!(p.contains("miniDFT"));
        let a = run_cli(["apps"]).unwrap();
        assert!(a.contains("smt-self"));
        // Extra flags are rejected.
        assert!(run_cli(["pairs", "--x", "1"]).is_err());
    }

    #[test]
    fn audit_subcommand_verifies_a_campaign() {
        let dir = std::env::temp_dir().join("nodeshare_cli_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let trace_str = trace.to_str().unwrap();
        let out = run_cli([
            "audit",
            "--jobs",
            "50",
            "--seed",
            "5",
            "--nodes",
            "32",
            "--rate",
            "0.02",
            "--strategy",
            "co-backfill",
            "--trace",
            trace_str,
        ])
        .unwrap();
        assert!(out.contains("nodeshare audit: co-backfill"));
        assert!(out.contains("all invariants hold"));
        assert!(out.contains(trace_str));
        let json = std::fs::read_to_string(&trace).unwrap();
        assert!(json.starts_with("{\"events\":["));
        assert!(json.contains("\"type\":\"started\""));
        std::fs::remove_file(trace).ok();

        // Exclusive strategies audit cleanly too, with zero shared starts.
        let out = run_cli([
            "audit",
            "--jobs",
            "30",
            "--nodes",
            "32",
            "--strategy",
            "fcfs",
        ])
        .unwrap();
        assert!(out.contains("(0 shared)"));
    }

    #[test]
    fn report_subcommand_turns_a_trace_into_artifacts() {
        let dir = std::env::temp_dir().join("nodeshare_cli_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let trace_str = trace.to_str().unwrap();
        run_cli([
            "audit",
            "--jobs",
            "40",
            "--seed",
            "5",
            "--nodes",
            "32",
            "--rate",
            "0.02",
            "--strategy",
            "co-backfill",
            "--trace",
            trace_str,
        ])
        .unwrap();

        // Positional input form, default output paths.
        let out = run_cli(["report", trace_str, "--cores", "1024"]).unwrap();
        assert!(out.contains("## Queue waits"), "{out}");
        assert!(out.contains("utilization over makespan (1024 cores)"));
        assert!(out.contains("ui.perfetto.dev"));
        let perfetto = std::fs::read_to_string(format!("{trace_str}.perfetto.json")).unwrap();
        assert!(perfetto.starts_with("{\"traceEvents\":["));
        assert!(perfetto.contains("\"ph\":\"X\""));
        let md = std::fs::read_to_string(format!("{trace_str}.report.md")).unwrap();
        assert!(md.contains("## Start attribution"));

        // Explicit flags override the defaults.
        let p2 = dir.join("out.perfetto.json");
        let m2 = dir.join("out.md");
        run_cli([
            "report",
            "--in",
            trace_str,
            "--perfetto",
            p2.to_str().unwrap(),
            "--md",
            m2.to_str().unwrap(),
            "--title",
            "my cell",
        ])
        .unwrap();
        assert!(std::fs::read_to_string(&m2)
            .unwrap()
            .starts_with("# my cell"));
        assert!(p2.exists());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_subcommand_validates_input() {
        // No input file.
        assert!(run_cli(["report"]).is_err());
        // Missing file is an I/O error.
        assert!(matches!(
            run_cli(["report", "/nonexistent/trace.json"]),
            Err(CliError::Io(..))
        ));
        // Malformed trace JSON is a clean error, not a panic.
        let dir = std::env::temp_dir().join("nodeshare_cli_report_bad_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"not\":\"a trace\"}").unwrap();
        let err = run_cli(["report", bad.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("events"), "{err}");
        // Unknown flags are rejected.
        assert!(run_cli(["report", "--in", "x", "--bogus", "1"]).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_flag_writes_jsonl_and_prometheus() {
        let dir = std::env::temp_dir().join("nodeshare_cli_telemetry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("samples.jsonl");
        let path_str = path.to_str().unwrap();
        let out = run_cli([
            "simulate",
            "--jobs",
            "60",
            "--seed",
            "7",
            "--nodes",
            "32",
            "--rate",
            "0.02",
            "--telemetry",
            path_str,
            "--sample-interval",
            "200",
        ])
        .unwrap();
        assert!(out.contains("telemetry:"), "report should note the files");
        let jsonl = std::fs::read_to_string(&path).unwrap();
        assert!(
            jsonl.lines().count() >= 20,
            "expected a dense stream, got {} lines",
            jsonl.lines().count()
        );
        assert!(jsonl.lines().all(|l| l.starts_with("{\"t\":")));
        let prom_path = format!("{path_str}.prom");
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE sched_decisions_total counter"));
        assert!(prom.contains("# TYPE sim_nodes_occupied gauge"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(prom_path).ok();
    }

    #[test]
    fn metrics_subcommand_prints_exposition() {
        let out = run_cli([
            "metrics", "--jobs", "40", "--seed", "3", "--nodes", "32", "--rate", "0.02",
        ])
        .unwrap();
        assert!(out.contains("# TYPE sched_decisions_total counter"));
        assert!(out.contains("# TYPE sim_queue_depth gauge"));
        assert!(out.contains("# TYPE sched_backfill_scan_depth histogram"));
        assert!(out.contains("sim_strategy_info{strategy=\"co-backfill\"} 1"));
    }

    #[test]
    fn telemetry_options_are_validated() {
        // Non-positive or malformed sampling intervals are rejected.
        let err = run_cli([
            "simulate",
            "--telemetry",
            "/tmp/x",
            "--sample-interval",
            "0",
        ]);
        assert!(err.is_err());
        let err = run_cli([
            "simulate",
            "--telemetry",
            "/tmp/x",
            "--sample-interval",
            "soon",
        ]);
        assert!(err.is_err());
        // --sample-interval without --telemetry is an error, not a no-op.
        assert!(run_cli(["simulate", "--jobs", "5", "--sample-interval", "60"]).is_err());
        // audit does not take the telemetry flags.
        assert!(run_cli(["audit", "--jobs", "5", "--telemetry", "/tmp/x"]).is_err());
        // An empty log-level spec is rejected before it can silence output.
        assert!(run_cli(["simulate", "--jobs", "5", "--log-level", "--seed", "1"]).is_err());
    }

    #[test]
    fn missing_files_error_cleanly() {
        for mode in ["--lean", "--materialize"] {
            let err =
                run_cli(["simulate", "--source", "/nonexistent/trace.swf", mode]).unwrap_err();
            assert!(matches!(err, CliError::Io(..)), "{mode}: {err}");
        }
        let err = run_cli(["simulate", "--conf", "/nonexistent/slurm.conf"]).unwrap_err();
        assert!(matches!(err, CliError::Io(..)));
    }
}

#[cfg(test)]
mod refinement_tests {
    use super::*;

    #[test]
    fn learning_and_duration_match_flags_work() {
        let out = run_cli([
            "simulate",
            "--jobs",
            "50",
            "--nodes",
            "32",
            "--rate",
            "0.03",
            "--strategy",
            "co-backfill",
            "--duration-match",
            "0.5",
            "--learning",
        ])
        .unwrap();
        assert!(out.contains("co-backfill"));
        let out = run_cli([
            "simulate",
            "--jobs",
            "30",
            "--nodes",
            "32",
            "--strategy",
            "co-first-fit",
            "--duration-match",
            "0.3",
        ])
        .unwrap();
        assert!(out.contains("co-first-fit"));
    }
}
