#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **Machine-readable scheduler performance baseline.**
//!
//! Times fixed saturated campaigns (128 evaluation nodes) under the
//! strategies whose hot paths this workspace optimizes — EASY backfill,
//! CoBackfill, and conservative backfill — and writes the results as
//! JSON so CI can detect throughput regressions mechanically.
//!
//! ```text
//! # full baseline (slow; regenerates BENCH_sched.json at the repo root,
//! # including the quick campaigns the CI smoke compares against)
//! cargo run --release -p nodeshare-bench --bin perf_baseline
//!
//! # CI smoke: small campaigns only, compare against the committed file
//! cargo run --release -p nodeshare-bench --bin perf_baseline -- \
//!     --quick --check BENCH_sched.json --out /tmp/BENCH_sched.json
//! ```
//!
//! Options:
//!
//! * `--quick` — run only the small campaigns (seconds, not minutes).
//!   This also skips the million-job streamed EASY campaign that a full
//!   baseline appends (mode `stream`): one million generated jobs pulled
//!   through the chunked [`nodeshare_workload::JobSource`] in lean mode,
//!   recording events/sec *and* the process peak RSS so `--check` can
//!   fail a run whose streamed memory footprint stopped being bounded.
//! * `--out FILE` — where to write the JSON (default `BENCH_sched.json`).
//! * `--check FILE` — read a previously committed baseline and **exit
//!   non-zero** when any matching campaign (same
//!   strategy/mode/jobs/nodes/reps) regresses below the baseline's
//!   statistical bound, or when a baseline campaign of the current run's
//!   mode is missing from the fresh run entirely (a silently dropped
//!   campaign must not pass the gate). A malformed baseline entry is an
//!   error naming its index, never skipped.
//! * `--reference` — time the retained pre-optimization scheduler
//!   implementations instead (see `StrategyConfig::build_reference`), so
//!   the fast-path speedup can be measured on one build.
//! * `--campaign` — additionally time the saturated multi-seed campaign
//!   through the parallel orchestrator at 1 worker and at every
//!   available core, recording aggregate events/sec per worker count
//!   (mode `campaign`; the `reps` field carries the worker count and the
//!   top-level `cores` field the machine's parallelism). These entries
//!   are informational on other machines — the mode-scoped coverage gate
//!   never requires them during a `--quick` CI smoke.
//! * `--only LABEL` — restrict the grid to one strategy (e.g. time just
//!   the conservative reference without paying for the 20 000-job
//!   backfill campaigns).
//! * `--samples N` — timing replications per campaign (default 3). The
//!   committed samples give `--check` a spread to gate on: a fresh run
//!   fails when it lands below `mean - 3·max(σ, 0.10·mean)` of the
//!   baseline samples (the 10 % floor keeps near-deterministic campaigns
//!   from gating on vanishing σ).
//! * `--reps N` — additionally time N independent replications of each
//!   campaign executed in parallel with Rayon, reporting aggregate
//!   events/sec (demonstrates multi-core scaling of the harness).
//! * `--help` — print the usage line and exit 0. An unknown option or a
//!   missing or malformed value prints it to stderr and exits 2.
//!
//! Timing methodology: audit and telemetry are off (the committed numbers
//! are release-mode hot-path figures), workload generation is outside the
//! timed region, and each sample runs the whole campaign — scheduler
//! construction is cheap and campaigns are long enough to dominate noise.
//! The event count must be identical across samples (the simulation is
//! deterministic; a drift is a bug, not noise) and outcomes stay
//! bit-identical to the audited runs; only the clock is new here.

use nodeshare_bench::campaign::{run_campaign, CampaignSpec, CellOptions, PresetVariant};
use nodeshare_bench::orchestrator::Parallelism;
use nodeshare_bench::{seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_engine::{run, simulate, JsonValue, Observe, SimConfig};
use nodeshare_workload::WorkloadSpec;
use rayon::prelude::*;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed campaign.
struct Entry {
    strategy: &'static str,
    /// "full", "quick", "campaign", or "stream" — which grid the entry
    /// belongs to.
    mode: &'static str,
    jobs: u32,
    nodes: u32,
    reps: u32,
    events: u64,
    wall_s: f64,
    /// Mean over `samples`.
    events_per_sec: f64,
    /// Per-sample events/sec, in run order.
    samples: Vec<f64>,
    peak_queue_depth: u64,
    /// Process peak RSS (`VmHWM`) in MiB after the campaign, 0 when
    /// unknown (non-Linux, or entries that don't gate on memory). Only
    /// the streamed entries record it: the point of the streamed path is
    /// that resident memory is bounded by queue depth, not job count, so
    /// a blow-up here means streaming silently re-materialized.
    peak_rss_mib: f64,
}

/// A parsed baseline entry (see [`parse_baseline`]).
struct BaselineEntry {
    strategy: String,
    /// `None` on legacy schema-1 files, which carried no per-entry mode.
    mode: Option<String>,
    jobs: u32,
    nodes: u32,
    reps: u32,
    events_per_sec: f64,
    /// Empty on legacy single-sample baselines.
    samples: Vec<f64>,
    /// 0 on entries (or legacy files) that never measured memory.
    peak_rss_mib: f64,
}

/// Peak resident set (`VmHWM`) of this process in MiB, or 0 when the
/// platform doesn't expose it. A process-lifetime high-water mark: read
/// it right after the campaign whose footprint is being gated.
fn process_peak_rss_mib() -> f64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    if let Some(kib) = rest
                        .split_whitespace()
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                    {
                        return kib / 1024.0;
                    }
                }
            }
        }
    }
    0.0
}

/// The campaign grid: (label, config, full jobs, quick jobs, malleable
/// fraction). The adaptive entry runs with a third of the jobs carrying
/// reshape contracts so its timing covers the reshape hot path, not just
/// the EASY pass-through.
fn campaigns() -> Vec<(&'static str, StrategyConfig, u32, u32, f64)> {
    vec![
        (
            "easy-backfill",
            StrategyConfig::exclusive(StrategyKind::EasyBackfill),
            20_000,
            2_000,
            0.0,
        ),
        (
            "co-backfill",
            StrategyConfig::sharing(StrategyKind::CoBackfill),
            20_000,
            1_000,
            0.0,
        ),
        (
            "conservative",
            StrategyConfig::exclusive(StrategyKind::Conservative),
            4_000,
            500,
            0.0,
        ),
        (
            "adaptive",
            StrategyConfig::exclusive(StrategyKind::Adaptive),
            20_000,
            2_000,
            0.35,
        ),
    ]
}

/// Times one saturated campaign; audit/telemetry off so the clock sees
/// only the engine + policy hot path.
fn time_campaign(
    world: &World,
    cfg: &StrategyConfig,
    jobs: u32,
    malleable_fraction: f64,
    seed: u64,
    reference: bool,
) -> (u64, f64, u64) {
    let mut spec = world.saturated_spec(seed);
    spec.n_jobs = jobs as usize;
    spec.malleable_fraction = malleable_fraction;
    let workload = spec.generate(&world.catalog);
    let mut sim_cfg = SimConfig::new(world.cluster);
    sim_cfg.audit = false;
    let mut sched = if reference {
        cfg.build_reference(&world.catalog, &world.model)
    } else {
        cfg.build(&world.catalog, &world.model)
    };
    let started = Instant::now();
    let out = run(&workload, &world.matrix, sched.as_mut(), &sim_cfg);
    let wall = started.elapsed().as_secs_f64();
    assert!(
        out.complete(),
        "{}: {} jobs never scheduled",
        cfg.label(),
        out.unscheduled.len()
    );
    (
        out.events_processed,
        wall,
        out.queue_depth.max_value().max(0.0) as u64,
    )
}

/// Times `samples_n` replications of one campaign and folds them into an
/// [`Entry`]; the deterministic event count must not drift across
/// samples.
#[allow(clippy::too_many_arguments)]
fn sample_campaign(
    world: &World,
    label: &'static str,
    mode: &'static str,
    cfg: &StrategyConfig,
    jobs: u32,
    malleable_fraction: f64,
    nodes: u32,
    samples_n: u32,
    reference: bool,
) -> Entry {
    let mut samples = Vec::with_capacity(samples_n as usize);
    let mut walls = Vec::with_capacity(samples_n as usize);
    let mut events = 0u64;
    let mut peak = 0u64;
    for s in 0..samples_n.max(1) {
        let (ev, wall, pk) = time_campaign(world, cfg, jobs, malleable_fraction, 1_000, reference);
        if s == 0 {
            events = ev;
            peak = pk;
        } else {
            assert_eq!(
                ev, events,
                "{label}: event count drifted between samples — nondeterminism"
            );
        }
        samples.push(ev as f64 / wall.max(1e-9));
        walls.push(wall);
    }
    // detlint: allow(D4, wall-clock sample statistics; never a bit-compared artifact)
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    // detlint: allow(D4, wall-clock sample statistics; never a bit-compared artifact)
    let wall_mean = walls.iter().sum::<f64>() / walls.len() as f64;
    Entry {
        strategy: label,
        mode,
        jobs,
        nodes,
        reps: 1,
        events,
        wall_s: wall_mean,
        events_per_sec: mean,
        samples,
        peak_queue_depth: peak,
        peak_rss_mib: 0.0,
    }
}

fn measure(
    world: &World,
    quick: bool,
    reps: u32,
    reference: bool,
    samples_n: u32,
    only: Option<&str>,
) -> Vec<Entry> {
    let nodes = world.cluster.node_count;
    let mut entries = Vec::new();
    // A full baseline also times the quick grid, so one committed file
    // carries the campaigns the CI quick smoke checks against.
    let modes: &[&'static str] = if quick {
        &["quick"]
    } else {
        &["full", "quick"]
    };
    for &mode in modes {
        for (label, cfg, full_jobs, quick_jobs, mf) in campaigns() {
            if only.is_some_and(|o| o != label) {
                continue;
            }
            let jobs = if mode == "quick" {
                quick_jobs
            } else {
                full_jobs
            };
            eprintln!("timing {label} ({mode}): {jobs} jobs on {nodes} nodes x{samples_n} ...");
            entries.push(sample_campaign(
                world, label, mode, &cfg, jobs, mf, nodes, samples_n, reference,
            ));
            if reps > 1 {
                eprintln!("timing {label} ({mode}): {reps} parallel replications ...");
                let started = Instant::now();
                let per_rep: Vec<(u64, f64, u64)> = seeds(u64::from(reps))
                    .par_iter()
                    .map(|&seed| time_campaign(world, &cfg, jobs, mf, seed, reference))
                    .collect();
                let wall = started.elapsed().as_secs_f64();
                let events: u64 = per_rep.iter().map(|r| r.0).sum();
                let peak = per_rep.iter().map(|r| r.2).max().unwrap_or(0);
                let eps = events as f64 / wall.max(1e-9);
                entries.push(Entry {
                    strategy: label,
                    mode,
                    jobs,
                    nodes,
                    reps,
                    events,
                    wall_s: wall,
                    events_per_sec: eps,
                    samples: vec![eps],
                    peak_queue_depth: peak,
                    peak_rss_mib: 0.0,
                });
            }
        }
    }
    entries
}

/// Hand-written JSON (the vendored serde is a derive-marker stand-in;
/// structured output in this workspace is emitted directly). One entry
/// object per line, `samples` last so the line-oriented parser's scalar
/// field extraction never crosses the array.
fn to_json(entries: &[Entry], quick: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": 2,");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "baseline" }
    );
    // Context for the campaign-mode entries: parallel speedup is a
    // property of the machine that produced the file.
    let _ = writeln!(out, "  \"cores\": {},", rayon::current_num_threads());
    let _ = writeln!(out, "  \"entries\": [");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let samples = e
            .samples
            .iter()
            .map(|s| format!("{s:.0}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "    {{\"strategy\": \"{}\", \"mode\": \"{}\", \"jobs\": {}, \"nodes\": {}, \
             \"reps\": {}, \"events\": {}, \"wall_s\": {:.3}, \"events_per_sec\": {:.0}, \
             \"peak_queue_depth\": {}, \"peak_rss_mib\": {:.0}, \
             \"samples\": [{samples}]}}{comma}",
            e.strategy,
            e.mode,
            e.jobs,
            e.nodes,
            e.reps,
            e.events,
            e.wall_s,
            e.events_per_sec,
            e.peak_queue_depth,
            e.peak_rss_mib,
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Reads a baseline file this binary wrote (see [`to_json`]). Legacy
/// schema-1 entries carry no `mode`, `samples` or `peak_rss_mib`; any
/// other missing or mistyped field is an error naming the entry, so no
/// entry can slip past the gates.
fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    /// `key` decoded by `read`, or `default` when the key is absent.
    fn field<'a, T>(
        e: &'a JsonValue,
        key: &str,
        default: Option<T>,
        read: impl Fn(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        e.get(key)
            .map_or(default, read)
            .ok_or_else(|| format!("missing or mistyped \"{key}\""))
    }
    let count = |v: &JsonValue| v.as_u64().and_then(|n| u32::try_from(n).ok());
    let samples = |v: &JsonValue| v.as_array()?.iter().map(JsonValue::as_f64).collect();
    let entry = |e: &JsonValue| -> Result<BaselineEntry, String> {
        Ok(BaselineEntry {
            strategy: field(e, "strategy", None, JsonValue::as_str)?.to_string(),
            mode: field(e, "mode", Some(None), |v| v.as_str().map(Some))?.map(str::to_string),
            jobs: field(e, "jobs", None, count)?,
            nodes: field(e, "nodes", None, count)?,
            reps: field(e, "reps", None, count)?,
            events_per_sec: field(e, "events_per_sec", None, JsonValue::as_f64)?,
            samples: field(e, "samples", Some(Vec::new()), samples)?,
            peak_rss_mib: field(e, "peak_rss_mib", Some(0.0), JsonValue::as_f64)?,
        })
    };
    let doc = JsonValue::parse(text)?;
    let entries = doc.get("entries").and_then(JsonValue::as_array);
    entries
        .ok_or("missing top-level \"entries\" array")?
        .iter()
        .enumerate()
        .map(|(i, e)| entry(e).map_err(|msg| format!("entry {i}: {msg}")))
        .collect()
}

/// Whether a fresh entry and a baseline entry describe the same
/// campaign. Legacy baselines carry no mode; they match on shape alone.
fn matches(e: &Entry, b: &BaselineEntry) -> bool {
    b.strategy == e.strategy
        && b.mode.as_deref().is_none_or(|m| m == e.mode)
        && b.jobs == e.jobs
        && b.nodes == e.nodes
        && b.reps == e.reps
}

/// Compares `entries` against a committed baseline; returns the failure
/// messages (empty = pass).
///
/// Three gates:
///
/// * **Throughput.** With baseline samples, the bound is statistical:
///   fail below `mean − 3·max(σ, 0.10·mean)` of the recorded samples.
///   Legacy single-number baselines fall back to the blanket >2×
///   (ratio < 0.5) gate.
/// * **Memory.** When both sides measured peak RSS (streamed entries),
///   fail if the fresh run's high-water mark exceeds 1.5× the
///   baseline's — the streamed path's memory must stay a function of
///   queue depth, never of job count, and a materialization regression
///   shows up as a multiple, not a few percent.
/// * **Coverage.** Every baseline campaign of a mode this run measured
///   must have a fresh counterpart; a campaign that silently vanished
///   from the grid fails the check rather than being skipped.
fn check_against(entries: &[Entry], baseline: &[BaselineEntry]) -> Vec<String> {
    let mut failures = Vec::new();
    for e in entries {
        if e.peak_rss_mib > 0.0 {
            if let Some(b) = baseline
                .iter()
                .find(|b| matches(e, b) && b.peak_rss_mib > 0.0)
            {
                println!(
                    "check {}/{} jobs ({}): peak RSS {:.0} MiB vs baseline {:.0} MiB (limit 1.5x)",
                    e.strategy, e.jobs, e.mode, e.peak_rss_mib, b.peak_rss_mib
                );
                if e.peak_rss_mib > 1.5 * b.peak_rss_mib {
                    failures.push(format!(
                        "{} ({} jobs, {}) memory blow-up: peak RSS {:.0} MiB exceeds 1.5x \
                         baseline {:.0} MiB — streaming is no longer bounded",
                        e.strategy, e.jobs, e.mode, e.peak_rss_mib, b.peak_rss_mib
                    ));
                }
            }
        }
        match baseline.iter().find(|b| matches(e, b)) {
            Some(b) if b.samples.len() >= 2 => {
                let n = b.samples.len() as f64;
                // detlint: allow(D4, wall-clock sample statistics; never a bit-compared artifact)
                let mean = b.samples.iter().sum::<f64>() / n;
                let var = b
                    .samples
                    .iter()
                    .map(|s| (s - mean) * (s - mean))
                    // detlint: allow(D4, wall-clock sample statistics; never a bit-compared artifact)
                    .sum::<f64>()
                    / n;
                let sigma = var.sqrt().max(0.10 * mean);
                let bound = mean - 3.0 * sigma;
                println!(
                    "check {}/{} jobs/reps={}: {:.0} events/s vs baseline mean {:.0} - 3σ bound {:.0}",
                    e.strategy, e.jobs, e.reps, e.events_per_sec, mean, bound
                );
                if e.events_per_sec < bound {
                    failures.push(format!(
                        "{} ({} jobs, reps={}) regressed: {:.0} events/s below mean-3σ bound \
                         {:.0} (baseline mean {:.0} over {} samples)",
                        e.strategy,
                        e.jobs,
                        e.reps,
                        e.events_per_sec,
                        bound,
                        mean,
                        b.samples.len()
                    ));
                }
            }
            Some(b) => {
                let base_eps = b.events_per_sec;
                let ratio = e.events_per_sec / base_eps.max(1e-9);
                println!(
                    "check {}/{} jobs/reps={}: {:.0} events/s vs baseline {:.0} ({:.2}x, legacy gate)",
                    e.strategy, e.jobs, e.reps, e.events_per_sec, base_eps, ratio
                );
                if ratio < 0.5 {
                    failures.push(format!(
                        "{} ({} jobs, reps={}) regressed >2x: {:.0} events/s vs baseline {:.0}",
                        e.strategy, e.jobs, e.reps, e.events_per_sec, base_eps
                    ));
                }
            }
            None => println!(
                "check {}/{} jobs/reps={}: no matching baseline entry, skipped",
                e.strategy, e.jobs, e.reps
            ),
        }
    }
    // Coverage gate: a baseline campaign of a measured mode with no
    // fresh counterpart means the run silently dropped it.
    let measured_modes: Vec<&str> = entries.iter().map(|e| e.mode).collect();
    for b in baseline {
        let Some(mode) = b.mode.as_deref() else {
            continue; // legacy entries carry no mode to scope the check
        };
        if !measured_modes.contains(&mode) {
            continue; // e.g. full-grid baselines during a --quick smoke
        }
        if !entries.iter().any(|e| matches(e, b)) {
            failures.push(format!(
                "baseline entry {} ({mode}, {} jobs, reps={}) missing from the fresh run — \
                 campaign dropped without updating the baseline",
                b.strategy, b.jobs, b.reps
            ));
        }
    }
    failures
}

/// Times the saturated multi-seed co-backfill campaign through the
/// parallel orchestrator at one worker and at every available core,
/// recording aggregate events/sec per worker count (the `reps` field
/// carries the worker count). The speedup these entries document is
/// machine-dependent — the committed file's top-level `cores` field says
/// how many cores produced it — so the CI quick smoke never gates on
/// `campaign`-mode entries (its `--quick` run measures mode "quick"
/// only, and the coverage gate is mode-scoped).
fn measure_orchestrator(world: &World, quick: bool) -> Vec<Entry> {
    let n_jobs: u32 = if quick { 300 } else { 1_500 };
    let spec = CampaignSpec::on_evaluation_cluster(
        "perf",
        vec![PresetVariant::new(
            "saturated",
            WorkloadSpec {
                n_jobs: n_jobs as usize,
                ..world.saturated_spec(0)
            },
        )],
        vec![StrategyConfig::sharing(StrategyKind::CoBackfill).into()],
        seeds(6),
    );
    let mut workers = vec![1usize, rayon::current_num_threads()];
    workers.dedup();
    let mut entries = Vec::new();
    let mut serial_wall = None;
    for w in workers {
        eprintln!(
            "timing campaign orchestrator: {} cells x {n_jobs} jobs at {w} worker(s) ...",
            spec.n_cells()
        );
        let started = Instant::now();
        let run = run_campaign(world, &spec, Parallelism::Jobs(w), &CellOptions::default())
            .unwrap_or_else(|f| panic!("perf campaign failed: {}", f[0]));
        let wall = started.elapsed().as_secs_f64();
        let events: u64 = run.results.iter().map(|r| r.outcome.events_processed).sum();
        let peak = run
            .results
            .iter()
            .map(|r| r.outcome.queue_depth.max_value().max(0.0) as u64)
            .max()
            .unwrap_or(0);
        let eps = events as f64 / wall.max(1e-9);
        if w == 1 {
            serial_wall = Some(wall);
        } else if let Some(base) = serial_wall {
            eprintln!(
                "campaign speedup at {w} workers: {:.2}x over 1 worker",
                base / wall.max(1e-9)
            );
        }
        entries.push(Entry {
            strategy: "campaign-co-backfill",
            mode: "campaign",
            jobs: n_jobs,
            nodes: world.cluster.node_count,
            reps: w as u32,
            events,
            wall_s: wall,
            events_per_sec: eps,
            samples: vec![eps],
            peak_queue_depth: peak,
            peak_rss_mib: 0.0,
        });
    }
    entries
}

/// Times the million-job streamed EASY campaign: jobs are pulled from
/// the generator source chunk by chunk (8 192 at a time), the simulation
/// runs in lean mode (counters + occupancy accumulators, no per-job
/// records), and the process peak RSS is recorded alongside events/sec.
/// Only queued + in-flight jobs are ever resident, so `peak_rss_mib` is
/// a function of queue depth — not of the million — and `--check` gates
/// on it (mode `stream`; excluded from `--quick`, the mode-scoped
/// coverage gate never requires it there).
fn measure_streamed(world: &World) -> Entry {
    const STREAM_JOBS: u32 = 1_000_000;
    const CHUNK: usize = 8_192;
    // The ~90 % offered-load online mix: the queue drains, so depth (and
    // with it resident memory) stays bounded no matter how many jobs
    // flow through.
    let mut spec = world.online_spec(1_000);
    spec.n_jobs = STREAM_JOBS as usize;
    let cfg = StrategyConfig::exclusive(StrategyKind::EasyBackfill);
    let mut sched = cfg.build(&world.catalog, &world.model);
    let mut sim_cfg = SimConfig::new(world.cluster);
    sim_cfg.audit = false;
    sim_cfg.retain_detail = false;
    eprintln!(
        "timing easy-backfill (stream): {STREAM_JOBS} jobs, chunks of {CHUNK}, lean mode ..."
    );
    let mut source = spec.stream(&world.catalog, CHUNK);
    let started = Instant::now();
    let (out, _) = simulate(
        &mut source,
        &world.matrix,
        sched.as_mut(),
        &sim_cfg,
        Observe::default(),
    )
    .expect("the generator source always delivers");
    let wall = started.elapsed().as_secs_f64();
    let rss = process_peak_rss_mib();
    assert!(
        out.complete(),
        "streamed campaign left {} jobs unscheduled",
        out.unscheduled.len()
    );
    assert_eq!(
        out.completed_jobs + out.rejected.len() as u64,
        u64::from(STREAM_JOBS),
        "streamed campaign lost jobs"
    );
    let eps = out.events_processed as f64 / wall.max(1e-9);
    eprintln!(
        "streamed: {} events in {wall:.1}s ({eps:.0} events/s), peak queue {:.0}, peak RSS {rss:.0} MiB",
        out.events_processed, out.peak_queue_depth
    );
    Entry {
        strategy: "easy-backfill",
        mode: "stream",
        jobs: STREAM_JOBS,
        nodes: world.cluster.node_count,
        reps: 1,
        events: out.events_processed,
        wall_s: wall,
        events_per_sec: eps,
        samples: vec![eps],
        peak_queue_depth: out.peak_queue_depth.max(0.0) as u64,
        peak_rss_mib: rss,
    }
}

const USAGE: &str = "\
usage: perf_baseline [--quick] [--reference] [--campaign] [--only LABEL]
                     [--out FILE] [--check FILE] [--samples N] [--reps N]";

/// Reports a bad invocation with the usage text on stderr and exits 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("perf_baseline: {problem}\n{USAGE}");
    std::process::exit(2);
}

/// The value following `flag`, or a usage error when it is missing.
fn flag_value<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> &'a str {
    it.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// The integer following `flag`, or a usage error.
fn flag_count<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> u32 {
    let v = flag_value(it, flag);
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} takes an integer, got {v:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = String::from("BENCH_sched.json");
    let mut check_path: Option<String> = None;
    let mut reps: u32 = 1;
    let mut samples_n: u32 = 3;
    let mut reference = false;
    let mut campaign = false;
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--quick" => quick = true,
            "--reference" => reference = true,
            "--campaign" => campaign = true,
            "--out" => out_path = flag_value(&mut it, a).to_string(),
            "--check" => check_path = Some(flag_value(&mut it, a).to_string()),
            "--only" => only = Some(flag_value(&mut it, a).to_string()),
            "--samples" => samples_n = flag_count(&mut it, a),
            "--reps" => reps = flag_count(&mut it, a),
            other => usage_error(&format!("unknown option {other}")),
        }
    }

    let world = World::evaluation();
    let mut entries = measure(&world, quick, reps, reference, samples_n, only.as_deref());
    if campaign {
        entries.extend(measure_orchestrator(&world, quick));
    }
    // The million-job streamed campaign rides the full baseline only:
    // it takes whole seconds and its point — RSS bounded by queue depth,
    // not job count — needs the million to mean anything.
    if !quick && only.as_deref().is_none_or(|o| o == "easy-backfill") && !reference {
        entries.push(measure_streamed(&world));
    }
    for e in &entries {
        println!(
            "{:>14} {:>5} jobs={:<7} reps={} events={:<8} wall={:>8.3}s {:>9.0} events/s \
             ({} samples) peak_queue={} peak_rss_mib={:.0}",
            e.strategy,
            e.mode,
            e.jobs,
            e.reps,
            e.events,
            e.wall_s,
            e.events_per_sec,
            e.samples.len(),
            e.peak_queue_depth,
            e.peak_rss_mib
        );
    }
    let json = to_json(&entries, quick);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline =
            parse_baseline(&text).unwrap_or_else(|e| panic!("malformed baseline {path}: {e}"));
        let failures = check_against(&entries, &baseline);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("PERF REGRESSION: {f}");
            }
            std::process::exit(1);
        }
        println!("perf check against {path}: OK");
    }
}

#[cfg(test)]
mod tests {
    use super::parse_baseline;

    #[test]
    fn baseline_reader_keeps_every_entry_or_names_the_bad_one() {
        let committed = include_str!("../../../../BENCH_sched.json");
        let entries = parse_baseline(committed).expect("committed baseline parses");
        assert_eq!(entries.len(), committed.matches("\"strategy\"").count());

        let legacy = r#"{"entries": [{"strategy": "easy-backfill", "jobs": 10,
            "nodes": 4, "reps": 1, "events_per_sec": 5.5}]}"#;
        let e = &parse_baseline(legacy).expect("legacy entry")[0];
        assert!(e.mode.is_none() && e.samples.is_empty() && e.peak_rss_mib == 0.0);

        // A line scraper would drop this entry and let it escape the gates.
        let bad = legacy.replace("]}", r#", {"strategy": "conservative", "jobs": "10"}]}"#);
        assert_eq!(
            parse_baseline(&bad).err().as_deref(),
            Some("entry 1: missing or mistyped \"jobs\"")
        );
    }
}
