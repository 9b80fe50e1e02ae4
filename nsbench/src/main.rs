//! The nodeshare benchmark binary. See `README.md` beside this package
//! for the workloads, the metrics and what each layer metric should move.
//!
//! ```text
//! nsbench --workload NAME --seed N --seconds S --trace 0|1
//!         [--jobs N] [--expect-digest HEX] [--work-dir DIR]
//! ```
//!
//! One invocation runs one workload in its own process: it sets up
//! several times (median → `setup_s`), then runs the workload repeatedly
//! for `S` seconds and checks every run's output. With `--trace 0` the
//! runs are plain and the last stdout line carries the end-to-end
//! metrics; with `--trace 1` plain and layered runs alternate and it
//! carries the per-layer metrics. Diagnostics go to stderr.

mod layers;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use workloads::{run_once, setup, Kind, Run, Setup, Wrapped, DEFAULT_SEED};

/// Set-ups per invocation: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_BUDGET` is spent, up to `SETUP_MAX_REPS`. `setup_s` is their
/// median; cheap set-ups get many samples, which keeps it steady.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Plain runs made even when they take longer than `--seconds`.
const MIN_RUNS: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
    expect_digest: Option<u64>,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut jobs = None;
    let mut expect_digest = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--jobs" => jobs = Some(value.parse().map_err(|_| bad("a job count"))?),
            "--expect-digest" => {
                expect_digest = Some(u64::from_str_radix(&value, 16).map_err(|_| bad("hex"))?)
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
        jobs: jobs.unwrap_or(kind.default_jobs()),
        expect_digest,
        work_dir,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nsbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = bench(&args) {
        eprintln!("nsbench: {e}");
        std::process::exit(1);
    }
}

/// Per-run verdicts, tallied.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Digest every run must reproduce: `--expect-digest`, the pinned
    /// digest at the default seed and size, else the first run's.
    expected: Option<(u64, &'static str)>,
    events: Option<u64>,
}

impl Tally {
    /// Runs once, catching panics, and checks the result.
    fn attempt(&mut self, setup: &Setup, layered: bool) -> Option<Run> {
        self.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(|| run_once(setup, layered))) {
            Ok(Ok(run)) => self.check(&run).map(|()| run),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("run panicked".into()),
        };
        match verdict {
            Ok(run) => Some(run),
            Err(e) => {
                let kind = if layered { "layered" } else { "plain" };
                eprintln!("nsbench: {kind} run {} failed: {e}", self.attempted);
                self.failed += 1;
                None
            }
        }
    }

    fn check(&mut self, run: &Run) -> Result<(), String> {
        let (digest, source) = *self.expected.get_or_insert((run.digest, "the first run"));
        if run.digest != digest {
            return Err(format!(
                "digest {:016x} differs from {source}'s {digest:016x}",
                run.digest
            ));
        }
        let events = *self.events.get_or_insert(run.events);
        if run.events != events {
            return Err(format!("{} events, earlier runs {events}", run.events));
        }
        Ok(())
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let kind = args.kind;
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut current = None;
    let setup_started = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_started.elapsed() < SETUP_BUDGET && setup_s.len() < SETUP_MAX_REPS)
    {
        let started = Instant::now();
        let s = setup(kind, args.seed, args.jobs, &args.work_dir, setup_s.len())?;
        setup_s.push(started.elapsed().as_secs_f64());
        generate_s.push(s.generate_s);
        // The previous setup (and its input file) drops here, outside
        // the clock.
        current = Some(s);
    }
    let setup = current.ok_or("no setup")?;

    let mut tally = Tally::default();
    if let Some(d) = args.expect_digest {
        tally.expected = Some((d, "--expect-digest"));
    } else if args.seed == DEFAULT_SEED && args.jobs == kind.default_jobs() {
        tally.expected = Some((kind.pinned(), "the pinned digest"));
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut layered = Vec::new();
    let mut attempts = 0;
    while started.elapsed() < budget || attempts < MIN_RUNS * (1 + usize::from(args.trace)) {
        let is_layered = args.trace && attempts % 2 == 1;
        attempts += 1;
        if let Some(run) = tally.attempt(&setup, is_layered) {
            if is_layered { &mut layered } else { &mut plain }.push(run);
        }
    }
    let peak_rss_mib = peak_rss_mib();
    if !args.trace {
        // A plain-only invocation still proves the layered run agrees.
        if let Some(run) = tally.attempt(&setup, true) {
            layered.push(run);
        }
    }
    let walls: Vec<String> = plain.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    eprintln!(
        "nsbench: {} seed {} jobs {}: digest {:016x}, {} plain + {} layered runs ok, \
         {} failed, in {:.1} s; plain walls [{}] s",
        kind.name(),
        args.seed,
        args.jobs,
        tally.expected.map_or(0, |(d, _)| d),
        plain.len(),
        layered.len(),
        tally.failed,
        started.elapsed().as_secs_f64(),
        walls.join(" ")
    );

    let wall_s = median(plain.iter().map(|r| r.wall_s));
    let events = tally.events.unwrap_or(0) as f64;
    let metrics = if args.trace {
        layer_metrics(&plain, &layered, median(generate_s.iter().copied()))
    } else {
        vec![
            ("wall_s", wall_s, "s"),
            ("events_per_s", ratio(events, wall_s), "1/s"),
            ("peak_rss_mib", peak_rss_mib, "MiB"),
            ("setup_s", median(setup_s.iter().copied()), "s"),
        ]
    };
    print_result(&tally, &metrics);
    Ok(())
}

/// The per-layer metrics: medians over the layered runs, call latency
/// percentiles over every call of every layered run.
fn layer_metrics(
    plain: &[Run],
    layered: &[Run],
    generate_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&Run) -> f64| median(layered.iter().map(f));
    fn w(r: &Run) -> &Wrapped {
        r.wrapped
            .as_ref()
            .expect("layered runs carry wrapper statistics")
    }
    let ns = |v: u64| v as f64 * 1e-9;
    let sched_s = |r: &Run| ns(w(r).sched.busy_ns);
    let explain_s = |r: &Run| ns(w(r).explain_ns);
    let source_s = |r: &Run| ns(w(r).source_ns);
    let self_s = |r: &Run| ns(r.stages.engine_ns) - sched_s(r) - explain_s(r) - source_s(r);
    let mut calls: Vec<u64> = layered
        .iter()
        .flat_map(|r| w(r).sched.call_ns.iter().copied())
        .collect();
    calls.sort_unstable();
    let pct_us = |q: f64| match calls.len() {
        0 => 0.0,
        n => calls[((n - 1) as f64 * q).round() as usize] as f64 * 1e-3,
    };
    let plain_wall = median(plain.iter().map(|r| r.wall_s));
    vec![
        ("core.sched.busy_s", med(&sched_s), "s"),
        (
            "core.sched.share",
            med(&|r| ratio(sched_s(r), r.wall_s)),
            "ratio",
        ),
        (
            "core.sched.calls",
            med(&|r| w(r).sched.calls as f64),
            "count",
        ),
        (
            "core.sched.decisions",
            med(&|r| w(r).sched.decisions as f64),
            "count",
        ),
        (
            "core.sched.useful_ratio",
            med(&|r| ratio(w(r).sched.useful_calls as f64, w(r).sched.calls as f64)),
            "ratio",
        ),
        ("core.sched.call_p50_us", pct_us(0.50), "us"),
        ("core.sched.call_p99_us", pct_us(0.99), "us"),
        (
            "core.sched.queue_mean",
            med(&|r| ratio(w(r).sched.queue_sum as f64, w(r).sched.calls as f64)),
            "jobs",
        ),
        ("core.explain.busy_s", med(&explain_s), "s"),
        ("workload.source.busy_s", med(&source_s), "s"),
        (
            "workload.source.share",
            med(&|r| ratio(source_s(r), r.wall_s)),
            "ratio",
        ),
        (
            "workload.source.chunks",
            med(&|r| w(r).chunks as f64),
            "count",
        ),
        (
            "workload.source.jobs",
            med(&|r| w(r).source_jobs as f64),
            "count",
        ),
        ("workload.generate_s", generate_s, "s"),
        ("engine.self_s", med(&self_s), "s"),
        (
            "engine.self_ns_per_event",
            med(&|r| ratio(self_s(r) * 1e9, r.events as f64)),
            "ns",
        ),
        ("engine.events", med(&|r| r.events as f64), "count"),
        (
            "engine.peak_queue_depth",
            med(&|r| r.peak_queue_depth),
            "jobs",
        ),
        ("engine.audit.busy_s", med(&|r| ns(r.stages.audit_ns)), "s"),
        (
            "engine.trace.encode_s",
            med(&|r| ns(r.stages.encode_ns)),
            "s",
        ),
        (
            "engine.trace.bytes",
            med(&|r| r.stages.trace_bytes as f64),
            "bytes",
        ),
        ("report.parse_s", med(&|r| ns(r.stages.parse_ns)), "s"),
        ("report.analyze_s", med(&|r| ns(r.stages.analyze_ns)), "s"),
        ("report.render_s", med(&|r| ns(r.stages.render_ns)), "s"),
        (
            "report.bytes_out",
            med(&|r| r.stages.bytes_out as f64),
            "bytes",
        ),
        ("metrics.compute_s", med(&|r| ns(r.stages.metrics_ns)), "s"),
        (
            "bench.layer_overhead_frac",
            ratio(med(&|r| r.wall_s), plain_wall) - 1.0,
            "ratio",
        ),
    ]
}

fn print_result(tally: &Tally, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Median (mean of the middle two for an even count); 0 when empty.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// This process's peak resident set (`VmHWM`) in MiB; 0 where the
/// platform does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}
