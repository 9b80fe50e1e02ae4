//! Runtime telemetry for simulation runs: pre-registered instruments over
//! a [`MetricsRegistry`], plus a JSONL time-series sampler driven by
//! simulation time.
//!
//! This is the *runtime* observability companion to the correctness layer
//! in [`crate::trace`]/[`crate::audit`]: where the decision trace records
//! *what* the scheduler did for later replay, telemetry exposes *how* the
//! run is behaving while it happens — queue depth, occupancy, backfill
//! scan cost, pairing hit rate, event latencies — in two exportable
//! forms: a Prometheus text exposition and a JSONL stream of periodic
//! [`TelemetrySample`]s.
//!
//! Telemetry is strictly opt-in: [`crate::sim::run`] carries no telemetry
//! and pays only an `Option` check per instrumentation site, so the
//! benchmark hot path is unchanged when it is off.

use crate::json::JsonValue;
use nodeshare_cluster::Cluster;
use nodeshare_obs::{exponential_buckets, Counter, Gauge, Histogram, MetricsRegistry, SpanTimer};
use nodeshare_workload::Seconds;
use std::sync::Mutex;

/// Scheduler-side instruments, exposed to policies through
/// [`crate::SchedContext::telemetry`]. All handles are cheap atomic
/// cells; policies update them directly on their hot paths.
#[derive(Debug)]
pub struct SchedTelemetry {
    /// Start decisions returned by the policy (counted by the engine, so
    /// every policy is covered).
    pub decisions: Counter,
    /// Queue-head starts (the job that was first in line).
    pub head_started: Counter,
    /// Backfill scan depth summed over passes (see
    /// [`SchedTelemetry::backfill_scan_depth`]).
    pub backfill_scanned: Counter,
    /// Backfill candidates actually started.
    pub backfill_started: Counter,
    /// Per backfill pass, the queue position behind the head where the
    /// scan stopped: the started candidate's, or the last candidate's
    /// when none started. A property of the decision, so memoized and
    /// exhaustive scans report the same depth.
    pub backfill_scan_depth: Histogram,
    /// Pairing-compatibility evaluations performed (candidate partial
    /// node vs. its resident stack). Work done, not a property of the
    /// decision: cached planners skip evaluations and count fewer.
    pub pairing_queries: Counter,
    /// Pairing evaluations that accepted the candidate node.
    pub pairing_hits: Counter,
    /// Completed-job records digested by learning wrappers.
    pub learning_updates: Counter,
    /// Wall-clock time of one placement scan (the Planner/backfill pass
    /// that searches the queue for startable jobs and holes).
    pub phase_placement_seconds: Histogram,
    /// Wall-clock time of one Conservative timeline-maintenance pass
    /// (rebuilding or splicing the reservation profile).
    pub phase_timeline_seconds: Histogram,
}

impl SchedTelemetry {
    fn new(registry: &MetricsRegistry) -> Self {
        let phase_latency = exponential_buckets(1e-7, 10.0, 8); // 100 ns .. 10 s
        let phase = |name: &str| {
            registry.histogram_with(
                "sched_phase_duration_seconds",
                "Wall-clock time spent in one scheduler hot phase.",
                &phase_latency,
                &[("phase", name)],
            )
        };
        SchedTelemetry {
            phase_placement_seconds: phase("placement-scan"),
            phase_timeline_seconds: phase("timeline-maintenance"),
            decisions: registry.counter(
                "sched_decisions_total",
                "Start decisions returned by the scheduling policy.",
            ),
            head_started: registry
                .counter("sched_head_started_total", "Starts of the queue-head job."),
            backfill_scanned: registry.counter(
                "sched_backfill_candidates_scanned_total",
                "Backfill candidates examined behind the queue head.",
            ),
            backfill_started: registry.counter(
                "sched_backfill_started_total",
                "Backfill candidates started ahead of the queue head.",
            ),
            backfill_scan_depth: registry.histogram(
                "sched_backfill_scan_depth",
                "Candidates examined per backfill pass.",
                &[0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0],
            ),
            pairing_queries: registry.counter(
                "sched_pairing_queries_total",
                "Pairing-compatibility queries (candidate vs. resident stack).",
            ),
            pairing_hits: registry.counter(
                "sched_pairing_hits_total",
                "Pairing queries that accepted the candidate placement.",
            ),
            learning_updates: registry.counter(
                "sched_learning_updates_total",
                "Completed-job records digested by estimate-learning wrappers.",
            ),
        }
    }

    /// Times one placement scan (RAII: the returned timer observes
    /// elapsed seconds into the placement-scan phase histogram when
    /// dropped). Policies call this only when a telemetry sink is
    /// attached, so the untelemetered hot path stays unchanged.
    pub fn time_placement(&self) -> SpanTimer {
        SpanTimer::new(&self.phase_placement_seconds)
    }

    /// Times one timeline-maintenance pass (RAII, see
    /// [`SchedTelemetry::time_placement`]).
    pub fn time_timeline(&self) -> SpanTimer {
        SpanTimer::new(&self.phase_timeline_seconds)
    }

    /// Pairing hit rate so far (hits / queries; 0 when no queries).
    pub fn pairing_hit_rate(&self) -> f64 {
        let q = self.pairing_queries.get();
        if q == 0 {
            0.0
        } else {
            self.pairing_hits.get() as f64 / q as f64
        }
    }
}

/// One periodic JSONL sample of run state, taken every
/// [`SimTelemetry::sample_interval`] seconds of *simulation* time.
///
/// Counts are cumulative where they are counters (`starts_*`,
/// `completed`, `decisions`) and instantaneous where they are gauges
/// (queue/node state). `nodes_occupied + nodes_idle + nodes_unavailable`
/// always equals `nodes_total`, and `busy_cores` equals
/// `nodes_occupied × cores_per_node` — the same accounting as
/// [`Cluster::occupancy_snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySample {
    /// Simulation time of the sample.
    pub t: Seconds,
    /// Jobs waiting in the queue.
    pub queue_depth: u64,
    /// Jobs currently running.
    pub running: u64,
    /// Jobs completed so far (including walltime kills).
    pub completed: u64,
    /// Pending events in the engine's event queue.
    pub event_queue: u64,
    /// Total nodes in the cluster.
    pub nodes_total: u64,
    /// Nodes hosting at least one job.
    pub nodes_occupied: u64,
    /// Nodes hosting two or more jobs (co-allocation in effect).
    pub nodes_shared: u64,
    /// Up-and-empty nodes.
    pub nodes_idle: u64,
    /// Down or drained-and-empty nodes.
    pub nodes_unavailable: u64,
    /// Physical cores busy.
    pub busy_cores: u64,
    /// `busy_cores / total_cores`, in `[0, 1]`.
    pub utilization: f64,
    /// Cumulative start decisions.
    pub decisions: u64,
    /// Cumulative exclusive-mode starts.
    pub starts_exclusive: u64,
    /// Cumulative shared-mode starts.
    pub starts_shared: u64,
    /// Cumulative backfill starts.
    pub backfill_started: u64,
}

impl TelemetrySample {
    /// Renders the sample as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"t\":{},\"queue_depth\":{},\"running\":{},\"completed\":{},",
                "\"event_queue\":{},\"nodes_total\":{},\"nodes_occupied\":{},",
                "\"nodes_shared\":{},\"nodes_idle\":{},\"nodes_unavailable\":{},",
                "\"busy_cores\":{},\"utilization\":{},\"decisions\":{},",
                "\"starts_exclusive\":{},\"starts_shared\":{},\"backfill_started\":{}}}"
            ),
            fmt_f64(self.t),
            self.queue_depth,
            self.running,
            self.completed,
            self.event_queue,
            self.nodes_total,
            self.nodes_occupied,
            self.nodes_shared,
            self.nodes_idle,
            self.nodes_unavailable,
            self.busy_cores,
            fmt_f64(self.utilization),
            self.decisions,
            self.starts_exclusive,
            self.starts_shared,
            self.backfill_started,
        )
    }

    /// Parses one JSONL line produced by [`TelemetrySample::to_json`].
    /// Returns `None` for malformed lines or missing fields.
    pub fn parse(line: &str) -> Option<TelemetrySample> {
        let doc = JsonValue::parse(line).ok()?;
        let num = |key: &str| doc.get(key)?.as_f64();
        let count = |key: &str| doc.get(key)?.as_u64();
        Some(TelemetrySample {
            t: num("t")?,
            queue_depth: count("queue_depth")?,
            running: count("running")?,
            completed: count("completed")?,
            event_queue: count("event_queue")?,
            nodes_total: count("nodes_total")?,
            nodes_occupied: count("nodes_occupied")?,
            nodes_shared: count("nodes_shared")?,
            nodes_idle: count("nodes_idle")?,
            nodes_unavailable: count("nodes_unavailable")?,
            busy_cores: count("busy_cores")?,
            utilization: num("utilization")?,
            decisions: count("decisions")?,
            starts_exclusive: count("starts_exclusive")?,
            starts_shared: count("starts_shared")?,
            backfill_started: count("backfill_started")?,
        })
    }
}

/// JSON-safe `f64` rendering: finite values via `Display`, non-finite
/// clamped to 0 (they cannot occur in practice; JSON has no Inf/NaN).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// All run-scoped telemetry: the registry, the pre-registered engine
/// instruments, scheduler instruments, and the JSONL sample buffer.
///
/// Attach one through [`crate::sim::Observe::telemetry`]; afterwards
/// export with [`SimTelemetry::prometheus`] and [`SimTelemetry::jsonl`].
/// A `SimTelemetry` is single-run state — reusing one across runs
/// accumulates counters (which is occasionally what you want for
/// fleet-style aggregation, but samples interleave).
#[derive(Debug)]
pub struct SimTelemetry {
    /// The backing registry (add your own instruments freely).
    pub registry: MetricsRegistry,
    /// Simulation-time seconds between JSONL samples.
    pub sample_interval: Seconds,
    /// Scheduler-side instruments (shared with policies via the context).
    pub sched: SchedTelemetry,
    // detlint: allow(D3, sampler buffer shared with orchestrator workers; protects diagnostics, not outcomes)
    samples: Mutex<Vec<TelemetrySample>>,

    pub(crate) events_total: Counter,
    pub(crate) event_seconds: Histogram,
    pub(crate) invoke_seconds: Histogram,
    pub(crate) alloc_seconds: Histogram,
    pub(crate) release_seconds: Histogram,
    pub(crate) starts_exclusive: Counter,
    pub(crate) starts_shared: Counter,
    pub(crate) reshapes: Counter,
    pub(crate) completions: Counter,
    pub(crate) walltime_kills: Counter,
    pub(crate) requeues: Counter,
    pub(crate) rejected: Counter,
    pub(crate) queue_depth: Gauge,
    pub(crate) running_jobs: Gauge,
    pub(crate) event_queue_len: Gauge,
    pub(crate) nodes_occupied: Gauge,
    pub(crate) nodes_shared: Gauge,
    pub(crate) nodes_idle: Gauge,
    pub(crate) busy_cores: Gauge,
    pub(crate) utilization: Gauge,
    pub(crate) cluster_allocs_exclusive: Gauge,
    pub(crate) cluster_allocs_shared: Gauge,
    pub(crate) cluster_releases: Gauge,
    pub(crate) cluster_failed_allocs: Gauge,
}

impl SimTelemetry {
    /// Builds a telemetry context sampling every `sample_interval`
    /// seconds of simulation time.
    ///
    /// # Panics
    /// Panics when `sample_interval` is not positive.
    pub fn new(sample_interval: Seconds) -> Self {
        assert!(
            sample_interval > 0.0,
            "sample interval must be positive, got {sample_interval}"
        );
        let registry = MetricsRegistry::new();
        let latency = exponential_buckets(1e-7, 10.0, 8); // 100 ns .. 10 s
        let sched = SchedTelemetry::new(&registry);
        SimTelemetry {
            sched,
            sample_interval,
            // detlint: allow(D3, sampler buffer construction, see the field note)
            samples: Mutex::new(Vec::new()),
            events_total: registry.counter(
                "sim_events_processed_total",
                "Discrete events processed by the engine.",
            ),
            event_seconds: registry.histogram(
                "sim_event_duration_seconds",
                "Wall-clock time to process one simulation event.",
                &latency,
            ),
            invoke_seconds: registry.histogram(
                "sched_invoke_duration_seconds",
                "Wall-clock time of one scheduler invocation.",
                &latency,
            ),
            alloc_seconds: registry.histogram(
                "cluster_alloc_duration_seconds",
                "Wall-clock time of one cluster allocation.",
                &latency,
            ),
            release_seconds: registry.histogram(
                "cluster_release_duration_seconds",
                "Wall-clock time of one cluster release.",
                &latency,
            ),
            starts_exclusive: registry.counter_with(
                "sim_jobs_started_total",
                "Jobs started, by allocation mode.",
                &[("mode", "exclusive")],
            ),
            starts_shared: registry.counter_with(
                "sim_jobs_started_total",
                "Jobs started, by allocation mode.",
                &[("mode", "shared")],
            ),
            reshapes: registry.counter(
                "sim_jobs_reshaped_total",
                "Reshape decisions applied to running malleable jobs.",
            ),
            completions: registry.counter(
                "sim_jobs_completed_total",
                "Jobs that finished (including walltime kills).",
            ),
            walltime_kills: registry.counter(
                "sim_jobs_killed_walltime_total",
                "Jobs killed at their walltime bound.",
            ),
            requeues: registry.counter(
                "sim_jobs_requeued_total",
                "Jobs evicted by node failures and requeued.",
            ),
            rejected: registry.counter(
                "sim_jobs_rejected_total",
                "Jobs rejected at submission as unsatisfiable.",
            ),
            queue_depth: registry.gauge("sim_queue_depth", "Jobs waiting in the queue."),
            running_jobs: registry.gauge("sim_running_jobs", "Jobs currently running."),
            event_queue_len: registry.gauge(
                "sim_event_queue_length",
                "Pending events in the engine's event queue.",
            ),
            nodes_occupied: registry.gauge("sim_nodes_occupied", "Nodes hosting at least one job."),
            nodes_shared: registry.gauge(
                "sim_nodes_shared",
                "Nodes hosting two or more jobs (co-allocated).",
            ),
            nodes_idle: registry.gauge("sim_nodes_idle", "Up-and-empty nodes."),
            busy_cores: registry.gauge("sim_busy_cores", "Physical cores busy."),
            utilization: registry.gauge("sim_core_utilization", "Fraction of physical cores busy."),
            cluster_allocs_exclusive: registry.gauge(
                "cluster_allocs_exclusive",
                "Exclusive allocations performed by the cluster.",
            ),
            cluster_allocs_shared: registry.gauge(
                "cluster_allocs_shared",
                "Shared (lane) allocations performed by the cluster.",
            ),
            cluster_releases: registry
                .gauge("cluster_releases", "Allocations released by the cluster."),
            cluster_failed_allocs: registry.gauge(
                "cluster_failed_allocs",
                "Allocation requests the cluster rejected.",
            ),
            registry,
        }
    }

    /// Registers the strategy-name info gauge (`sim_strategy_info`), the
    /// conventional way to label a scrape with a discrete identity.
    pub(crate) fn note_strategy(&self, name: &str) {
        self.registry
            .gauge_with(
                "sim_strategy_info",
                "Scheduling strategy of this run (value is always 1).",
                &[("strategy", name)],
            )
            .set(1.0);
    }

    /// Records one periodic sample (engine-internal).
    pub(crate) fn record_sample(
        &self,
        t: Seconds,
        queue_depth: usize,
        running: usize,
        completed: usize,
        event_queue: usize,
        cluster: &Cluster,
    ) {
        let snap = cluster.occupancy_snapshot();
        let total = cluster.node_count() as u64;
        let occupied = snap.per_node.len() as u64;
        let idle = cluster.idle_count() as u64;
        let stats = cluster.alloc_stats();
        let sample = TelemetrySample {
            t,
            queue_depth: queue_depth as u64,
            running: running as u64,
            completed: completed as u64,
            event_queue: event_queue as u64,
            nodes_total: total,
            nodes_occupied: occupied,
            nodes_shared: snap.shared_nodes as u64,
            nodes_idle: idle,
            nodes_unavailable: total - occupied - idle,
            busy_cores: snap.busy_cores,
            utilization: cluster.core_utilization(),
            decisions: self.sched.decisions.get(),
            starts_exclusive: self.starts_exclusive.get(),
            starts_shared: self.starts_shared.get(),
            backfill_started: self.sched.backfill_started.get(),
        };
        // Keep the gauges in lock-step with the sample stream so a
        // Prometheus scrape and the JSONL series never disagree.
        self.queue_depth.set(sample.queue_depth as f64);
        self.running_jobs.set(sample.running as f64);
        self.event_queue_len.set(sample.event_queue as f64);
        self.nodes_occupied.set(occupied as f64);
        self.nodes_shared.set(sample.nodes_shared as f64);
        self.nodes_idle.set(idle as f64);
        self.busy_cores.set(sample.busy_cores as f64);
        self.utilization.set(sample.utilization);
        self.cluster_allocs_exclusive
            .set(stats.exclusive_allocs as f64);
        self.cluster_allocs_shared.set(stats.shared_allocs as f64);
        self.cluster_releases.set(stats.releases as f64);
        self.cluster_failed_allocs.set(stats.failed_allocs as f64);
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let mut samples = self.samples.lock().expect("samples poisoned");
        // The closing sample of a run may land on the same instant as the
        // last periodic one; the newer (post-event) state wins, keeping
        // the series strictly increasing in time.
        if samples.last().is_some_and(|s| s.t == sample.t) {
            samples.pop();
        }
        samples.push(sample);
    }

    /// Times a scope into one of the engine latency histograms.
    pub(crate) fn time(hist: &Histogram) -> SpanTimer {
        SpanTimer::new(hist)
    }

    /// The samples collected so far.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        self.samples.lock().expect("samples poisoned").clone()
    }

    /// The sample stream as JSONL (one object per line, trailing newline
    /// when non-empty).
    pub fn jsonl(&self) -> String {
        // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
        let samples = self.samples.lock().expect("samples poisoned");
        let mut out = String::new();
        for s in samples.iter() {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }

    /// The registry rendered in Prometheus text-exposition format.
    pub fn prometheus(&self) -> String {
        nodeshare_obs::render_prometheus(&self.registry)
    }

    /// A short human-readable run summary: decision counts, pairing hit
    /// rate, and the backfill scan-depth distribution rendered through
    /// the `nodeshare-metrics` histogram (the two histogram types
    /// interconvert, see `nodeshare_metrics::Histogram::from_obs`).
    pub fn describe(&self) -> String {
        let scan = nodeshare_metrics::Histogram::from_obs(&self.sched.backfill_scan_depth);
        format!(
            "telemetry: {} samples @ {:.0}s | decisions {} (head {}, backfill {}) | \
             pairing hit rate {:.1}% ({}/{}) | events {}\n\
             backfill scan depth per pass:\n{}",
            // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
            self.samples.lock().expect("samples poisoned").len(),
            self.sample_interval,
            self.sched.decisions.get(),
            self.sched.head_started.get(),
            self.sched.backfill_started.get(),
            100.0 * self.sched.pairing_hit_rate(),
            self.sched.pairing_hits.get(),
            self.sched.pairing_queries.get(),
            self.events_total.get(),
            scan.render(40),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_json_roundtrips() {
        let s = TelemetrySample {
            t: 1234.5,
            queue_depth: 7,
            running: 3,
            completed: 90,
            event_queue: 15,
            nodes_total: 128,
            nodes_occupied: 100,
            nodes_shared: 20,
            nodes_idle: 26,
            nodes_unavailable: 2,
            busy_cores: 3200,
            utilization: 0.78125,
            decisions: 93,
            starts_exclusive: 60,
            starts_shared: 33,
            backfill_started: 12,
        };
        let line = s.to_json();
        assert!(line.starts_with("{\"t\":1234.5,"));
        assert_eq!(TelemetrySample::parse(&line), Some(s));
        assert_eq!(TelemetrySample::parse("not json"), None);
        assert_eq!(TelemetrySample::parse("{\"t\":1}"), None);
    }

    #[test]
    fn telemetry_registers_core_families() {
        let t = SimTelemetry::new(60.0);
        let text = t.prometheus();
        for family in [
            "# TYPE sched_decisions_total counter",
            "# TYPE sched_backfill_scan_depth histogram",
            "# TYPE sim_queue_depth gauge",
            "# TYPE sim_nodes_occupied gauge",
            "# TYPE sim_jobs_started_total counter",
            "# TYPE sched_pairing_queries_total counter",
            "# TYPE sched_phase_duration_seconds histogram",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn pairing_hit_rate_handles_zero_queries() {
        let t = SimTelemetry::new(1.0);
        assert_eq!(t.sched.pairing_hit_rate(), 0.0);
        t.sched.pairing_queries.add(4);
        t.sched.pairing_hits.add(3);
        assert!((t.sched.pairing_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        SimTelemetry::new(0.0);
    }
}
