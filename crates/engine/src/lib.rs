#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-engine
//!
//! Deterministic discrete-event simulation of a batch system with
//! co-runner-dependent job progress:
//!
//! * [`events`] — `(time, band, sequence)`-ordered event queue with two
//!   interchangeable backends (bucketed calendar queue by default, binary
//!   heap for reference) proven to pop identically,
//! * [`progress`] — work-based running-job state: rates change when
//!   co-runners come and go; completion events are generation-stamped so
//!   stale ones are skipped,
//! * [`view`] — the [`Scheduler`] trait and the context policies see
//!   (estimates only — never true runtimes),
//! * [`sim`] — the driver ([`simulate`]) wiring a chunked
//!   [`nodeshare_workload::JobSource`] + cluster + pair matrix + policy
//!   together, so million-job campaigns keep only in-flight and queued
//!   jobs resident; [`Observe`] picks the trace and telemetry it records,
//!   and [`run`] is the plain shorthand for an in-memory workload,
//! * [`outcome`] — [`SimOutcome`] with per-job records and integrated
//!   occupancy series,
//! * [`telemetry`] — runtime observability ([`SimTelemetry`]): metric
//!   instruments, scheduler perf counters, and a sim-time JSONL sampler,
//! * [`trace`] — structured [`DecisionTrace`] of every scheduler decision
//!   and allocation change, with its JSON writer and exact reader,
//! * [`json`] — the workspace's one JSON reader ([`JsonValue`]), shared
//!   by trace, telemetry and baseline decoding,
//! * [`audit`] — the replay [`Auditor`] that re-derives cluster state from
//!   a trace and checks conservation laws against the outcome.
//!
//! The engine enforces the sharing mechanism's ground rules (only
//! share-eligible jobs may be co-allocated) and panics on inapplicable
//! policy decisions, so a policy bug fails loudly rather than skewing
//! results.

pub mod audit;
pub mod events;
pub mod faults;
pub mod json;
pub mod outcome;
pub mod progress;
pub mod sim;
pub mod telemetry;
pub mod trace;
pub mod view;

pub use audit::{AuditSummary, Auditor, Violation};
pub use events::{Event, EventQueue, QueueBackend};
pub use faults::{FailureModel, MaintenanceWindow};
pub use json::JsonValue;
pub use outcome::SimOutcome;
pub use progress::RunningJob;
pub use sim::{
    first_idle_nodes, run, run_streamed, run_streamed_traced, simulate, Observe, SimConfig,
    STREAM_CHUNK_JOBS,
};
pub use telemetry::{SchedTelemetry, SimTelemetry, TelemetrySample};
pub use trace::{DecisionTrace, DownCause, StartReason, TraceEvent};
pub use view::{Decision, RunningSummary, SchedContext, Scheduler};
