#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-metrics
//!
//! Metric definitions for the node-sharing study:
//!
//! * [`record`] — per-job completion records ([`JobRecord`]) with wait /
//!   response / dilation / bounded-slowdown accessors,
//! * [`campaign`] — campaign aggregates ([`CampaignMetrics`]), including
//!   the paper's **computational efficiency** and **scheduling
//!   efficiency**,
//! * [`stats`] — summary statistics and relative-gain arithmetic,
//! * [`series`] — exact step-function time series (occupancy
//!   integration),
//! * [`fairness`] — per-user/per-app outcome groups and Jain's index,
//! * [`table`] — text/CSV renderers used by every experiment binary.

pub mod campaign;
pub mod fairness;
pub mod histogram;
pub mod record;
pub mod series;
pub mod stats;
pub mod table;

pub use campaign::CampaignMetrics;
pub use fairness::{by_app, by_user, jain_index, user_slowdown_fairness, GroupOutcome};
pub use histogram::{Buckets, Histogram};
pub use record::JobRecord;
pub use series::{StepAccum, StepSeries};
pub use stats::{mean, percentile_sorted, relative_gain, Summary};
pub use table::{fmt_seconds, pct, Table};
