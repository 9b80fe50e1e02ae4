#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! # nodeshare-core
//!
//! The paper's contribution: **node-sharing scheduling strategies** for
//! HPC batch systems, expressed against the engine's
//! [`Scheduler`](nodeshare_engine::Scheduler) trait.
//!
//! Baselines (exclusive "standard node allocation"):
//!
//! * [`Fcfs`] — strict first-come-first-served,
//! * [`FirstFit`] — start anything that fits, no reservations,
//! * [`Backfill::easy`] — EASY backfill (head reservation + safe
//!   backfilling),
//! * [`Conservative`] — conservative backfill (reservations for all).
//!
//! Node-sharing extensions (the contribution):
//!
//! * [`FirstFit::sharing`] — **CoFirstFit**: first-fit that also places
//!   share-eligible jobs on free hyper-thread lanes of compatible nodes,
//! * [`Backfill::co`] — **CoBackfill**: EASY backfill where both the head
//!   and backfill candidates may co-allocate, with the reservation
//!   guarantee preserved under sharing,
//! * [`Pairing`]/[`PairingPolicy`] — which pairings are accepted, driven
//!   by a [`nodeshare_perf::Predictor`].
//!
//! [`StrategyConfig`] gives the experiment harness a declarative way to
//! enumerate and build all of them. The optimized strategies each have a
//! straight-line oracle in [`reference`], which the differential tests
//! hold them to.
//!
//! ```
//! use nodeshare_core::{Backfill, Pairing, PairingPolicy};
//! use nodeshare_perf::{AppCatalog, ContentionModel, Predictor};
//!
//! let catalog = AppCatalog::trinity();
//! let model = ContentionModel::calibrated();
//! let pairing = Pairing::new(
//!     PairingPolicy::default_threshold(),
//!     Predictor::class_based(&catalog, &model),
//! );
//! let _cobackfill = Backfill::co(pairing);
//! ```

pub mod adaptive;
pub mod backfill;
pub mod conservative;
pub mod fcfs;
pub mod firstfit;
pub mod learning;
pub mod pairing;
pub mod pairtab;
pub mod planner;
pub mod reference;
pub mod strategy;
pub mod util;

#[cfg(test)]
pub(crate) mod testkit;

pub use adaptive::Adaptive;
pub use backfill::Backfill;
pub use conservative::Conservative;
pub use fcfs::Fcfs;
pub use firstfit::FirstFit;
pub use learning::EstimateLearning;
pub use pairing::{Pairing, PairingPolicy};
pub use pairtab::PairingTable;
pub use planner::ReservationTimeline;
pub use strategy::{PredictorKind, StrategyConfig, StrategyKind};
pub use util::{AvailabilityProfile, HeadReservation};
