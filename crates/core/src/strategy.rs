//! Strategy factory: a declarative description of a scheduling policy
//! that the experiment harness can enumerate, label, and instantiate.

use crate::adaptive::Adaptive;
use crate::backfill::Backfill;
use crate::conservative::Conservative;
use crate::fcfs::Fcfs;
use crate::firstfit::FirstFit;
use crate::learning::EstimateLearning;
use crate::pairing::{Pairing, PairingPolicy};
use crate::reference;
use nodeshare_engine::Scheduler;
use nodeshare_perf::{AppCatalog, ContentionModel, Predictor};
use serde::{Deserialize, Serialize};

/// Which base algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Strict FCFS (exclusive).
    Fcfs,
    /// First-fit (exclusive).
    FirstFit,
    /// EASY backfill (exclusive).
    EasyBackfill,
    /// Conservative backfill (exclusive).
    Conservative,
    /// Co-allocation-aware first-fit.
    CoFirstFit,
    /// Co-allocation-aware backfill — the paper's contribution.
    CoBackfill,
    /// CoBackfill with sharing restricted to backfill candidates (the
    /// head always waits for exclusive nodes); an ablation variant.
    CoBackfillOnly,
    /// EASY backfill plus width-malleable reshaping (exclusive): shrinks
    /// running malleable jobs to admit a blocked head, re-grows them
    /// when the queue drains. Identical to EasyBackfill on all-rigid
    /// workloads. Not part of the six-strategy lineup.
    Adaptive,
}

impl StrategyKind {
    /// Whether the strategy can co-allocate.
    pub const fn shares(self) -> bool {
        matches!(
            self,
            StrategyKind::CoFirstFit | StrategyKind::CoBackfill | StrategyKind::CoBackfillOnly
        )
    }
}

/// How the scheduler predicts co-run slowdowns.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Perfect pair knowledge.
    Oracle,
    /// Perfect knowledge including n-way stacks (SMT > 2).
    NWayOracle,
    /// Class-granular averages.
    ClassBased,
    /// A constant conservative rate.
    Pessimistic {
        /// The assumed rate.
        rate: f64,
    },
    /// Assumes sharing is free.
    Oblivious,
}

impl PredictorKind {
    /// Instantiates the predictor against a catalog + truth model.
    pub fn build(self, catalog: &AppCatalog, model: &ContentionModel) -> Predictor {
        match self {
            PredictorKind::Oracle => Predictor::oracle(catalog, model),
            PredictorKind::NWayOracle => Predictor::nway_oracle(catalog, model),
            PredictorKind::ClassBased => Predictor::class_based(catalog, model),
            PredictorKind::Pessimistic { rate } => Predictor::Pessimistic { rate },
            PredictorKind::Oblivious => Predictor::Oblivious,
        }
    }
}

/// Quantile of a user's runtime/estimate history that learned estimate
/// correction plans with (see [`EstimateLearning`]).
const LEARNING_QUANTILE: f64 = 0.9;
/// Completed jobs a user needs before their estimates are corrected.
const LEARNING_MIN_SAMPLES: usize = 3;

/// A complete strategy description: the one place a scheduler is built.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StrategyConfig {
    /// Base algorithm.
    pub kind: StrategyKind,
    /// Pairing acceptance rule (ignored by exclusive strategies).
    pub pairing: PairingPolicy,
    /// Slowdown predictor (ignored by exclusive strategies).
    pub predictor: PredictorKind,
    /// Only pair jobs whose walltime bounds overlap by at least this
    /// ratio (see [`Pairing::with_duration_match`]; ignored by exclusive
    /// strategies).
    #[serde(default)]
    pub duration_match: Option<f64>,
    /// Wrap the policy in Tsafrir-style learned walltime-estimate
    /// correction ([`EstimateLearning`]).
    #[serde(default)]
    pub estimate_learning: bool,
}

impl StrategyConfig {
    /// An exclusive baseline of the given kind.
    pub fn exclusive(kind: StrategyKind) -> Self {
        assert!(!kind.shares(), "use `sharing` for co-allocation strategies");
        StrategyConfig {
            kind,
            pairing: PairingPolicy::Never,
            predictor: PredictorKind::Oblivious,
            duration_match: None,
            estimate_learning: false,
        }
    }

    /// A sharing strategy with the default threshold pairing and the
    /// class-based predictor (the deployable configuration: class-level
    /// profiling is what a site can realistically maintain).
    pub fn sharing(kind: StrategyKind) -> Self {
        assert!(kind.shares(), "{kind:?} cannot share");
        StrategyConfig {
            kind,
            pairing: PairingPolicy::default_threshold(),
            predictor: PredictorKind::ClassBased,
            duration_match: None,
            estimate_learning: false,
        }
    }

    /// The six-strategy lineup of the T2 comparison table.
    pub fn lineup() -> Vec<StrategyConfig> {
        vec![
            StrategyConfig::exclusive(StrategyKind::Fcfs),
            StrategyConfig::exclusive(StrategyKind::FirstFit),
            StrategyConfig::exclusive(StrategyKind::EasyBackfill),
            StrategyConfig::exclusive(StrategyKind::Conservative),
            StrategyConfig::sharing(StrategyKind::CoFirstFit),
            StrategyConfig::sharing(StrategyKind::CoBackfill),
        ]
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self.kind {
            StrategyKind::Fcfs => "fcfs",
            StrategyKind::FirstFit => "first-fit",
            StrategyKind::EasyBackfill => "easy-backfill",
            StrategyKind::Conservative => "conservative",
            StrategyKind::CoFirstFit => "co-first-fit",
            StrategyKind::CoBackfill => "co-backfill",
            StrategyKind::CoBackfillOnly => "co-backfill-only",
            StrategyKind::Adaptive => "adaptive",
        }
    }

    /// Instantiates the scheduler.
    pub fn build(&self, catalog: &AppCatalog, model: &ContentionModel) -> Box<dyn Scheduler> {
        let pairing = || self.build_pairing(catalog, model);
        self.wrap(match self.kind {
            StrategyKind::Fcfs => Box::new(Fcfs::new()),
            StrategyKind::FirstFit => Box::new(FirstFit::exclusive()),
            StrategyKind::EasyBackfill => Box::new(Backfill::easy()),
            StrategyKind::Conservative => Box::new(Conservative::new()),
            StrategyKind::CoFirstFit => Box::new(FirstFit::sharing(pairing())),
            StrategyKind::CoBackfill => Box::new(Backfill::co(pairing())),
            StrategyKind::CoBackfillOnly => Box::new(Backfill::co_backfill_only(pairing())),
            StrategyKind::Adaptive => Box::new(Adaptive::new()),
        })
    }

    /// Instantiates the scheduler's reference oracle (see
    /// [`crate::reference`]) — the pre-optimization implementation the
    /// differential tests compare the optimized default against.
    /// Strategies without an optimized fast path build identically.
    pub fn build_reference(
        &self,
        catalog: &AppCatalog,
        model: &ContentionModel,
    ) -> Box<dyn Scheduler> {
        let pairing = || self.build_pairing(catalog, model);
        self.wrap(match self.kind {
            StrategyKind::Fcfs => Box::new(Fcfs::new()),
            StrategyKind::FirstFit => Box::new(reference::FirstFit::exclusive()),
            StrategyKind::EasyBackfill => Box::new(reference::Backfill::easy()),
            StrategyKind::Conservative => Box::new(reference::Conservative::new()),
            StrategyKind::CoFirstFit => Box::new(reference::FirstFit::sharing(pairing())),
            StrategyKind::CoBackfill => Box::new(reference::Backfill::co(pairing())),
            StrategyKind::CoBackfillOnly => {
                Box::new(reference::Backfill::co_backfill_only(pairing()))
            }
            StrategyKind::Adaptive => Box::new(Adaptive::over(reference::Backfill::easy())),
        })
    }

    /// The pairing rule a sharing kind is built with.
    fn build_pairing(&self, catalog: &AppCatalog, model: &ContentionModel) -> Pairing {
        let pairing = Pairing::new(self.pairing, self.predictor.build(catalog, model));
        match self.duration_match {
            Some(theta) => pairing.with_duration_match(theta),
            None => pairing,
        }
    }

    /// Layers the optional estimate correction over a built policy.
    fn wrap(&self, sched: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        if !self.estimate_learning {
            return sched;
        }
        Box::new(EstimateLearning::new(
            sched,
            LEARNING_QUANTILE,
            LEARNING_MIN_SAMPLES,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_has_six_strategies_with_unique_labels() {
        let lineup = StrategyConfig::lineup();
        assert_eq!(lineup.len(), 6);
        let labels: std::collections::HashSet<_> = lineup.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn build_produces_matching_names() {
        let catalog = AppCatalog::trinity();
        let model = ContentionModel::calibrated();
        for cfg in StrategyConfig::lineup() {
            let sched = cfg.build(&catalog, &model);
            match cfg.kind {
                StrategyKind::Fcfs => assert_eq!(sched.name(), "fcfs"),
                StrategyKind::FirstFit => assert_eq!(sched.name(), "first-fit"),
                StrategyKind::EasyBackfill => assert_eq!(sched.name(), "easy-backfill"),
                StrategyKind::Conservative => assert_eq!(sched.name(), "conservative-backfill"),
                StrategyKind::CoFirstFit => assert_eq!(sched.name(), "co-first-fit"),
                StrategyKind::CoBackfill | StrategyKind::CoBackfillOnly => {
                    assert_eq!(sched.name(), "co-backfill")
                }
                StrategyKind::Adaptive => assert_eq!(sched.name(), "adaptive"),
            }
        }
    }

    #[test]
    fn adaptive_builds_outside_the_lineup() {
        let catalog = AppCatalog::trinity();
        let model = ContentionModel::calibrated();
        let cfg = StrategyConfig::exclusive(StrategyKind::Adaptive);
        assert_eq!(cfg.label(), "adaptive");
        assert_eq!(cfg.build(&catalog, &model).name(), "adaptive");
        assert_eq!(cfg.build_reference(&catalog, &model).name(), "adaptive");
        assert!(!StrategyConfig::lineup().contains(&cfg));
    }

    #[test]
    fn refinements_wrap_every_kind_without_renaming_it() {
        let catalog = AppCatalog::trinity();
        let model = ContentionModel::calibrated();
        for plain in StrategyConfig::lineup() {
            let refined = StrategyConfig {
                duration_match: Some(0.5),
                estimate_learning: true,
                ..plain
            };
            let name = plain.build(&catalog, &model).name();
            assert_eq!(refined.build(&catalog, &model).name(), name);
            assert_eq!(refined.build_reference(&catalog, &model).name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "cannot share")]
    fn sharing_constructor_rejects_exclusive_kinds() {
        StrategyConfig::sharing(StrategyKind::Fcfs);
    }

    #[test]
    #[should_panic(expected = "use `sharing`")]
    fn exclusive_constructor_rejects_sharing_kinds() {
        StrategyConfig::exclusive(StrategyKind::CoBackfill);
    }

    #[test]
    fn predictor_kinds_build() {
        let catalog = AppCatalog::trinity();
        let model = ContentionModel::calibrated();
        for kind in [
            PredictorKind::Oracle,
            PredictorKind::ClassBased,
            PredictorKind::Pessimistic { rate: 0.5 },
            PredictorKind::Oblivious,
        ] {
            let p = kind.build(&catalog, &model);
            let r = p.rates(nodeshare_perf::AppId(0), nodeshare_perf::AppId(1));
            assert!(r.rate_a > 0.0 && r.rate_a <= 1.0);
        }
    }
}
