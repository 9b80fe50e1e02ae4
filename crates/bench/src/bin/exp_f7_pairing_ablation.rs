#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F7 — pairing-policy ablation.** How much of CoBackfill's gain comes
//! from *which* pairings it accepts and how well it predicts them:
//! never / any+oblivious / threshold with class-based, oracle, and
//! pessimistic predictors.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f7_pairing_ablation -- [--jobs N|--serial]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant, StrategyVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{PairingPolicy, PredictorKind, StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let mk = |label, pairing, predictor| {
        StrategyVariant::named(
            label,
            StrategyConfig {
                pairing,
                predictor,
                ..StrategyConfig::sharing(StrategyKind::CoBackfill)
            },
        )
    };
    let spec = CampaignSpec::on_evaluation_cluster(
        "f7",
        vec![PresetVariant::new("saturated", world.saturated_spec(0))],
        vec![
            // The baseline the gains are measured against.
            StrategyConfig::exclusive(StrategyKind::EasyBackfill).into(),
            mk(
                "never (exclusive)",
                PairingPolicy::Never,
                PredictorKind::Oblivious,
            ),
            mk(
                "any + oblivious",
                PairingPolicy::Any,
                PredictorKind::Oblivious,
            ),
            mk(
                "threshold + pessimistic(0.75)",
                PairingPolicy::Threshold {
                    min_rate: 0.7,
                    min_combined: 1.2,
                },
                PredictorKind::Pessimistic { rate: 0.75 },
            ),
            mk(
                "threshold + class-based",
                PairingPolicy::default_threshold(),
                PredictorKind::ClassBased,
            ),
            mk(
                "threshold + oracle",
                PairingPolicy::default_threshold(),
                PredictorKind::Oracle,
            ),
            StrategyVariant::named(
                "backfill-only sharing",
                StrategyConfig::sharing(StrategyKind::CoBackfillOnly),
            ),
        ],
        seeds(3),
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);
    let base = run.seed_metrics(0, 0, 0);
    let base_comp = mean_of(&base, |m| m.computational_efficiency);
    let base_sched = mean_of(&base, |m| m.scheduling_efficiency);

    let mut t = Table::new(vec![
        "pairing",
        "E_comp gain",
        "E_sched gain",
        "dil p95",
        "kills",
        "shared",
    ]);
    for (s, sv) in spec.strategies.iter().enumerate().skip(1) {
        let ms = run.seed_metrics(0, 0, s);
        t.row(vec![
            sv.label.clone(),
            pct(relative_gain(
                mean_of(&ms, |m| m.computational_efficiency),
                base_comp,
            )),
            pct(relative_gain(
                mean_of(&ms, |m| m.scheduling_efficiency),
                base_sched,
            )),
            format!("{:.2}", mean_of(&ms, |m| m.dilation.p95)),
            format!("{:.1}", mean_of(&ms, |m| m.killed as f64)),
            pct(mean_of(&ms, |m| m.shared_fraction)),
        ]);
    }
    let text = format!(
        "F7 — pairing-policy / predictor ablation for CoBackfill \
         (saturated campaign, {} replications; gains vs exclusive EASY)\n\n{}\n\
         reading: compatibility awareness (threshold) is what separates the paper's\n\
         strategy from naive oversubscription; oracle vs class-based shows how much\n\
         prediction quality buys.\n",
        spec.seeds.len(),
        t.render()
    );
    emit("exp_f7_pairing_ablation", &text, Some(&t.to_csv()));
}
