#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F8 — walltime-estimate sensitivity.** Backfill quality depends on
//! user estimates; this sweep varies the mean over-estimation factor
//! from perfect to 5× and reports both strategies' scheduling efficiency
//! and waits.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f8_estimate_error -- [--jobs N|--serial]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};
use nodeshare_workload::{EstimateModel, WorkloadSpec};

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let over = |mean_over_factor| EstimateModel {
        mean_over_factor,
        ..EstimateModel::evaluation()
    };
    let spec = CampaignSpec::on_evaluation_cluster(
        "f8",
        [
            ("perfect", EstimateModel::perfect()),
            ("1.5x mean", over(0.5)),
            ("2x mean", over(1.0)),
            ("3x mean", over(2.0)),
            ("5x mean", over(4.0)),
        ]
        .into_iter()
        .map(|(label, estimates)| {
            let workload = WorkloadSpec {
                estimates,
                ..world.saturated_spec(0)
            };
            PresetVariant::new(label, workload)
        })
        .collect(),
        vec![
            StrategyConfig::exclusive(StrategyKind::EasyBackfill).into(),
            StrategyConfig::sharing(StrategyKind::CoBackfill).into(),
        ],
        seeds(3),
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);

    let mut t = Table::new(vec![
        "over-estimate",
        "E_sched easy",
        "E_sched co",
        "gain",
        "wait easy(m)",
        "wait co(m)",
        "kills co",
    ]);
    for (p, preset) in spec.presets.iter().enumerate() {
        let me = run.seed_metrics(p, 0, 0);
        let mc = run.seed_metrics(p, 0, 1);
        let es_e = mean_of(&me, |m| m.scheduling_efficiency);
        let es_c = mean_of(&mc, |m| m.scheduling_efficiency);
        t.row(vec![
            preset.label.clone(),
            format!("{es_e:.3}"),
            format!("{es_c:.3}"),
            pct(relative_gain(es_c, es_e)),
            format!("{:.0}", mean_of(&me, |m| m.wait.mean) / 60.0),
            format!("{:.0}", mean_of(&mc, |m| m.wait.mean) / 60.0),
            format!("{:.1}", mean_of(&mc, |m| m.killed as f64)),
        ]);
    }
    let text = format!(
        "F8 — sensitivity to walltime over-estimation \
         (saturated campaign, {} replications)\n\n{}\n\
         note: with perfect estimates any dilation means a kill, so the shared\n\
         walltime grace is what keeps sharing safe at low over-estimation.\n",
        spec.seeds.len(),
        t.render()
    );
    emit("exp_f8_estimate_error", &text, Some(&t.to_csv()));
}
