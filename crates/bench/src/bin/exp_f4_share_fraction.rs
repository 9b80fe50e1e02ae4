#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F4 — share-fraction sweep.** How the efficiency gains scale with
//! the fraction of jobs that opt into sharing (the paper's deployment
//! knob: users/admins whitelist applications gradually).
//!
//! The EASY baseline runs at share fraction 0 only, so it is a campaign
//! of its own rather than a strategy on the sweep's grid.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f4_share_fraction -- [--jobs N|--serial]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};
use nodeshare_workload::WorkloadSpec;

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let preset = |frac: f64| {
        let workload = WorkloadSpec {
            share_fraction: frac,
            ..world.saturated_spec(0)
        };
        PresetVariant::new(format!("{:.0}%", frac * 100.0), workload)
    };
    let campaign = |name, presets, strategy: StrategyConfig| {
        let spec =
            CampaignSpec::on_evaluation_cluster(name, presets, vec![strategy.into()], seeds(3));
        run_or_exit(&world, &spec, cli.parallelism)
    };

    // Baseline: nothing shares.
    let easy = StrategyConfig::exclusive(StrategyKind::EasyBackfill);
    let base = campaign("f4-baseline", vec![preset(0.0)], easy).seed_metrics(0, 0, 0);
    let base_comp = mean_of(&base, |m| m.computational_efficiency);
    let base_sched = mean_of(&base, |m| m.scheduling_efficiency);
    let sweep = campaign(
        "f4",
        [0.0, 0.2, 0.4, 0.6, 0.8, 1.0].map(preset).to_vec(),
        StrategyConfig::sharing(StrategyKind::CoBackfill),
    );

    let mut t = Table::new(vec![
        "share-eligible",
        "E_comp gain",
        "E_sched gain",
        "shared node-time",
        "mean wait(m)",
    ]);
    for (p, preset) in sweep.spec.presets.iter().enumerate() {
        let ms = sweep.seed_metrics(p, 0, 0);
        t.row(vec![
            preset.label.clone(),
            pct(relative_gain(
                mean_of(&ms, |m| m.computational_efficiency),
                base_comp,
            )),
            pct(relative_gain(
                mean_of(&ms, |m| m.scheduling_efficiency),
                base_sched,
            )),
            pct(mean_of(&ms, |m| m.shared_fraction)),
            format!("{:.0}", mean_of(&ms, |m| m.wait.mean) / 60.0),
        ]);
    }
    let text = format!(
        "F4 — CoBackfill gains vs share-eligible job fraction \
         (saturated campaign, {} replications; baseline: exclusive EASY)\n\n{}\n\
         expected shape: monotone growth; most of the benefit already at partial adoption.\n",
        sweep.spec.seeds.len(),
        t.render()
    );
    emit("exp_f4_share_fraction", &text, Some(&t.to_csv()));
}
