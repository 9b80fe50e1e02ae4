#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F12 — duration-matched pairing (extension).** A simple heuristic a
//! site might bolt onto co-allocation: only pair jobs whose remaining
//! walltime bounds overlap by at least θ. Does it help on top of the
//! net-gain planner, or just cost coverage?
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f12_duration_match -- [--jobs N|--serial]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant, StrategyVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let co = StrategyConfig::sharing(StrategyKind::CoBackfill);
    let mut strategies = vec![
        // The baseline the gains are measured against.
        StrategyConfig::exclusive(StrategyKind::EasyBackfill).into(),
        StrategyVariant::named("off", co),
    ];
    for theta in [0.25, 0.50, 0.75] {
        strategies.push(StrategyVariant::named(
            format!("{theta:.2}"),
            StrategyConfig {
                duration_match: Some(theta),
                ..co
            },
        ));
    }
    let spec = CampaignSpec::on_evaluation_cluster(
        "f12",
        vec![PresetVariant::new("saturated", world.saturated_spec(0))],
        strategies,
        seeds(3),
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);
    let base_comp = mean_of(&run.seed_metrics(0, 0, 0), |m| m.computational_efficiency);

    let mut t = Table::new(vec![
        "duration match θ",
        "E_comp gain",
        "shared",
        "dil p95",
        "mean wait(m)",
    ]);
    for (s, sv) in spec.strategies.iter().enumerate().skip(1) {
        let ms = run.seed_metrics(0, 0, s);
        t.row(vec![
            sv.label.clone(),
            pct(relative_gain(
                mean_of(&ms, |m| m.computational_efficiency),
                base_comp,
            )),
            pct(mean_of(&ms, |m| m.shared_fraction)),
            format!("{:.2}", mean_of(&ms, |m| m.dilation.p95)),
            format!("{:.0}", mean_of(&ms, |m| m.wait.mean) / 60.0),
        ]);
    }
    let text = format!(
        "F12 — duration-matched pairing on top of CoBackfill \
         (saturated campaign, {} replications; gains vs exclusive EASY)\n\n{}\n\
         reading: the net-gain planner already avoids pathological pairings, so\n\
         duration matching mostly trades coverage for little; aggressive θ\n\
         forfeits a visible slice of the efficiency gain.\n",
        spec.seeds.len(),
        t.render()
    );
    emit("exp_f12_duration_match", &text, Some(&t.to_csv()));
}
