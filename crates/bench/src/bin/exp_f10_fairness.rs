#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F10 — who pays for sharing? (extension).** Per-application dilation
//! and wait outcomes under CoBackfill, plus Jain's fairness index over
//! per-user slowdowns for both strategies. Sharing must not buy its
//! efficiency by taxing one application class or one user population.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f10_fairness -- [--jobs N|--serial]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{by_app, pct, user_slowdown_fairness, Table};

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let spec = CampaignSpec::on_evaluation_cluster(
        "f10",
        vec![PresetVariant::new("saturated", world.saturated_spec(0))],
        vec![
            StrategyConfig::exclusive(StrategyKind::EasyBackfill).into(),
            StrategyConfig::sharing(StrategyKind::CoBackfill).into(),
        ],
        vec![42],
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);
    let easy = &run.seed_results(0, 0, 0)[0];
    let co = &run.seed_results(0, 0, 1)[0];
    let (easy_out, easy_m) = (&easy.outcome, &easy.metrics);
    let (co_out, co_m) = (&co.outcome, &co.metrics);

    let mut t = Table::new(vec![
        "app",
        "class",
        "jobs",
        "shared",
        "dil p50",
        "dil p95",
        "wait easy(m)",
        "wait co(m)",
    ]);
    let easy_apps = by_app(&easy_out.records);
    let co_apps = by_app(&co_out.records);
    for app in world.catalog.iter() {
        let co_g = &co_apps[&app.id];
        let easy_g = &easy_apps[&app.id];
        t.row(vec![
            app.name.clone(),
            app.class.label().to_string(),
            co_g.jobs.to_string(),
            pct(co_g.shared_fraction),
            format!("{:.2}", co_g.dilation.median),
            format!("{:.2}", co_g.dilation.p95),
            format!("{:.0}", easy_g.wait.mean / 60.0),
            format!("{:.0}", co_g.wait.mean / 60.0),
        ]);
    }

    let jain_easy = user_slowdown_fairness(&easy_out.records);
    let jain_co = user_slowdown_fairness(&co_out.records);

    let text = format!(
        "F10 — per-application outcomes under CoBackfill (saturated campaign, 1000 jobs)\n\n{}\n\
         Jain fairness over per-user mean slowdowns: easy {:.3} -> co-backfill {:.3}\n\
         campaign waits: easy {:.0} min -> co {:.0} min (everyone gains; dilation is the price\n\
         the co-allocated pay, bounded by the pairing threshold)\n",
        t.render(),
        jain_easy,
        jain_co,
        easy_m.wait.mean / 60.0,
        co_m.wait.mean / 60.0,
    );
    emit("exp_f10_fairness", &text, Some(&t.to_csv()));
}
