#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F15 — learned estimate correction (extension).** Backfill quality is
//! limited by user walltime over-estimation (F8). This experiment wraps
//! both EASY and CoBackfill in the Tsafrir-style [`EstimateLearning`]
//! layer — per-user runtime/estimate quantiles learned online from
//! completed jobs — and measures what corrected planning buys.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f15_estimate_learning -- [--jobs N|--serial]
//! ```
//!
//! [`EstimateLearning`]: nodeshare_core::EstimateLearning

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant, StrategyVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    // Users over-estimate persistently (3× mean) so there is real signal
    // to learn, and more users repeat (16) so the learner converges
    // within the campaign.
    let mut workload = world.saturated_spec(0);
    workload.estimates.mean_over_factor = 2.0;
    workload.n_users = 16;
    let learning = |cfg| StrategyConfig {
        estimate_learning: true,
        ..cfg
    };
    let easy = StrategyConfig::exclusive(StrategyKind::EasyBackfill);
    let co = StrategyConfig::sharing(StrategyKind::CoBackfill);
    let spec = CampaignSpec::on_evaluation_cluster(
        "f15",
        vec![PresetVariant::new("overestimated", workload)],
        vec![
            StrategyVariant::named("easy", easy),
            StrategyVariant::named("easy + learning", learning(easy)),
            StrategyVariant::named("co-backfill", co),
            StrategyVariant::named("co-backfill + learning", learning(co)),
        ],
        seeds(3),
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);

    let base_sched = mean_of(&run.seed_metrics(0, 0, 0), |m| m.scheduling_efficiency);
    let mut t = Table::new(vec![
        "scheduler",
        "E_sched",
        "gain vs easy",
        "wait:mean(m)",
        "wait:p95(m)",
        "bsld:p95",
    ]);
    let mut e_sched = Vec::new();
    for (s, sv) in spec.strategies.iter().enumerate() {
        let ms = run.seed_metrics(0, 0, s);
        let es = mean_of(&ms, |m| m.scheduling_efficiency);
        e_sched.push(es);
        t.row(vec![
            sv.label.clone(),
            format!("{es:.3}"),
            pct(relative_gain(es, base_sched)),
            format!("{:.0}", mean_of(&ms, |m| m.wait.mean) / 60.0),
            format!("{:.0}", mean_of(&ms, |m| m.wait.p95) / 60.0),
            format!("{:.1}", mean_of(&ms, |m| m.bounded_slowdown.p95)),
        ]);
    }
    // The claim: learning raises E_sched under both easy and
    // co-backfill (strategies 0/1 and 2/3). F15 has no reduced grid, so
    // the check always runs.
    for plain in [0, 2] {
        let (without, with) = (e_sched[plain], e_sched[plain + 1]);
        assert!(
            with > without,
            "{}: E_sched {with:.3} does not beat {} at {without:.3}",
            spec.strategies[plain + 1].label,
            spec.strategies[plain].label
        );
    }
    let text = format!(
        "F15 — learned walltime-estimate correction (3x mean over-estimation, \
         16 users, saturated campaign, {} replications)\n\n{}\n\
         reading: correction tightens planned bounds, letting backfill pack\n\
         more work behind reservations — it composes with co-allocation: the\n\
         two optimizations attack independent slack (estimate slack vs.\n\
         intra-node slack).\n",
        spec.seeds.len(),
        t.render()
    );
    emit("exp_f15_estimate_learning", &text, Some(&t.to_csv()));
}
