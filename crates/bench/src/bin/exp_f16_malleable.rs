#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F16 — malleable jobs under load spikes (extension).** The rigid
//! lineup can only react to a queue burst by waiting for running jobs to
//! drain. This experiment gives half the jobs a width-malleability
//! contract and runs the [`Adaptive`](nodeshare_core::Adaptive) policy —
//! EASY backfill plus shrink-to-admit and grow-to-fill reshaping —
//! against every rigid strategy on the `spike` preset (an 8-hour arrival
//! wave swinging between near-idle lulls and past-capacity bursts).
//!
//! During a burst, shrinking wide malleable jobs toward their contract
//! minimum admits the queue head immediately; during a lull, growing
//! them into idle nodes converts stranded capacity into work. Both ends
//! of the wave attack the same quantity — makespan — so the headline
//! metric is mean scheduling efficiency.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f16_malleable -- [--jobs N|--serial] [--quick]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant, StrategyVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};
use nodeshare_workload::{Preset, WorkloadSpec};

const MALLEABLE_FRACTION: f64 = 0.5;

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let n_jobs = if cli.quick { 150 } else { 600 };
    let mut strategies: Vec<StrategyVariant> = StrategyConfig::lineup()
        .into_iter()
        .map(Into::into)
        .collect();
    strategies.push(StrategyConfig::exclusive(StrategyKind::Adaptive).into());
    let spec = CampaignSpec::on_evaluation_cluster(
        "f16",
        vec![PresetVariant::new(
            "spike",
            WorkloadSpec {
                n_jobs,
                malleable_fraction: MALLEABLE_FRACTION,
                ..Preset::Spike.spec(&world.catalog, 0)
            },
        )],
        strategies,
        seeds(if cli.quick { 2 } else { 5 }),
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);

    let mut base_sched = 0.0;
    let mut best_rigid: Option<(&str, f64)> = None;
    let mut adaptive_sched = 0.0;
    let mut t = Table::new(vec![
        "strategy",
        "E_sched",
        "gain vs easy",
        "makespan(h)",
        "wait:mean(m)",
        "wait:p95(m)",
        "bsld:p95",
    ]);
    for (s, sv) in spec.strategies.iter().enumerate() {
        let label = sv.label.as_str();
        let ms = run.seed_metrics(0, 0, s);
        let es = mean_of(&ms, |m| m.scheduling_efficiency);
        if label == "easy-backfill" {
            base_sched = es;
        }
        if sv.config.kind == StrategyKind::Adaptive {
            adaptive_sched = es;
        } else if best_rigid.is_none_or(|(_, b)| es > b) {
            best_rigid = Some((label, es));
        }
        t.row(vec![
            label.to_string(),
            format!("{es:.3}"),
            pct(relative_gain(es, base_sched)),
            format!("{:.1}", mean_of(&ms, |m| m.makespan) / 3_600.0),
            format!("{:.0}", mean_of(&ms, |m| m.wait.mean) / 60.0),
            format!("{:.0}", mean_of(&ms, |m| m.wait.p95) / 60.0),
            format!("{:.1}", mean_of(&ms, |m| m.bounded_slowdown.p95)),
        ]);
    }

    let (best_label, best_sched) = best_rigid.expect("lineup is non-empty");
    // The acceptance bar: reshaping must beat every rigid policy —
    // sharing ones included — on mean efficiency in the spike regime.
    assert!(
        adaptive_sched > best_sched,
        "adaptive E_sched {adaptive_sched:.3} does not beat best rigid \
         ({best_label}: {best_sched:.3})"
    );

    let text = format!(
        "F16 — width-malleable jobs under load spikes ({}% malleable, spike \
         preset, {} jobs, {} replications{})\n\n{}\n\
         reading: adaptive (EASY + reshape) beats the best rigid strategy\n\
         ({best_label}: E_sched {best_sched:.3} -> {adaptive_sched:.3},\n\
         {} relative). Shrinking wide malleable jobs admits burst arrivals\n\
         that rigid backfill must queue; re-growing them in the lulls soaks\n\
         idle nodes the rigid lineup strands. Both moves shorten the\n\
         campaign, which is where scheduling efficiency lives.\n",
        (MALLEABLE_FRACTION * 100.0) as u32,
        n_jobs,
        spec.seeds.len(),
        if cli.quick { ", --quick" } else { "" },
        t.render(),
        pct(relative_gain(adaptive_sched, best_sched)),
    );
    emit("exp_f16_malleable", &text, Some(&t.to_csv()));
}
