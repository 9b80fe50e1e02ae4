#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F9 — failure resilience (extension).** Node sharing doubles a node
//! failure's blast radius (two jobs per node), so this experiment asks
//! whether the efficiency gains survive realistic failure rates: MTBF
//! sweep, EASY vs CoBackfill, counting requeues and re-measuring the
//! headline metrics.
//!
//! Runs as a declarative campaign — every MTBF/checkpoint variant is a
//! preset axis entry with its own [`FailurePlan`], and the grid is
//! sharded over a worker pool with a deterministic merge, so the table
//! is bit-identical under `--serial`, `--jobs 1`, or `--jobs 8`.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f9_failures -- [--jobs N|--serial] [--quick]
//! ```

use nodeshare_bench::campaign::{
    run_or_exit, write_cell_artifacts, CampaignSpec, FailurePlan, PresetVariant,
};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let n_seeds = if cli.quick { 2 } else { 3 };
    let mut workload = world.saturated_spec(0);
    if cli.quick {
        workload.n_jobs = 80;
    }

    let variants: [(&str, f64, Option<f64>); 5] = [
        ("no failures", f64::INFINITY, None),
        ("1000 h", 1_000.0, None),
        ("300 h", 300.0, None),
        ("100 h", 100.0, None),
        ("100 h + 15min ckpt", 100.0, Some(900.0)),
    ];
    let spec = CampaignSpec::on_evaluation_cluster(
        "f9",
        variants
            .iter()
            .map(|&(label, mtbf_h, ckpt)| PresetVariant {
                failures: mtbf_h.is_finite().then_some(FailurePlan {
                    mtbf_hours: mtbf_h,
                    repair_s: 1_800.0,
                    horizon_s: 30.0 * 86_400.0,
                }),
                checkpoint_interval: ckpt,
                ..PresetVariant::new(label, workload.clone())
            })
            .collect(),
        vec![
            StrategyConfig::exclusive(StrategyKind::EasyBackfill).into(),
            StrategyConfig::sharing(StrategyKind::CoBackfill).into(),
        ],
        seeds(n_seeds),
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);

    let mut t = Table::new(vec![
        "MTBF/node",
        "restarts easy",
        "restarts co",
        "E_comp gain",
        "E_sched gain",
        "makespan easy(h)",
        "makespan co(h)",
    ]);
    for (p, pv) in spec.presets.iter().enumerate() {
        let me = run.seed_metrics(p, 0, 0);
        let mc = run.seed_metrics(p, 0, 1);
        t.row(vec![
            pv.label.clone(),
            format!("{:.0}", mean_of(&me, |m| m.total_restarts as f64)),
            format!("{:.0}", mean_of(&mc, |m| m.total_restarts as f64)),
            pct(relative_gain(
                mean_of(&mc, |m| m.computational_efficiency),
                mean_of(&me, |m| m.computational_efficiency),
            )),
            pct(relative_gain(
                mean_of(&mc, |m| m.scheduling_efficiency),
                mean_of(&me, |m| m.scheduling_efficiency),
            )),
            format!("{:.1}", mean_of(&me, |m| m.makespan) / 3_600.0),
            format!("{:.1}", mean_of(&mc, |m| m.makespan) / 3_600.0),
        ]);
    }
    let quick_note = if cli.quick { " [quick]" } else { "" };
    let text = format!(
        "F9 — node-failure resilience (saturated campaign, {} replications; repair 30 min){}\n\n{}\n\
         reading: sharing roughly doubles the jobs hit per failure, but the\n\
         efficiency advantage persists because restarts cost both variants\n\
         similar node-time fractions; application checkpointing recovers most\n\
         of the failure-induced makespan loss for both.\n",
        spec.seeds.len(),
        quick_note,
        t.render()
    );
    emit("exp_f9_failures", &text, Some(&t.to_csv()));
    write_cell_artifacts("exp_f9_failures", &run);
}
