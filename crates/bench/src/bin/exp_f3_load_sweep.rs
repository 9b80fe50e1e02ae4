#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F3 — efficiency vs. load.** Sweeps the arrival intensity from well
//! below saturation to well above it and plots the scheduling-efficiency
//! and wait-time advantage of CoBackfill over EASY. The expected shape:
//! sharing gains grow with load (an uncontended machine has nothing to
//! share for) and flatten once the machine saturates.
//!
//! Runs as a declarative campaign — every load factor is a preset axis
//! entry, and the (strategy × seed × preset) grid is sharded over a
//! worker pool with a deterministic merge, so the table is bit-identical
//! under `--serial`, `--jobs 1`, or `--jobs 8`.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f3_load_sweep -- [--jobs N|--serial] [--quick]
//! ```

use nodeshare_bench::campaign::{run_or_exit, write_cell_artifacts, CampaignSpec, PresetVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};
use nodeshare_workload::{ArrivalProcess, WorkloadSpec};

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    // Offered load ≈ 1.0 near rate 0.0047 (see WorkloadSpec::evaluation).
    let base_rate = 0.0047;
    let factors: &[f64] = if cli.quick {
        &[0.7, 1.0, 1.5]
    } else {
        &[0.5, 0.7, 0.85, 1.0, 1.15, 1.3, 1.5, 1.7]
    };
    let n_jobs = if cli.quick { 80 } else { 600 };
    let n_seeds = if cli.quick { 2 } else { 3 };

    let spec = CampaignSpec::on_evaluation_cluster(
        "f3",
        factors
            .iter()
            .map(|&f| {
                PresetVariant::new(
                    format!("{f:.2}x"),
                    WorkloadSpec {
                        n_jobs,
                        arrival: ArrivalProcess::Poisson {
                            rate: base_rate * f,
                        },
                        ..world.online_spec(0)
                    },
                )
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
        "load",
        "E_sched easy",
        "E_sched co",
        "gain",
        "wait easy(m)",
        "wait co(m)",
        "shared",
    ]);
    for (p, pv) in spec.presets.iter().enumerate() {
        let me = run.seed_metrics(p, 0, 0);
        let mc = run.seed_metrics(p, 0, 1);
        let es_e = mean_of(&me, |m| m.scheduling_efficiency);
        let es_c = mean_of(&mc, |m| m.scheduling_efficiency);
        t.row(vec![
            pv.label.clone(),
            format!("{es_e:.3}"),
            format!("{es_c:.3}"),
            pct(relative_gain(es_c, es_e)),
            format!("{:.0}", mean_of(&me, |m| m.wait.mean) / 60.0),
            format!("{:.0}", mean_of(&mc, |m| m.wait.mean) / 60.0),
            pct(mean_of(&mc, |m| m.shared_fraction)),
        ]);
    }
    let quick_note = if cli.quick { " [quick]" } else { "" };
    let text = format!(
        "F3 — CoBackfill gain vs offered load ({} replications x {} jobs per point){}\n\n{}\n\
         expected shape: gains grow with load, flatten at deep saturation.\n",
        spec.seeds.len(),
        n_jobs,
        quick_note,
        t.render()
    );
    emit("exp_f3_load_sweep", &text, Some(&t.to_csv()));
    write_cell_artifacts("exp_f3_load_sweep", &run);
}
