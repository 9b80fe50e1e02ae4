#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F13 — where does node sharing pay? (extension).** The headline
//! numbers come from the paper-style evaluation mix; this experiment runs
//! CoBackfill vs. EASY across qualitatively different site profiles to
//! map the benefit's boundary conditions.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f13_site_profiles -- [--jobs N|--serial]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};
use nodeshare_workload::{Preset, WorkloadSpec};

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let spec = CampaignSpec::on_evaluation_cluster(
        "f13",
        Preset::ALL
            .iter()
            .map(|p| {
                let workload = WorkloadSpec {
                    n_jobs: 700,
                    ..p.spec(&world.catalog, 0)
                };
                PresetVariant::new(p.name(), workload)
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
        "site profile",
        "E_comp gain",
        "E_sched gain",
        "wait easy(m)",
        "wait co(m)",
        "shared",
        "kills",
    ]);
    for (p, preset) in spec.presets.iter().enumerate() {
        let me = run.seed_metrics(p, 0, 0);
        let mc = run.seed_metrics(p, 0, 1);
        t.row(vec![
            preset.label.clone(),
            pct(relative_gain(
                mean_of(&mc, |m| m.computational_efficiency),
                mean_of(&me, |m| m.computational_efficiency),
            )),
            pct(relative_gain(
                mean_of(&mc, |m| m.scheduling_efficiency),
                mean_of(&me, |m| m.scheduling_efficiency),
            )),
            format!("{:.0}", mean_of(&me, |m| m.wait.mean) / 60.0),
            format!("{:.0}", mean_of(&mc, |m| m.wait.mean) / 60.0),
            pct(mean_of(&mc, |m| m.shared_fraction)),
            format!("{:.1}", mean_of(&mc, |m| m.killed as f64)),
        ]);
    }
    let text = format!(
        "F13 — sharing gains across site profiles ({} replications x 700 jobs)\n\n{}\n\
         reading: the benefit needs (a) load pressure and (b) complementary\n\
         applications. Lightly loaded capability sites and bandwidth-homogeneous\n\
         mixes gain little; saturated mixed workloads gain the paper's ~20%.\n",
        spec.seeds.len(),
        t.render()
    );
    emit("exp_f13_site_profiles", &text, Some(&t.to_csv()));
}
