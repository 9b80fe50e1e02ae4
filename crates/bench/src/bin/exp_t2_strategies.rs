#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **T2 — strategy comparison.** All six strategies on the saturated
//! evaluation campaign: makespan, waits, slowdown, utilization, and the
//! two efficiency metrics.
//!
//! Runs as a declarative campaign: the (strategy × seed × preset) grid
//! is sharded over a worker pool and merged deterministically, so the
//! tables below are bit-identical under `--serial`, `--jobs 1`, or
//! `--jobs 8`.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_t2_strategies -- [--jobs N|--serial] [--quick]
//! ```

use nodeshare_bench::campaign::{run_or_exit, write_cell_artifacts, CampaignSpec, PresetVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::StrategyConfig;
use nodeshare_metrics::{pct, Table};
use nodeshare_workload::WorkloadSpec;

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let n_seeds = if cli.quick { 2 } else { 3 };
    let n_jobs = if cli.quick { 60 } else { 1000 };
    let sized = |spec| WorkloadSpec { n_jobs, ..spec };

    let spec = CampaignSpec::on_evaluation_cluster(
        "t2",
        vec![
            PresetVariant::new("saturated", sized(world.saturated_spec(0))),
            PresetVariant::new("online", sized(world.online_spec(0))),
        ],
        StrategyConfig::lineup()
            .into_iter()
            .map(Into::into)
            .collect(),
        seeds(n_seeds),
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);

    let mut t = Table::new(vec![
        "strategy",
        "makespan(h)",
        "wait:mean(m)",
        "wait:p95(m)",
        "bsld:p95",
        "util",
        "E_comp",
        "E_sched",
        "shared",
        "kills",
    ]);
    let mut csv_rows = String::new();
    let (mut sharing, mut exclusive) = (Vec::new(), Vec::new());
    for (s, sv) in spec.strategies.iter().enumerate() {
        let ms = run.seed_metrics(0, 0, s);
        let efficiency = (
            mean_of(&ms, |m| m.computational_efficiency),
            mean_of(&ms, |m| m.scheduling_efficiency),
        );
        if sv.config.kind.shares() {
            sharing.push((&sv.label, efficiency));
        } else {
            exclusive.push((&sv.label, efficiency));
        }
        let row = [
            sv.label.clone(),
            format!("{:.1}", mean_of(&ms, |m| m.makespan) / 3600.0),
            format!("{:.0}", mean_of(&ms, |m| m.wait.mean) / 60.0),
            format!("{:.0}", mean_of(&ms, |m| m.wait.p95) / 60.0),
            format!("{:.1}", mean_of(&ms, |m| m.bounded_slowdown.p95)),
            format!("{:.3}", mean_of(&ms, |m| m.utilization)),
            format!("{:.3}", efficiency.0),
            format!("{:.3}", efficiency.1),
            pct(mean_of(&ms, |m| m.shared_fraction)),
            format!("{:.1}", mean_of(&ms, |m| m.killed as f64)),
        ];
        csv_rows.push_str(&row.join(","));
        csv_rows.push('\n');
        t.row(row.to_vec());
    }
    // Second table: the online (~90% load) regime, where waits rather
    // than makespan tell the story.
    let mut t2 = Table::new(vec![
        "strategy",
        "wait:mean(m)",
        "wait:p95(m)",
        "bsld:p95",
        "E_comp",
        "shared",
    ]);
    for (s, sv) in spec.strategies.iter().enumerate() {
        let ms = run.seed_metrics(1, 0, s);
        t2.row(vec![
            sv.label.clone(),
            format!("{:.0}", mean_of(&ms, |m| m.wait.mean) / 60.0),
            format!("{:.0}", mean_of(&ms, |m| m.wait.p95) / 60.0),
            format!("{:.1}", mean_of(&ms, |m| m.bounded_slowdown.p95)),
            format!("{:.3}", mean_of(&ms, |m| m.computational_efficiency)),
            pct(mean_of(&ms, |m| m.shared_fraction)),
        ]);
    }
    // The paper's claim: on the saturated campaign each sharing strategy
    // beats every exclusive one on both E_comp and E_sched. The --quick
    // grid (60 jobs) never saturates the machine, so its sharing E_sched
    // sits at or just below the exclusive strategies'; it tests the
    // machinery, not the claim, and skips the check.
    if !cli.quick {
        for (co, (co_comp, co_sched)) in &sharing {
            for (ex, (ex_comp, ex_sched)) in &exclusive {
                assert!(
                    co_comp > ex_comp && co_sched > ex_sched,
                    "{co} (E_comp {co_comp:.3}, E_sched {co_sched:.3}) does not beat \
                     {ex} (E_comp {ex_comp:.3}, E_sched {ex_sched:.3}) when saturated"
                );
            }
        }
    }
    let jobs_note = if cli.quick { " [quick]" } else { "" };
    let text = format!(
        "T2 — strategy comparison, saturated campaign ({} replications x {} jobs, 128 nodes){}\n\n{}\n\
         T2b — the same lineup in the online (~90% load) regime:\n\n{}",
        spec.seeds.len(),
        n_jobs,
        jobs_note,
        t.render(),
        t2.render()
    );
    let csv = format!(
        "strategy,makespan_h,wait_mean_m,wait_p95_m,bsld_p95,util,e_comp,e_sched,shared,kills\n{csv_rows}"
    );
    emit("exp_t2_strategies", &text, Some(&csv));
    write_cell_artifacts("exp_t2_strategies", &run);
}
