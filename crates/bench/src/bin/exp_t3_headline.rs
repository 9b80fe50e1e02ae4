#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **T3 — headline reproduction.** CoBackfill vs. standard (exclusive
//! EASY) allocation on the saturated evaluation campaign:
//!
//! * computational-efficiency gain (paper: **+19%**),
//! * scheduling-efficiency gain (paper: **+25.2%**),
//! * co-allocation overhead (paper: **≈ none**).
//!
//! The binary asserts the claim: both gains positive and within a factor
//! of two of the paper's, and median dilation under 1.5x.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_t3_headline -- [--jobs N|--serial]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, Table};

/// The paper's computational-efficiency gain of CoBackfill over EASY.
const PAPER_E_COMP_GAIN: f64 = 0.190;
/// The paper's scheduling-efficiency gain of CoBackfill over EASY.
const PAPER_E_SCHED_GAIN: f64 = 0.252;
/// Median dilation above this would mean co-allocation costs the jobs
/// more than the "≈ none" overhead the paper reports.
const MAX_MEDIAN_DILATION: f64 = 1.5;

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let spec = CampaignSpec::on_evaluation_cluster(
        "t3",
        vec![PresetVariant::new("saturated", world.saturated_spec(0))],
        vec![
            StrategyConfig::exclusive(StrategyKind::EasyBackfill).into(),
            StrategyConfig::sharing(StrategyKind::CoBackfill).into(),
        ],
        seeds(5),
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);
    let base = run.seed_metrics(0, 0, 0);
    let co = run.seed_metrics(0, 0, 1);

    let e_comp_base = mean_of(&base, |m| m.computational_efficiency);
    let e_comp_co = mean_of(&co, |m| m.computational_efficiency);
    let e_sched_base = mean_of(&base, |m| m.scheduling_efficiency);
    let e_sched_co = mean_of(&co, |m| m.scheduling_efficiency);
    let dil_co = mean_of(&co, |m| m.dilation.median);
    let kills_co = mean_of(&co, |m| m.killed as f64);
    let shared = mean_of(&co, |m| m.shared_fraction);
    let wait_base = mean_of(&base, |m| m.wait.mean);
    let wait_co = mean_of(&co, |m| m.wait.mean);
    let mk_base = mean_of(&base, |m| m.makespan);
    let mk_co = mean_of(&co, |m| m.makespan);
    let e_comp_gain = relative_gain(e_comp_co, e_comp_base);
    let e_sched_gain = relative_gain(e_sched_co, e_sched_base);

    for (name, gain, paper) in [
        ("E_comp", e_comp_gain, PAPER_E_COMP_GAIN),
        ("E_sched", e_sched_gain, PAPER_E_SCHED_GAIN),
    ] {
        assert!(
            (paper / 2.0..=paper * 2.0).contains(&gain),
            "{name} gain {} is not within a factor of two of the paper's {}",
            pct(gain),
            pct(paper)
        );
    }
    assert!(
        dil_co < MAX_MEDIAN_DILATION,
        "median dilation {dil_co:.3}x is not under {MAX_MEDIAN_DILATION}x"
    );

    let mut t = Table::new(vec!["quantity", "paper", "measured"]);
    t.row(vec![
        "computational efficiency gain".to_string(),
        pct(PAPER_E_COMP_GAIN),
        pct(e_comp_gain),
    ]);
    t.row(vec![
        "scheduling efficiency gain".to_string(),
        pct(PAPER_E_SCHED_GAIN),
        pct(e_sched_gain),
    ]);
    t.row(vec![
        "co-allocation overhead (median dilation)".to_string(),
        "none".to_string(),
        format!("{:.3}x", dil_co),
    ]);
    t.row(vec![
        "walltime kills caused by sharing".to_string(),
        "none".to_string(),
        format!("{kills_co:.1}/campaign"),
    ]);
    let text = format!(
        "T3 — headline: CoBackfill vs standard allocation (EASY), saturated campaign\n\
         {} replications x 1000 jobs, 128 nodes\n\n{}\n\
         detail: E_comp {:.3} -> {:.3} | E_sched {:.3} -> {:.3} | \
         makespan {:.1}h -> {:.1}h | mean wait {:.0}m -> {:.0}m | shared node-time {}\n",
        spec.seeds.len(),
        t.render(),
        e_comp_base,
        e_comp_co,
        e_sched_base,
        e_sched_co,
        mk_base / 3600.0,
        mk_co / 3600.0,
        wait_base / 60.0,
        wait_co / 60.0,
        pct(shared),
    );
    emit("exp_t3_headline", &text, Some(&t.to_csv()));
}
