#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F14 — SMT co-scheduling vs gang time-slicing (extension).** SLURM's
//! own oversubscription alternative is `OverSubscribe=FORCE` with gang
//! scheduling: two jobs time-slice a node, each getting half the machine
//! minus context-switch overhead — app-agnostic but throughput-neutral.
//! This experiment runs the *same* CoBackfill skeleton over both
//! mechanisms and asks where the paper's SMT lane sharing actually earns
//! its complexity.
//!
//! The one seeded experiment outside the campaign orchestrator: its gang
//! variant swaps the ground-truth model and the shared walltime grace,
//! which no campaign axis expresses, so it keeps its own replication
//! loop (and writes no per-cell telemetry).
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f14_gang_vs_smt
//! ```

use nodeshare_bench::{emit, mean_of, seeds, World};
use nodeshare_core::{Backfill, Pairing, PairingPolicy, StrategyConfig, StrategyKind};
use nodeshare_metrics::{pct, relative_gain, CampaignMetrics, Table};
use nodeshare_perf::{CoRunTruth, Predictor};
use rayon::prelude::*;

fn main() {
    let world = World::evaluation();
    let reps = seeds(3);
    const SLICE_OVERHEAD: f64 = 0.05;

    // Gang truth + the matching exact predictor: every pairing runs at
    // (1-ε)/2, so the scheduler predicts it pessimistically-but-exactly
    // and accepts any pairing (compatibility is meaningless here).
    let gang_truth = CoRunTruth::time_slicing(&world.catalog, SLICE_OVERHEAD);
    let gang_rate = (1.0 - SLICE_OVERHEAD) / 2.0;

    let run = |cfg: &StrategyConfig, truth: &CoRunTruth, grace: f64| -> Vec<CampaignMetrics> {
        reps.par_iter()
            .map(|&seed| {
                let workload = world.saturated_spec(seed).generate(&world.catalog);
                let mut config = world.config();
                config.shared_walltime_grace = grace;
                let mut sched = cfg.build(&world.catalog, &world.model);
                let out = nodeshare_engine::run(&workload, truth, sched.as_mut(), &config);
                assert!(out.complete());
                out.metrics(&world.cluster)
            })
            .collect()
    };

    let easy = StrategyConfig::exclusive(StrategyKind::EasyBackfill);
    let smt = StrategyConfig::sharing(StrategyKind::CoBackfill);

    let base = run(&easy, &world.matrix, 1.5);
    let smt_ms = run(&smt, &world.matrix, 1.5);
    // Gang shares for responsiveness, not throughput: negative net-gain
    // floor admits every slice. Dilation is exactly 2/(1-ε); grant enough
    // grace to avoid kills.
    let gang_ms: Vec<CampaignMetrics> = reps
        .par_iter()
        .map(|&seed| {
            let workload = world.saturated_spec(seed).generate(&world.catalog);
            let mut config = world.config();
            config.shared_walltime_grace = 2.0 / (1.0 - SLICE_OVERHEAD) + 0.2;
            let pairing = Pairing::new(
                PairingPolicy::Any,
                Predictor::Pessimistic { rate: gang_rate },
            )
            .with_net_gain_floor(f64::NEG_INFINITY);
            let mut sched = Backfill::co(pairing);
            let out = nodeshare_engine::run(&workload, &gang_truth, &mut sched, &config);
            assert!(out.complete());
            out.metrics(&world.cluster)
        })
        .collect();

    let base_comp = mean_of(&base, |m| m.computational_efficiency);
    let base_sched = mean_of(&base, |m| m.scheduling_efficiency);
    let mut t = Table::new(vec![
        "mechanism",
        "E_comp gain",
        "E_sched gain",
        "wait:mean(m)",
        "dil p95",
        "shared",
        "kills",
    ]);
    for (label, ms) in [
        ("exclusive (easy)", &base),
        ("SMT lane sharing (paper)", &smt_ms),
        ("gang time-slicing", &gang_ms),
    ] {
        t.row(vec![
            label.to_string(),
            pct(relative_gain(
                mean_of(ms, |m| m.computational_efficiency),
                base_comp,
            )),
            pct(relative_gain(
                mean_of(ms, |m| m.scheduling_efficiency),
                base_sched,
            )),
            format!("{:.0}", mean_of(ms, |m| m.wait.mean) / 60.0),
            format!("{:.2}", mean_of(ms, |m| m.dilation.p95)),
            pct(mean_of(ms, |m| m.shared_fraction)),
            format!("{:.1}", mean_of(ms, |m| m.killed as f64)),
        ]);
    }
    // The paper's case: SMT lane sharing adds throughput over exclusive
    // EASY, gang time-slicing loses it.
    let smt_gain = relative_gain(mean_of(&smt_ms, |m| m.computational_efficiency), base_comp);
    let gang_gain = relative_gain(mean_of(&gang_ms, |m| m.computational_efficiency), base_comp);
    assert!(
        gang_gain < 0.0 && 0.0 < smt_gain,
        "want gang E_comp gain < 0 < SMT gain, got gang {gang_gain:.3}, SMT {smt_gain:.3}"
    );
    let text = format!(
        "F14 — SMT lane sharing vs gang time-slicing under the same CoBackfill \
         skeleton\n(saturated campaign, {} replications; slice overhead {}%)\n\n{}\n\
         reading: gang scheduling cuts waits (anything can pair) but is\n\
         throughput-NEGATIVE — each slice pays the overhead, so machine\n\
         efficiency drops below exclusive. SMT lane sharing is the only\n\
         mechanism of the two that adds throughput, because complementary\n\
         jobs genuinely overlap resource use. This is the paper's case in\n\
         one table.\n",
        reps.len(),
        SLICE_OVERHEAD * 100.0,
        t.render()
    );
    emit("exp_f14_gang_vs_smt", &text, Some(&t.to_csv()));
}
