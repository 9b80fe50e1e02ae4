#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! **F5 — co-allocation overhead.** The distribution of per-job runtime
//! dilation under CoBackfill with compatibility pairing — the paper's
//! "no overhead" claim — contrasted with naive any-pairing (the scenario
//! administrators fear) and the exclusive baseline.
//!
//! The binary asserts the claim: exclusive dilation is exactly 1 at every
//! percentile, threshold pairing kills nothing and has a lighter p99 tail
//! than any-pairing, and any-pairing kills more jobs.
//!
//! ```text
//! cargo run --release -p nodeshare-bench --bin exp_f5_overhead -- [--jobs N|--serial]
//! ```

use nodeshare_bench::campaign::{run_or_exit, CampaignSpec, PresetVariant, StrategyVariant};
use nodeshare_bench::orchestrator::CampaignCli;
use nodeshare_bench::{emit, World};
use nodeshare_core::{PairingPolicy, PredictorKind, StrategyConfig, StrategyKind};
use nodeshare_metrics::{percentile_sorted, Buckets, Histogram, Table};

/// The dilation quantiles tabulated per variant: p50, p90, p99, max.
const QUANTILES: [f64; 4] = [0.50, 0.90, 0.99, 1.0];

fn main() {
    let cli = CampaignCli::parse();
    let world = World::evaluation();
    let co = StrategyConfig::sharing(StrategyKind::CoBackfill);
    let spec = CampaignSpec::on_evaluation_cluster(
        "f5",
        vec![PresetVariant::new("saturated", world.saturated_spec(0))],
        vec![
            StrategyVariant::named(
                "exclusive (easy)",
                StrategyConfig::exclusive(StrategyKind::EasyBackfill),
            ),
            StrategyVariant::named("co-backfill / threshold pairing", co),
            StrategyVariant::named(
                "co-backfill / threshold + oracle",
                StrategyConfig {
                    predictor: PredictorKind::Oracle,
                    ..co
                },
            ),
            StrategyVariant::named(
                "co-backfill / any pairing",
                StrategyConfig {
                    pairing: PairingPolicy::Any,
                    predictor: PredictorKind::Oblivious,
                    ..co
                },
            ),
        ],
        vec![42],
    );
    let run = run_or_exit(&world, &spec, cli.parallelism);

    let mut t = Table::new(vec![
        "variant", "p50", "p90", "p99", "max", "kills", "E_comp",
    ]);
    // Per variant: dilation at each of QUANTILES, and kills.
    let mut stats = Vec::new();
    for (s, sv) in spec.strategies.iter().enumerate() {
        let cell = &run.seed_results(0, 0, s)[0];
        let mut dil: Vec<f64> = cell
            .outcome
            .records
            .iter()
            .filter(|r| !r.killed)
            .map(|r| r.dilation())
            .collect();
        dil.sort_by(f64::total_cmp);
        let q = QUANTILES.map(|q| percentile_sorted(&dil, q));
        let mut row = vec![sv.label.clone()];
        row.extend(q.iter().map(|d| format!("{d:.3}")));
        row.push(cell.metrics.killed.to_string());
        row.push(format!("{:.3}", cell.metrics.computational_efficiency));
        t.row(row);
        stats.push((q, cell.metrics.killed));
    }
    let [(exclusive, _), (threshold, threshold_kills), _, (any, any_kills)] = stats[..] else {
        unreachable!("four variants");
    };
    assert!(
        exclusive.iter().all(|d| (d - 1.0).abs() < 1e-9),
        "exclusive dilation {exclusive:?} is not exactly 1"
    );
    assert!(
        threshold_kills == 0 && any_kills > 0 && threshold[2] < any[2],
        "threshold vs any pairing: kills {threshold_kills} vs {any_kills}, \
         p99 dilation {:.3} vs {:.3}",
        threshold[2],
        any[2]
    );

    // Distribution detail for the deployable configuration.
    let hist = Histogram::of(
        run.seed_results(0, 0, 1)[0]
            .outcome
            .records
            .iter()
            .filter(|r| !r.killed)
            // exclusive-speed jobs sit at 1.0 minus float epsilon
            .map(|r| r.dilation().max(1.0)),
        &Buckets::Linear {
            lo: 1.0,
            hi: 2.0,
            count: 10,
        },
    );
    let text = format!(
        "F5 — per-job runtime dilation (finish/start span over exclusive runtime), \
         saturated campaign, 1000 jobs\n\n{}\n\
         dilation histogram, co-backfill with threshold pairing:\n{}\n\
         reading: threshold pairing keeps the distribution tight near 1.0 (the paper's\n\
         \"no overhead\"); naive any-pairing produces the heavy tail administrators fear.\n",
        t.render(),
        hist.render(40)
    );
    emit("exp_f5_overhead", &text, Some(&t.to_csv()));
}
