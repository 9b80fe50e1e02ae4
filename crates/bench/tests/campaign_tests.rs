//! Campaign orchestrator acceptance tests: canonical cell enumeration,
//! canonical result order from a real worker pool, and per-cell fault
//! isolation with coordinate-labeled failures.

use nodeshare_bench::campaign::{run_campaign, run_cell, CampaignSpec, CellOptions, PresetVariant};
use nodeshare_bench::orchestrator::{run_cells, run_cells_serial, Parallelism};
use nodeshare_bench::{seeds, World};
use nodeshare_core::{StrategyConfig, StrategyKind};
use nodeshare_workload::{ArrivalProcess, WorkloadSpec};
use proptest::prelude::*;

/// A small real campaign grid (axes named so failure labels are
/// recognizable), used by the fault-isolation tests.
fn small_spec(world: &World) -> CampaignSpec {
    CampaignSpec::on_evaluation_cluster(
        "faults",
        vec![
            PresetVariant::new(
                "saturated",
                WorkloadSpec {
                    n_jobs: 25,
                    ..world.saturated_spec(0)
                },
            ),
            PresetVariant::new(
                "online",
                WorkloadSpec {
                    n_jobs: 20,
                    ..world.online_spec(0)
                },
            ),
        ],
        vec![
            StrategyConfig::exclusive(StrategyKind::EasyBackfill).into(),
            StrategyConfig::sharing(StrategyKind::CoBackfill).into(),
        ],
        seeds(2),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every coordinate of an arbitrary campaign grid round-trips
    /// through its canonical index.
    #[test]
    fn arbitrary_grids_enumerate_canonically(
        n_presets in 1usize..5,
        n_clusters in 1usize..4,
        n_strategies in 1usize..5,
        n_seeds in 1usize..5,
    ) {
        // A real spec supplies the grid enumeration.
        let template = WorkloadSpec::evaluation(&nodeshare_perf::AppCatalog::trinity(), 0);
        let spec = CampaignSpec {
            name: "prop",
            presets: (0..n_presets)
                .map(|i| PresetVariant::new(format!("p{i}"), template.clone()))
                .collect(),
            clusters: (0..n_clusters)
                .map(|i| nodeshare_bench::campaign::ClusterVariant::named(
                    format!("c{i}"),
                    nodeshare_cluster::ClusterSpec::evaluation(),
                ))
                .collect(),
            strategies: (0..n_strategies)
                .map(|i| nodeshare_bench::campaign::StrategyVariant::named(
                    format!("s{i}"),
                    StrategyConfig::sharing(StrategyKind::CoBackfill),
                ))
                .collect(),
            seeds: (0..n_seeds as u64).collect(),
        };
        let cells = spec.cells();
        prop_assert_eq!(cells.len(), spec.n_cells());
        // Every coordinate round-trips through the canonical index.
        for (i, c) in cells.iter().enumerate() {
            prop_assert_eq!(spec.index_of(c), i);
        }
    }

    /// Whatever completion order the threads of a real worker pool
    /// produce, results come back in canonical order, identical to the
    /// serial reference.
    #[test]
    fn worker_pool_merges_canonically(
        n_cells in 1usize..120,
        jobs in 1usize..9,
    ) {
        let cells: Vec<usize> = (0..n_cells).collect();
        let runner = |i: usize, c: &usize| i as u64 * 31 + *c as u64;
        let reference = run_cells_serial(&cells, runner);
        let done = run_cells(
            &cells,
            Parallelism::Jobs(jobs),
            |i, _| format!("cell{i}"),
            runner,
        );
        let results: Vec<u64> = done.into_iter().map(Result::unwrap).collect();
        prop_assert_eq!(results, reference);
    }
}

/// A cell that panics mid-campaign is reported with its full
/// (preset, cluster, strategy, seed) coordinates, and sibling cells —
/// which run *real* simulations — keep their results.
#[test]
fn panicking_cell_reports_coordinates_without_poisoning_siblings() {
    let world = World::evaluation();
    let spec = small_spec(&world);
    let cells = spec.cells();
    let opts = CellOptions::default();
    // Poison one mid-grid cell: online preset, co-backfill, second seed.
    let poisoned = spec.index_of(&nodeshare_bench::campaign::CellCoord {
        preset: 1,
        cluster: 0,
        strategy: 1,
        seed: 1,
    });

    let done = run_cells(
        &cells,
        Parallelism::Jobs(4),
        |_, c| spec.cell_label(c),
        |i, c| {
            if i == poisoned {
                panic!("injected wedge");
            }
            run_cell(&world, &spec, c, &opts)
        },
    );

    let failures: Vec<_> = done.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(failures.len(), 1);
    let f = failures[0];
    assert_eq!(f.index, poisoned);
    assert_eq!(f.label, "online/128n-smt2/co-backfill/seed1001");
    assert!(f.message.contains("injected wedge"));
    // The Display form carries everything needed to re-run the cell.
    let report = f.to_string();
    assert!(report.contains("online"), "{report}");
    assert!(report.contains("co-backfill"), "{report}");
    assert!(report.contains("seed1001"), "{report}");

    // Every sibling simulated to completion and kept its result.
    for (i, slot) in done.iter().enumerate() {
        if i == poisoned {
            assert!(slot.is_err());
        } else {
            let r = slot.as_ref().expect("sibling cell lost its result");
            assert_eq!(spec.index_of(&r.coord), i);
            assert!(r.outcome.complete());
        }
    }
}

/// End-to-end through [`run_campaign`]: a preset whose workload
/// generation panics (negative arrival rate) fails the campaign with one
/// coordinate-labeled failure per poisoned cell — and the same campaign
/// without the poison preset succeeds.
#[test]
fn run_campaign_surfaces_failed_cells_with_coordinates() {
    let world = World::evaluation();
    let mut spec = small_spec(&world);
    spec.presets.push(PresetVariant::new(
        "poison",
        WorkloadSpec {
            n_jobs: 10,
            arrival: ArrivalProcess::Poisson { rate: -1.0 },
            ..world.saturated_spec(0)
        },
    ));

    let failures = run_campaign(&world, &spec, Parallelism::Jobs(4), &CellOptions::default())
        .expect_err("the poison preset must fail the campaign");
    // Exactly the poison cells failed: one per (strategy, seed).
    assert_eq!(failures.len(), spec.strategies.len() * spec.seeds.len());
    for f in &failures {
        assert!(f.label.starts_with("poison/"), "{}", f.label);
    }

    spec.presets.pop();
    let run = run_campaign(&world, &spec, Parallelism::Jobs(4), &CellOptions::default())
        .expect("without the poison preset the campaign succeeds");
    assert_eq!(run.results.len(), spec.n_cells());
}
