//! Cross-crate integration: slurm.conf → sbatch → strategy → metrics,
//! plus the SWF round trip through a full simulation.

use nodeshare::prelude::*;
use nodeshare::workload::swf;

const CONF: &str = "\
NodeName=n[0-31] Sockets=2 CoresPerSocket=16 ThreadsPerCore=2 RealMemory=131072
PartitionName=batch Nodes=ALL Default=YES MaxTime=12:00:00 OverSubscribe=YES
";

fn batch_system() -> BatchSystem {
    BatchSystem::new(SlurmConf::parse(CONF).unwrap(), AppCatalog::trinity())
}

#[test]
fn sbatch_to_metrics_pipeline() {
    let mut bs = batch_system();
    let apps = ["AMG", "miniDFT", "miniFE", "SNAP", "MILC", "GTC"];
    for (i, app) in apps.iter().enumerate() {
        bs.submit_script(
            &format!(
                "#SBATCH --nodes=4\n#SBATCH --time=02:00:00\n#SBATCH --oversubscribe\nsrun ./{app}\n"
            ),
            i as f64 * 30.0,
            i as u32,
            3_000.0 + i as f64 * 100.0,
        )
        .unwrap();
    }
    let model = ContentionModel::calibrated();
    let pairing = Pairing::new(
        PairingPolicy::default_threshold(),
        Predictor::class_based(bs.catalog(), &model),
    );
    let out = bs.run(&mut Backfill::co(pairing), &model);
    assert!(out.complete());
    assert_eq!(out.records.len(), apps.len());
    let m = out.metrics(&bs.conf().cluster);
    assert_eq!(m.jobs, apps.len());
    assert!(m.utilization > 0.0 && m.utilization <= 1.0);
    // 6 × 4-node jobs fit a 32-node machine simultaneously: no waits.
    assert!(m.wait.max < 1.0);
}

#[test]
fn workload_survives_swf_round_trip_through_simulation() {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let matrix = CoRunTruth::build(&catalog, &model);
    let cluster = ClusterSpec::evaluation();
    let mut spec = WorkloadSpec::evaluation(&catalog, 11);
    spec.n_jobs = 120;
    let original = spec.generate(&catalog);

    // Round-trip through SWF text.
    let text = swf::write(&original, cluster.node.cores());
    let (reimported, skipped) = swf::read_to_workload(
        text.as_bytes(),
        &catalog,
        swf::SwfImportOptions {
            cores_per_node: cluster.node.cores(),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(skipped, 0);

    // Same structure simulated under the same exclusive policy gives the
    // same qualitative outcome; times differ only by SWF's 1-second
    // rounding, so compare with tolerance.
    let config = SimConfig::new(cluster);
    let a = nodeshare::engine::run(&original, &matrix, &mut Fcfs::new(), &config);
    let b = nodeshare::engine::run(&reimported, &matrix, &mut Fcfs::new(), &config);
    assert!(a.complete() && b.complete());
    assert_eq!(a.records.len(), b.records.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.nodes, y.nodes);
        assert_eq!(x.app, y.app);
        // Rounding can shift schedules slightly; starts should agree to
        // within a small multiple of the rounding error accumulated
        // across preceding jobs.
        assert!(
            (x.start - y.start).abs() < 120.0,
            "{}: {} vs {}",
            x.id,
            x.start,
            y.start
        );
    }
}

#[test]
fn priority_wrapper_composes_with_sharing_strategy() {
    use nodeshare::slurm::{MultifactorPriority, PriorityWeights};
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let matrix = CoRunTruth::build(&catalog, &model);
    let mut spec = WorkloadSpec::evaluation(&catalog, 3);
    spec.n_jobs = 80;
    let workload = spec.generate(&catalog);
    let config = SimConfig::new(ClusterSpec::evaluation());

    let pairing = Pairing::new(
        PairingPolicy::default_threshold(),
        Predictor::class_based(&catalog, &model),
    );
    let mut sched =
        MultifactorPriority::new(Backfill::co(pairing), PriorityWeights::default(), 128);
    let out = nodeshare::engine::run(&workload, &matrix, &mut sched, &config);
    assert!(out.complete());
    assert_eq!(out.records.len(), 80);
}

#[test]
fn share_gating_flows_from_partition_to_outcome() {
    // Same workload through a non-oversubscribable partition never shares.
    let conf = SlurmConf::parse(
        "NodeName=n[0-31] Sockets=2 CoresPerSocket=16 ThreadsPerCore=2 RealMemory=131072\n\
         PartitionName=noshare Nodes=ALL Default=YES MaxTime=12:00:00 OverSubscribe=NO\n",
    )
    .unwrap();
    let catalog = AppCatalog::trinity();
    let mut bs = BatchSystem::new(conf, catalog);
    let mut spec = WorkloadSpec::evaluation(bs.catalog(), 5);
    spec.n_jobs = 60;
    let workload = spec.generate(bs.catalog());
    bs.load_workload(&workload);
    assert!(bs.jobs().iter().all(|j| !j.spec.share_eligible));

    let model = ContentionModel::calibrated();
    let pairing = Pairing::new(
        PairingPolicy::default_threshold(),
        Predictor::class_based(bs.catalog(), &model),
    );
    let out = bs.run(&mut Backfill::co(pairing), &model);
    assert!(out.complete());
    assert!(out.records.iter().all(|r| !r.shared_alloc));
    assert_eq!(out.shared_core_seconds, 0.0);
}
