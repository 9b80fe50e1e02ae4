//! Replay a Standard Workload Format trace under the baseline and the
//! node-sharing strategy.
//!
//! With no argument, a synthetic campaign is generated, exported to SWF
//! under `results/`, and replayed — demonstrating the full round trip a
//! site would use with its own archive traces:
//!
//! ```text
//! cargo run --release --example swf_replay [trace.swf]
//! ```

use nodeshare::metrics::{pct, relative_gain};
use nodeshare::prelude::*;
use nodeshare::workload::swf;

fn main() {
    let catalog = AppCatalog::trinity();
    let model = ContentionModel::calibrated();
    let matrix = CoRunTruth::build(&catalog, &model);
    let cluster = ClusterSpec::evaluation();
    let cores_per_node = cluster.node.cores();

    // Obtain SWF text: from argv, or export a generated campaign.
    let arg = std::env::args().nth(1);
    let text = match &arg {
        Some(path) => {
            println!("replaying {path}");
            std::fs::read_to_string(path).expect("readable SWF file")
        }
        None => {
            let mut spec = WorkloadSpec::evaluation(&catalog, 7);
            spec.n_jobs = 400;
            spec.arrival = ArrivalProcess::Poisson { rate: 0.0080 };
            let generated = spec.generate(&catalog);
            let text = swf::write(&generated, cores_per_node);
            let _ = std::fs::create_dir_all("results");
            let path = "results/synthetic_campaign.swf";
            std::fs::write(path, &text).expect("writable results dir");
            println!("no trace given; exported synthetic campaign to {path}");
            text
        }
    };

    let opts = swf::SwfImportOptions {
        cores_per_node,
        ..Default::default()
    };
    let (workload, skipped) =
        swf::read_to_workload(text.as_bytes(), &catalog, opts).expect("valid SWF");
    println!(
        "parsed {} records -> {} jobs ({} skipped), {:.0} node-hours of work\n",
        workload.len() + skipped,
        workload.len(),
        skipped,
        workload.total_work_node_seconds() / 3600.0
    );

    let config = SimConfig::new(cluster);
    let easy = nodeshare::engine::run(&workload, &matrix, &mut Backfill::easy(), &config);
    let pairing = Pairing::new(
        PairingPolicy::default_threshold(),
        Predictor::class_based(&catalog, &model),
    );
    let co = nodeshare::engine::run(&workload, &matrix, &mut Backfill::co(pairing), &config);

    let me = easy.metrics(&cluster);
    let mc = co.metrics(&cluster);
    let mut t = Table::new(vec!["metric", "easy", "co-backfill"]);
    t.row(vec![
        "makespan (h)".into(),
        format!("{:.1}", me.makespan / 3600.0),
        format!("{:.1}", mc.makespan / 3600.0),
    ]);
    t.row(vec![
        "mean wait (min)".into(),
        format!("{:.0}", me.wait.mean / 60.0),
        format!("{:.0}", mc.wait.mean / 60.0),
    ]);
    t.row(vec![
        "E_comp".into(),
        format!("{:.3}", me.computational_efficiency),
        format!("{:.3}", mc.computational_efficiency),
    ]);
    t.row(vec![
        "E_sched".into(),
        format!("{:.3}", me.scheduling_efficiency),
        format!("{:.3}", mc.scheduling_efficiency),
    ]);
    println!("{}", t.render());
    println!(
        "sharing gains on this trace: E_comp {}, E_sched {}\n",
        pct(relative_gain(
            mc.computational_efficiency,
            me.computational_efficiency
        )),
        pct(relative_gain(
            mc.scheduling_efficiency,
            me.scheduling_efficiency
        )),
    );

    // The standard trace-study move: sweep the same trace across load
    // levels by compressing/stretching inter-arrival times.
    println!("load sweep on the same trace (arrivals rescaled):");
    for factor in [0.5, 1.0, 1.5, 2.0] {
        let scaled = workload.scale_load(factor);
        let pairing = Pairing::new(
            PairingPolicy::default_threshold(),
            Predictor::class_based(&catalog, &model),
        );
        let e = nodeshare::engine::run(&scaled, &matrix, &mut Backfill::easy(), &config);
        let c = nodeshare::engine::run(&scaled, &matrix, &mut Backfill::co(pairing), &config);
        let (me, mc) = (e.metrics(&cluster), c.metrics(&cluster));
        println!(
            "  {factor:>3.1}x load: wait {:>4.0} -> {:>4.0} min, E_comp gain {}",
            me.wait.mean / 60.0,
            mc.wait.mean / 60.0,
            pct(relative_gain(
                mc.computational_efficiency,
                me.computational_efficiency
            )),
        );
    }
}
