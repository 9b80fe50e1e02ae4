//! Property tests: SWF serialization round-trips arbitrary valid
//! workloads, and the reader never panics on arbitrary text.

use nodeshare_cluster::JobId;
use nodeshare_perf::{AppCatalog, AppId};
use nodeshare_workload::{swf, JobSpec, Workload};
use proptest::prelude::*;

fn job_strategy() -> impl Strategy<Value = (u32, f64, f64, f64, u8, u32)> {
    (
        1u32..=64,           // nodes
        1.0f64..100_000.0,   // runtime
        0.0f64..1_000_000.0, // submit
        1.0f64..4.0,         // over-estimate factor
        0u8..8,              // app
        0u32..1_000,         // user
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Write → read preserves every field SWF can carry.
    #[test]
    fn roundtrip_preserves_fields(raw in prop::collection::vec(job_strategy(), 1..40)) {
        let catalog = AppCatalog::trinity();
        let jobs: Vec<JobSpec> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (nodes, runtime, submit, over, app, user))| JobSpec {
                malleable: Default::default(),
                id: JobId(i as u64),
                app: AppId(app),
                nodes,
                submit,
                runtime_exclusive: runtime,
                walltime_estimate: runtime * over,
                mem_per_node_mib: 1024,
                share_eligible: true,
                user,
            })
            .collect();
        let workload = Workload::new(jobs).unwrap();
        let cores_per_node = 32;
        let text = swf::write(&workload, cores_per_node);
        let (back, skipped) = swf::read_to_workload(
            text.as_bytes(),
            &catalog,
            swf::SwfImportOptions {
                cores_per_node,
                ..Default::default()
            },
        )
        .unwrap();
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(back.len(), workload.len());
        for (a, b) in workload.jobs().iter().zip(back.jobs()) {
            prop_assert_eq!(a.nodes, b.nodes);
            prop_assert_eq!(a.app, b.app);
            prop_assert_eq!(a.user, b.user);
            prop_assert!((a.submit - b.submit).abs() <= 0.5);
            prop_assert!((a.runtime_exclusive - b.runtime_exclusive).abs() <= 0.5);
            prop_assert!(b.walltime_estimate >= b.runtime_exclusive);
        }
    }

    /// The reader returns Ok or Err but never panics, on arbitrary junk.
    #[test]
    fn parser_never_panics(text in "(?s).{0,400}") {
        let _ = swf::read_to_workload(
            text.as_bytes(),
            &AppCatalog::trinity(),
            swf::SwfImportOptions::default(),
        );
    }

    /// Lines of arbitrary integers with ≥18 fields always parse.
    #[test]
    fn wide_integer_lines_parse(fields in prop::collection::vec(-5i64..1_000_000, 18..24)) {
        let line = fields
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        let parsed = swf::parse_line(1, &line).unwrap();
        prop_assert!(parsed.is_some());
        let record = parsed.unwrap();
        prop_assert_eq!(record.job, fields[0]);
        prop_assert_eq!(record.submit, fields[1]);
    }
}
