//! Standard Workload Format (SWF) trace I/O.
//!
//! SWF is the lingua franca of the parallel-workload-archive ecosystem:
//! one job per line, 18 whitespace-separated integer fields, `;` comment
//! headers. Supporting it lets nodeshare replay real traces in place of
//! the paper's site-local workload, and export generated campaigns for
//! other simulators.
//!
//! Field reference (1-based, as in the SWF definition):
//! 1 job number · 2 submit · 3 wait · 4 run time · 5 allocated procs ·
//! 6 avg CPU time · 7 used memory · 8 requested procs · 9 requested time ·
//! 10 requested memory · 11 status · 12 user · 13 group · 14 executable ·
//! 15 queue · 16 partition · 17 preceding job · 18 think time. Unknown
//! values are `-1`.

use crate::job::{JobSpec, Seconds, Workload};
use crate::source::{JobSource, ReorderBuffer, SourceError};
use nodeshare_cluster::JobId;
use nodeshare_perf::{AppCatalog, AppId};
use serde::{Deserialize, Serialize};
use std::io::BufRead;

/// One parsed SWF line.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwfRecord {
    /// Field 1: job number.
    pub job: i64,
    /// Field 2: submit time, seconds from trace epoch.
    pub submit: i64,
    /// Field 3: wait time in seconds (−1 unknown).
    pub wait: i64,
    /// Field 4: run time in seconds (−1 unknown).
    pub run_time: i64,
    /// Field 5: allocated processors (−1 unknown).
    pub alloc_procs: i64,
    /// Field 8: requested processors (−1 unknown).
    pub req_procs: i64,
    /// Field 9: requested (wall) time in seconds (−1 unknown).
    pub req_time: i64,
    /// Field 11: completion status.
    pub status: i64,
    /// Field 12: user id (−1 unknown).
    pub user: i64,
    /// Field 14: executable/application number (−1 unknown).
    pub executable: i64,
}

/// Errors from SWF parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwfError {
    /// A data line had fewer than 18 fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
    },
    /// A field failed integer parsing.
    BadField {
        /// 1-based line number.
        line: usize,
        /// 1-based field index.
        field: usize,
        /// Offending token.
        token: String,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::TooFewFields { line, found } => {
                write!(f, "line {line}: expected 18 fields, found {found}")
            }
            SwfError::BadField { line, field, token } => {
                write!(f, "line {line}, field {field}: cannot parse {token:?}")
            }
        }
    }
}

impl std::error::Error for SwfError {}

impl From<SwfError> for SourceError {
    /// The line moves into [`SourceError::line`], and the message keeps
    /// only what follows it: `SourceError`'s `Display` adds the prefix.
    fn from(e: SwfError) -> Self {
        match e {
            SwfError::TooFewFields { line, found } => {
                SourceError::at_line(line, format!("expected 18 fields, found {found}"))
            }
            SwfError::BadField { line, field, token } => {
                SourceError::at_line(line, format!("field {field}: cannot parse {token:?}"))
            }
        }
    }
}

/// Parses one SWF line (1-based `lineno` for diagnostics). `Ok(None)`
/// for comment and blank lines.
pub fn parse_line(lineno: usize, line: &str) -> Result<Option<SwfRecord>, SwfError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with(';') {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 18 {
        return Err(SwfError::TooFewFields {
            line: lineno,
            found: fields.len(),
        });
    }
    let get = |i: usize| -> Result<i64, SwfError> {
        fields[i - 1].parse().map_err(|_| SwfError::BadField {
            line: lineno,
            field: i,
            token: fields[i - 1].to_string(),
        })
    };
    Ok(Some(SwfRecord {
        job: get(1)?,
        submit: get(2)?,
        wait: get(3)?,
        run_time: get(4)?,
        alloc_procs: get(5)?,
        req_procs: get(8)?,
        req_time: get(9)?,
        status: get(11)?,
        user: get(12)?,
        executable: get(14)?,
    }))
}

/// Options controlling SWF → [`Workload`] conversion.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SwfImportOptions {
    /// Cores per node of the target cluster (processor counts become
    /// `ceil(procs / cores_per_node)` nodes).
    pub cores_per_node: u32,
    /// Memory charged per node when the trace gives none, MiB.
    pub default_mem_per_node_mib: u32,
    /// Whether imported jobs opt into sharing.
    pub share_eligible: bool,
}

impl Default for SwfImportOptions {
    fn default() -> Self {
        SwfImportOptions {
            cores_per_node: 32,
            default_mem_per_node_mib: 4 * 1024,
            share_eligible: true,
        }
    }
}

/// Converts one record into a [`JobSpec`] with id `next_id` (advanced on
/// success), or `None` for records with unusable sizes, runtimes, or
/// submit times. [`SwfSource`] — and through it [`read_to_workload`] —
/// assigns ids in *file order*, so a streamed and a materialized read
/// of one file agree job for job.
pub fn record_to_spec(
    r: &SwfRecord,
    next_id: &mut u64,
    catalog: &AppCatalog,
    opts: &SwfImportOptions,
) -> Option<JobSpec> {
    let procs = if r.req_procs > 0 {
        r.req_procs
    } else {
        r.alloc_procs
    };
    if procs <= 0 || r.run_time <= 0 || r.submit < 0 {
        return None;
    }
    // A width past `u32::MAX` nodes saturates: the engine rejects it at
    // submission like any request wider than the machine.
    let nodes =
        u32::try_from((procs as u64).div_ceil(opts.cores_per_node as u64)).unwrap_or(u32::MAX);
    let runtime = r.run_time as Seconds;
    let estimate = if r.req_time > 0 {
        (r.req_time as Seconds).max(runtime)
    } else {
        runtime
    };
    let app_idx = if r.executable >= 0 {
        (r.executable as usize) % catalog.len()
    } else {
        (r.job.unsigned_abs() as usize) % catalog.len()
    };
    let app = AppId(app_idx as u8);
    let id = JobId(*next_id);
    *next_id += 1;
    Some(JobSpec {
        id,
        app,
        nodes,
        submit: r.submit as Seconds,
        malleable: Default::default(),
        runtime_exclusive: runtime,
        walltime_estimate: estimate,
        mem_per_node_mib: catalog
            .get(app)
            .map(|a| {
                a.mem_per_node_mib
                    .try_into()
                    // detlint: allow(D5, invariant stated in the expect message; violating it is a bug, not a recoverable state)
                    .expect("catalog memory fits u32 MiB")
            })
            .unwrap_or(opts.default_mem_per_node_mib),
        share_eligible: opts.share_eligible,
        user: r.user.max(0) as u32,
    })
}

/// How many input lines a streaming trace source parses per
/// [`JobSource::next_chunk`] round before draining the reorder buffer.
pub(crate) const STREAM_BATCH_LINES: usize = 4096;

/// Streams an SWF trace line by line through the [`JobSource`] contract,
/// never materializing the file.
///
/// Ids are assigned in file order, and jobs are released in
/// `(submit, id)` order through a [`ReorderBuffer`] — so for any trace
/// whose submit jitter fits the window, a streamed run is bit-identical
/// to materializing the file first ([`read_to_workload`]). The default
/// window is 0: SWF convention is submit-sorted, and a violation is
/// reported as an error naming the line rather than silently
/// misordering.
pub struct SwfSource<'c, R> {
    reader: R,
    catalog: &'c AppCatalog,
    opts: SwfImportOptions,
    rb: ReorderBuffer,
    buf: String,
    lineno: usize,
    next_id: u64,
    skipped: usize,
    eof: bool,
}

impl<'c, R: BufRead> SwfSource<'c, R> {
    /// A streaming source over `reader` with a submit-sorted input
    /// requirement (reorder window 0).
    pub fn new(reader: R, catalog: &'c AppCatalog, opts: SwfImportOptions) -> Self {
        SwfSource::with_reorder_window(reader, catalog, opts, 0.0)
    }

    /// As [`SwfSource::new`], tolerating `window` seconds of
    /// submit-order jitter.
    pub fn with_reorder_window(
        reader: R,
        catalog: &'c AppCatalog,
        opts: SwfImportOptions,
        window: Seconds,
    ) -> Self {
        SwfSource {
            reader,
            catalog,
            opts,
            rb: ReorderBuffer::new(window),
            buf: String::new(),
            lineno: 0,
            next_id: 0,
            skipped: 0,
            eof: false,
        }
    }

    /// Records skipped so far for unusable sizes/runtimes (the
    /// [`record_to_spec`] skip rule).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Reads one line; `Ok(false)` at end of input.
    fn read_line(&mut self) -> Result<bool, SourceError> {
        self.buf.clear();
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| SourceError::at_line(self.lineno + 1, format!("read failed: {e}")))?;
        if n == 0 {
            return Ok(false);
        }
        self.lineno += 1;
        Ok(true)
    }

    fn ingest_line(&mut self) -> Result<(), SourceError> {
        let Some(rec) = parse_line(self.lineno, &self.buf)? else {
            return Ok(());
        };
        match record_to_spec(&rec, &mut self.next_id, self.catalog, &self.opts) {
            Some(spec) => {
                let submit = spec.submit;
                self.rb.push(spec).map_err(|lateness| {
                    SourceError::at_line(
                        self.lineno,
                        format!(
                            "submit {submit} goes back {lateness} s beyond the reorder \
                             window — pass --materialize to read this trace whole"
                        ),
                    )
                })?;
            }
            None => self.skipped += 1,
        }
        Ok(())
    }
}

impl<R: BufRead> JobSource for SwfSource<'_, R> {
    fn next_chunk(&mut self, out: &mut Vec<JobSpec>) -> Result<Option<Seconds>, SourceError> {
        while !self.eof {
            for _ in 0..STREAM_BATCH_LINES {
                if !self.read_line()? {
                    self.eof = true;
                    break;
                }
                self.ingest_line()?;
            }
            if self.eof {
                break;
            }
            if self.rb.drain_ready(out) > 0 {
                return Ok(Some(self.rb.horizon()));
            }
        }
        self.rb.drain_all(out);
        Ok(None)
    }
}

/// Materializes a whole SWF trace (`--materialize`, tests, examples):
/// an [`SwfSource`] whose reorder window covers every submit time, so a
/// trace out of submit order is sorted rather than refused —
/// materializing holds every job anyway. Returns the workload and the
/// skipped-record count.
pub fn read_to_workload<R: BufRead>(
    reader: R,
    catalog: &AppCatalog,
    opts: SwfImportOptions,
) -> Result<(Workload, usize), SourceError> {
    let mut src = SwfSource::with_reorder_window(reader, catalog, opts, Seconds::MAX);
    let workload = crate::source::collect_source(&mut src)?;
    Ok((workload, src.skipped()))
}

/// Serializes a workload to SWF text (with a descriptive comment header).
///
/// Times are rounded to whole seconds, as the format requires. The
/// executable field carries the app id, so an export/import cycle through
/// the same catalog preserves app assignments.
pub fn write(workload: &Workload, cores_per_node: u32) -> String {
    let mut out = String::with_capacity(workload.len() * 80 + 128);
    out.push_str("; SWF export from nodeshare\n");
    out.push_str("; MaxNodes: see importing cluster\n");
    for j in workload.jobs() {
        let procs = j.nodes as u64 * cores_per_node as u64;
        // 18 fields; unknowns are -1.
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 1 {} -1 {} -1 -1 -1 -1\n",
            j.id.0 + 1,
            j.submit.round() as i64,
            j.runtime_exclusive.round().max(1.0) as i64,
            procs,
            procs,
            j.walltime_estimate.ceil() as i64,
            j.user,
            j.app.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::WorkloadSpec;

    const SAMPLE: &str = "\
; Comment header
; UnixStartTime: 0

1 0 10 3600 64 -1 -1 64 7200 -1 1 5 -1 2 -1 -1 -1 -1
2 30 -1 100 -1 -1 -1 32 -1 -1 1 6 -1 -1 -1 -1 -1 -1
3 60 0 -1 16 -1 -1 16 600 -1 0 7 -1 1 -1 -1 -1 -1
";

    /// The data records of `text`, parsed line by line.
    fn records(text: &str) -> Vec<SwfRecord> {
        text.lines()
            .enumerate()
            .filter_map(|(i, line)| parse_line(i + 1, line).unwrap())
            .collect()
    }

    fn materialize(text: &str) -> (Workload, usize) {
        let catalog = AppCatalog::trinity();
        read_to_workload(text.as_bytes(), &catalog, SwfImportOptions::default()).unwrap()
    }

    #[test]
    fn parses_sample_records() {
        let recs = records(SAMPLE);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].job, 1);
        assert_eq!(recs[0].run_time, 3600);
        assert_eq!(recs[0].req_procs, 64);
        assert_eq!(recs[0].executable, 2);
        assert_eq!(recs[1].req_time, -1);
    }

    #[test]
    fn rejects_malformed_lines() {
        let err = parse_line(1, "1 2 3\n").unwrap_err();
        assert_eq!(err, SwfError::TooFewFields { line: 1, found: 3 });
        let err = parse_line(1, "1 x 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\n").unwrap_err();
        assert!(matches!(err, SwfError::BadField { field: 2, .. }));
    }

    #[test]
    fn conversion_skips_unusable_records() {
        let (w, skipped) = materialize(SAMPLE);
        assert_eq!(w.len(), 2); // record 3 has run_time = -1
        assert_eq!(skipped, 1);
        let j = &w.jobs()[0];
        assert_eq!(j.nodes, 2); // 64 procs / 32 cores
        assert_eq!(j.runtime_exclusive, 3600.0);
        assert_eq!(j.walltime_estimate, 7200.0);
        assert_eq!(j.user, 5);
    }

    #[test]
    fn estimate_never_below_runtime_on_import() {
        let (w, _) = materialize("1 0 -1 5000 32 -1 -1 32 100 -1 1 0 -1 0 -1 -1 -1 -1\n");
        assert!(w.jobs()[0].walltime_estimate >= w.jobs()[0].runtime_exclusive);
    }

    #[test]
    fn export_import_roundtrip_preserves_structure() {
        let catalog = AppCatalog::trinity();
        let spec = WorkloadSpec::evaluation(&catalog, 9);
        let original = spec.generate(&catalog);
        let text = write(&original, 32);
        let (reimported, skipped) = read_to_workload(
            text.as_bytes(),
            &catalog,
            SwfImportOptions {
                cores_per_node: 32,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(reimported.len(), original.len());
        for (a, b) in original.jobs().iter().zip(reimported.jobs()) {
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.app, b.app);
            assert_eq!(a.user, b.user);
            // Times survive to 1-second rounding.
            assert!((a.submit - b.submit).abs() <= 0.5);
            assert!((a.runtime_exclusive - b.runtime_exclusive).abs() <= 0.5);
            assert!(b.walltime_estimate >= b.runtime_exclusive);
        }
    }

    #[test]
    fn streamed_swf_matches_materialized() {
        let catalog = AppCatalog::trinity();
        let opts = SwfImportOptions::default();
        // The evaluation-campaign export: ~1000 realistic lines.
        let text = write(
            &WorkloadSpec::evaluation(&catalog, 9).generate(&catalog),
            32,
        );
        let (materialized, skipped) = materialize(&text);
        let mut src = SwfSource::new(text.as_bytes(), &catalog, opts);
        let streamed = crate::source::collect_source(&mut src).unwrap();
        assert_eq!(streamed, materialized);
        assert_eq!(src.skipped(), skipped);
        // The small sample with a skipped record.
        let (materialized, skipped) = materialize(SAMPLE);
        let mut src = SwfSource::new(SAMPLE.as_bytes(), &catalog, opts);
        let streamed = crate::source::collect_source(&mut src).unwrap();
        assert_eq!(streamed, materialized);
        assert_eq!((streamed.len(), src.skipped()), (2, skipped));
    }

    #[test]
    fn streamed_swf_repairs_jitter_within_window() {
        let catalog = AppCatalog::trinity();
        let opts = SwfImportOptions::default();
        let text = "\
1 100 -1 600 32 -1 -1 32 900 -1 1 0 -1 0 -1 -1 -1 -1
2 90 -1 600 32 -1 -1 32 900 -1 1 0 -1 0 -1 -1 -1 -1
3 120 -1 600 32 -1 -1 32 900 -1 1 0 -1 0 -1 -1 -1 -1
";
        let (materialized, _) = materialize(text);
        let mut src = SwfSource::with_reorder_window(text.as_bytes(), &catalog, opts, 30.0);
        let streamed = crate::source::collect_source(&mut src).unwrap();
        assert_eq!(streamed, materialized);
        assert_eq!(streamed.jobs()[0].submit, 90.0);
    }

    #[test]
    fn streamed_swf_names_the_line_breaking_submit_order() {
        let catalog = AppCatalog::trinity();
        let text = "\
1 100 -1 600 32 -1 -1 32 900 -1 1 0 -1 0 -1 -1 -1 -1
2 90 -1 600 32 -1 -1 32 900 -1 1 0 -1 0 -1 -1 -1 -1
";
        let mut src = SwfSource::new(text.as_bytes(), &catalog, SwfImportOptions::default());
        let err = crate::source::collect_source(&mut src).unwrap_err();
        assert_eq!(err.line, Some(2));
        assert!(err.message.contains("reorder"), "{}", err.message);
        assert!(err.message.contains("--materialize"), "{}", err.message);
        // Materializing reads the same trace whole, in submit order,
        // with ids in file order.
        let (w, _) = materialize(text);
        let order: Vec<(f64, u64)> = w.jobs().iter().map(|j| (j.submit, j.id.0)).collect();
        assert_eq!(order, [(90.0, 1), (100.0, 0)]);
    }

    #[test]
    fn streamed_swf_propagates_parse_errors_with_line() {
        let catalog = AppCatalog::trinity();
        let text = "; header\n1 2 3\n";
        let mut src = SwfSource::new(text.as_bytes(), &catalog, SwfImportOptions::default());
        let err = crate::source::collect_source(&mut src).unwrap_err();
        assert_eq!(err.line, Some(2));
    }

    #[test]
    fn source_error_names_the_line_once() {
        for (text, want) in [
            ("1 2 3\n", "line 1: expected 18 fields, found 3"),
            (
                "1 x 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18\n",
                "line 1: field 2: cannot parse \"x\"",
            ),
        ] {
            let shown = SourceError::from(parse_line(1, text).unwrap_err()).to_string();
            assert_eq!(shown, want);
            assert_eq!(shown.matches("line ").count(), 1, "{shown}");
        }
    }

    #[test]
    fn negative_executable_maps_by_job_number() {
        let catalog = AppCatalog::trinity();
        let (w, _) = materialize("7 0 -1 100 32 -1 -1 32 200 -1 1 0 -1 -1 -1 -1 -1 -1\n");
        assert_eq!(w.jobs()[0].app, AppId((7 % catalog.len()) as u8));
    }
}
