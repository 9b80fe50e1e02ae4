//! The parallel campaign runner: shards independent cells over a worker
//! pool, isolates per-cell faults, and merges results deterministically.
//!
//! The contract mirrors the source paper's serial-to-parallel promise:
//! **parallelism must not change answers**. Each cell is one serial
//! simulation (determinism inside the cell); cells are embarrassingly
//! parallel across the grid; and the merge re-imposes the canonical cell
//! order on whatever completion order the pool produced, so every
//! downstream artifact — tables, CSVs, aggregate means — is bit-identical
//! to a `--serial` run.
//!
//! The module is generic over the cell type so its two guarantees can be
//! tested in isolation:
//!
//! * [`run_cells`] — the parallel runner: dynamic work distribution via
//!   [`rayon::dispatch`], per-cell `catch_unwind` fault isolation, and an
//!   [`OrderedMerge`] turning completion order into canonical order.
//! * [`run_cells_serial`] — the retained reference implementation: a
//!   plain loop in canonical order, no threads, no unwinding. `--serial`
//!   binds here; the differential tests prove the parallel path equal.
//! * [`run_cells_with_schedule`] — a test hook that executes cells
//!   serially but *completes* them in an injected (adversarial)
//!   permutation, exercising the merge path exactly as a hostile thread
//!   schedule would.

use nodeshare_metrics::OrderedMerge;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How many workers a campaign runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parallelism {
    /// The serial reference implementation: a plain loop, no worker
    /// pool, no per-cell unwind isolation.
    Serial,
    /// A pool of this many workers (1 still goes through the parallel
    /// machinery — useful for differential tests).
    Jobs(usize),
}

impl Parallelism {
    /// The worker count this setting resolves to.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Jobs(n) => n.max(1),
        }
    }
}

/// Campaign-orchestrator command-line options shared by every seeded
/// experiment binary.
#[derive(Clone, Copy, Debug)]
pub struct CampaignCli {
    /// Worker-pool setting (`--jobs N`, `--serial`, `NODESHARE_JOBS`).
    pub parallelism: Parallelism,
    /// `--quick`: shrink the grid for smoke runs (CI determinism diff);
    /// binaries without a smaller grid ignore it.
    pub quick: bool,
}

/// The usage text, naming the running binary.
fn usage() -> String {
    let arg0 = std::env::args().next().unwrap_or_default();
    let program = std::path::Path::new(&arg0).file_name().unwrap_or_default();
    let program = program.to_string_lossy();
    format!(
        "usage: {program} [--jobs N | --serial] [--quick] [--audit]
  --jobs N   run cells on N workers (default: NODESHARE_JOBS=N|serial,
             else one per core); results are identical for every N
  --serial   run cells in canonical order on the calling thread
  --quick    shrink the grid for a smoke run, where the experiment has one
  --audit    replay-audit every cell (also NODESHARE_AUDIT=1)"
    )
}

/// Reports a bad invocation with the usage text on stderr and exits 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("{problem}\n{}", usage());
    std::process::exit(2);
}

/// A worker count: a non-negative integer (0 means 1).
fn worker_count(value: &str, source: &str) -> Parallelism {
    match value.parse::<usize>() {
        Ok(n) => Parallelism::Jobs(n.max(1)),
        Err(_) => usage_error(&format!("{source} takes an integer, got {value:?}")),
    }
}

impl CampaignCli {
    /// Parses `std::env::args()`. An unknown option or a bad worker count
    /// (flag or `NODESHARE_JOBS`) prints usage to stderr and exits 2, so
    /// typos don't silently run the full campaign; `--help`/`-h` prints
    /// usage to stdout and exits 0.
    pub fn parse() -> CampaignCli {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut jobs: Option<Parallelism> = None;
        let mut quick = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--help" | "-h" => {
                    println!("{}", usage());
                    std::process::exit(0);
                }
                "--serial" => jobs = Some(Parallelism::Serial),
                "--jobs" => {
                    let n = it
                        .next()
                        .unwrap_or_else(|| usage_error("--jobs needs a worker count"));
                    jobs = Some(worker_count(n, "--jobs"));
                }
                "--quick" => quick = true,
                // Handled by `audit_requested()`'s own argv scan.
                "--audit" => {}
                other => usage_error(&format!("unknown option {other}")),
            }
        }
        let parallelism = jobs.unwrap_or_else(|| match std::env::var("NODESHARE_JOBS") {
            Ok(v) if v.eq_ignore_ascii_case("serial") => Parallelism::Serial,
            Ok(v) if !v.is_empty() => worker_count(&v, "NODESHARE_JOBS"),
            _ => Parallelism::Jobs(rayon::current_num_threads()),
        });
        CampaignCli { parallelism, quick }
    }
}

/// One cell that did not produce a result: the coordinates (as a label)
/// plus the panic message, so a failed campaign names exactly which
/// (strategy, seed, preset, cluster) simulation to re-run.
#[derive(Clone, Debug)]
pub struct CellFailure {
    /// Canonical cell index in the campaign grid.
    pub index: usize,
    /// Human-readable cell coordinates (e.g.
    /// `saturated/128n-smt2/co-backfill/seed1001`).
    pub label: String,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell #{} [{}] failed: {}",
            self.index, self.label, self.message
        )
    }
}

/// The outcome of a campaign execution: per-cell results in canonical
/// order, with failed cells reported — not silently dropped, and not
/// poisoning their siblings.
#[derive(Debug)]
pub struct Completed<R> {
    /// One slot per cell in canonical order; `None` exactly for the
    /// cells listed in `failures`.
    pub results: Vec<Option<R>>,
    /// Failed cells, in canonical order.
    pub failures: Vec<CellFailure>,
}

impl<R> Completed<R> {
    /// Unwraps an all-green campaign into its canonical result vector;
    /// a campaign with any failed cell returns them as the error.
    pub fn into_results(self) -> Result<Vec<R>, Vec<CellFailure>> {
        if self.failures.is_empty() {
            Ok(self
                .results
                .into_iter()
                .map(|r| r.expect("no failure recorded, so every slot is filled"))
                .collect())
        } else {
            Err(self.failures)
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs every cell on a pool of `parallelism.workers()` workers and
/// delivers results to `on_merged` in **canonical index order**,
/// regardless of the completion order the pool produced.
///
/// A cell whose `runner` panics (a wedged policy, a failed replay audit,
/// an incomplete campaign assertion) becomes a [`CellFailure`] carrying
/// its coordinates; sibling cells keep running and keep their results.
///
/// With [`Parallelism::Serial`] this defers to [`run_cells_serial`] —
/// the reference implementation, where a panic propagates raw.
pub fn run_cells<C, R>(
    cells: &[C],
    parallelism: Parallelism,
    label_of: impl Fn(usize, &C) -> String + Sync,
    runner: impl Fn(usize, &C) -> R + Sync,
    mut on_merged: impl FnMut(usize, &R),
) -> Completed<R>
where
    C: Sync,
    R: Send,
{
    if parallelism == Parallelism::Serial {
        let results = run_cells_serial(cells, &runner, on_merged);
        return Completed {
            results: results.into_iter().map(Some).collect(),
            failures: Vec::new(),
        };
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(cells.len());
    results.resize_with(cells.len(), || None);
    let mut failures: Vec<CellFailure> = Vec::new();
    let mut merge: OrderedMerge<Result<R, CellFailure>> = OrderedMerge::new(cells.len());
    rayon::dispatch(
        parallelism.workers(),
        cells.len(),
        |i| {
            // AssertUnwindSafe: the runner only borrows shared immutable
            // state (&C and captured &world); a panicking cell cannot
            // leave partial mutations visible to its siblings.
            catch_unwind(AssertUnwindSafe(|| runner(i, &cells[i]))).map_err(|payload| CellFailure {
                index: i,
                label: label_of(i, &cells[i]),
                message: panic_message(payload),
            })
        },
        |i, outcome| {
            merge.push(i, outcome, |idx, outcome| match outcome {
                Ok(r) => {
                    on_merged(idx, &r);
                    results[idx] = Some(r);
                }
                Err(f) => failures.push(f),
            });
        },
    );
    assert!(
        merge.is_complete(),
        "orchestrator lost cells: {} of {} merged",
        merge.emitted(),
        cells.len()
    );
    Completed { results, failures }
}

/// The serial reference implementation: runs cells in canonical order on
/// the calling thread, invoking `on_merged` after each. No worker pool,
/// no unwind catching — exactly the loop the pre-orchestrator experiment
/// binaries ran, kept as the oracle the parallel path is proven against.
pub fn run_cells_serial<C, R>(
    cells: &[C],
    runner: impl Fn(usize, &C) -> R,
    mut on_merged: impl FnMut(usize, &R),
) -> Vec<R> {
    let mut results = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        let r = runner(i, cell);
        on_merged(i, &r);
        results.push(r);
    }
    results
}

/// Test hook: executes cells one at a time but *completes* them in the
/// injected `schedule` permutation, driving the merge path exactly as an
/// adversarial thread schedule would. `on_merged` still observes
/// canonical order — that is the property under test.
///
/// # Panics
/// Panics when `schedule` is not a permutation of `0..cells.len()` (the
/// merge rejects duplicates and out-of-range indices).
pub fn run_cells_with_schedule<C, R>(
    cells: &[C],
    schedule: &[usize],
    runner: impl Fn(usize, &C) -> R,
    mut on_merged: impl FnMut(usize, &R),
) -> Vec<R> {
    assert_eq!(
        schedule.len(),
        cells.len(),
        "completion schedule must cover every cell"
    );
    let mut results: Vec<Option<R>> = Vec::with_capacity(cells.len());
    results.resize_with(cells.len(), || None);
    let mut merge: OrderedMerge<R> = OrderedMerge::new(cells.len());
    for &i in schedule {
        let r = runner(i, &cells[i]);
        merge.push(i, r, |idx, r| {
            on_merged(idx, &r);
            results[idx] = Some(r);
        });
    }
    assert!(merge.is_complete());
    results
        .into_iter()
        .map(|r| r.expect("permutation covered every cell"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_for_all_worker_counts() {
        let cells: Vec<u64> = (0..37).collect();
        let runner = |i: usize, c: &u64| c * 3 + i as u64;
        let serial = run_cells_serial(&cells, runner, |_, _| {});
        for jobs in [1, 2, 8, 64] {
            let mut merged_order = Vec::new();
            let done = run_cells(
                &cells,
                Parallelism::Jobs(jobs),
                |i, _| format!("cell{i}"),
                runner,
                |i, _| merged_order.push(i),
            );
            assert_eq!(merged_order, (0..cells.len()).collect::<Vec<_>>());
            assert_eq!(done.into_results().unwrap(), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_cell_is_isolated_and_named() {
        let cells: Vec<u64> = (0..20).collect();
        let done = run_cells(
            &cells,
            Parallelism::Jobs(4),
            |i, _| format!("grid/cell{i}"),
            |i, c| {
                if i == 7 {
                    panic!("cell seven exploded");
                }
                c + 1
            },
            |_, _| {},
        );
        assert_eq!(done.failures.len(), 1);
        let f = &done.failures[0];
        assert_eq!(f.index, 7);
        assert_eq!(f.label, "grid/cell7");
        assert!(f.message.contains("cell seven exploded"));
        assert!(f.to_string().contains("grid/cell7"));
        // Siblings kept their results.
        for (i, slot) in done.results.iter().enumerate() {
            if i == 7 {
                assert!(slot.is_none());
            } else {
                assert_eq!(*slot, Some(cells[i] + 1));
            }
        }
        assert!(done.into_results().is_err());
    }

    #[test]
    fn injected_schedule_still_merges_canonically() {
        let cells: Vec<u64> = (0..10).collect();
        let schedule = [9, 0, 5, 1, 7, 3, 2, 8, 6, 4];
        let mut order = Vec::new();
        let results =
            run_cells_with_schedule(&cells, &schedule, |_, c| c * 2, |i, _| order.push(i));
        assert_eq!(order, (0..10).collect::<Vec<_>>());
        assert_eq!(results, (0..10).map(|c| c * 2).collect::<Vec<u64>>());
    }
}
