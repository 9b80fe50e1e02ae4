//! The parallel campaign runner: shards independent cells over a worker
//! pool, isolates per-cell faults, and returns results in canonical cell
//! order.
//!
//! The contract mirrors the source paper's serial-to-parallel promise:
//! **parallelism must not change answers**. Each cell is one serial
//! simulation (determinism inside the cell); cells are embarrassingly
//! parallel across the grid; and every cell's outcome lands in the slot
//! of its canonical index, whatever order the pool completed them in,
//! so every downstream artifact — tables, CSVs, aggregate means — is
//! bit-identical to a `--serial` run.
//!
//! The module is generic over the cell type so its guarantees can be
//! tested in isolation:
//!
//! * [`run_cells`] — the parallel runner: dynamic work distribution via
//!   [`rayon::dispatch`], which returns results in index order, and
//!   per-cell `catch_unwind` fault isolation.
//! * [`run_cells_serial`] — the retained reference implementation: a
//!   plain loop in canonical order, no threads, no unwinding. `--serial`
//!   binds here; the differential tests prove the parallel path equal.

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
/// returns one outcome per cell in **canonical index order**, regardless
/// of the completion order the pool produced.
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
) -> Vec<Result<R, CellFailure>>
where
    C: Sync,
    R: Send,
{
    if parallelism == Parallelism::Serial {
        return run_cells_serial(cells, runner)
            .into_iter()
            .map(Ok)
            .collect();
    }
    rayon::dispatch(parallelism.workers(), cells.len(), |i| {
        // AssertUnwindSafe: the runner only borrows shared immutable
        // state (&C and captured &world); a panicking cell cannot leave
        // partial mutations visible to its siblings.
        catch_unwind(AssertUnwindSafe(|| runner(i, &cells[i]))).map_err(|payload| CellFailure {
            index: i,
            label: label_of(i, &cells[i]),
            message: panic_message(payload),
        })
    })
}

/// The serial reference implementation: runs cells in canonical order on
/// the calling thread. No worker pool, no unwind catching — exactly the
/// loop the pre-orchestrator experiment binaries ran, kept as the oracle
/// the parallel path is proven against.
pub fn run_cells_serial<C, R>(cells: &[C], runner: impl Fn(usize, &C) -> R) -> Vec<R> {
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| runner(i, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_matches_serial_for_all_worker_counts() {
        let cells: Vec<u64> = (0..37).collect();
        let runner = |i: usize, c: &u64| c * 3 + i as u64;
        let serial = run_cells_serial(&cells, runner);
        for jobs in [1, 2, 8, 64] {
            let done = run_cells(
                &cells,
                Parallelism::Jobs(jobs),
                |i, _| format!("cell{i}"),
                runner,
            );
            let results: Vec<u64> = done.into_iter().map(Result::unwrap).collect();
            assert_eq!(results, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn panicking_cell_is_isolated_and_named() {
        let cells: Vec<u64> = (0..20).collect();
        // Cell 3 waits until every other cell has finished, so it
        // completes last although it fails at a lower index than 7.
        let finished = AtomicUsize::new(0);
        let done = run_cells(
            &cells,
            Parallelism::Jobs(4),
            |i, _| format!("grid/cell{i}"),
            |i, c| {
                if i == 3 {
                    while finished.load(Ordering::SeqCst) < cells.len() - 1 {
                        std::thread::yield_now();
                    }
                    panic!("cell three exploded last");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                if i == 7 {
                    panic!("cell seven exploded");
                }
                c + 1
            },
        );
        let failures: Vec<&CellFailure> = done.iter().filter_map(|r| r.as_ref().err()).collect();
        assert_eq!(
            failures.iter().map(|f| f.index).collect::<Vec<_>>(),
            [3, 7],
            "failures in canonical order"
        );
        assert_eq!(failures[0].label, "grid/cell3");
        assert!(failures[0].message.contains("cell three exploded last"));
        let f = failures[1];
        assert_eq!(f.label, "grid/cell7");
        assert!(f.message.contains("cell seven exploded"));
        assert!(f.to_string().contains("grid/cell7"));
        // Siblings kept their results.
        for (i, slot) in done.iter().enumerate() {
            if i == 3 || i == 7 {
                assert!(slot.is_err());
            } else {
                assert_eq!(*slot.as_ref().unwrap(), cells[i] + 1);
            }
        }
    }
}
