#!/usr/bin/env bash
# Regenerates every table and figure of EXPERIMENTS.md into results/.
#
# Usage: run_all_experiments.sh [--jobs N | --serial]
#
# Every seeded experiment except F14 runs through the campaign
# orchestrator, which shards its (preset x cluster x strategy x seed)
# cell grid over N workers. `--jobs N`/`--serial` is exported as
# NODESHARE_JOBS, which each of them reads; the merge is deterministic,
# so results/ is bit-identical whatever worker count is chosen. T1 and
# F2 simulate nothing, and F14 keeps its own replication loop (its gang
# variant swaps the ground-truth model); they ignore the setting.
#
# Each campaign also dumps per-cell telemetry (JSONL samples +
# Prometheus exposition) into
# results/telemetry/<campaign>/<cell-slug>/campaign.{jsonl,prom} unless
# the caller already pointed NODESHARE_TELEMETRY elsewhere (or disabled
# it with NODESHARE_TELEMETRY=0), so parallel cells never interleave
# writes into a shared file.
set -uo pipefail
cd "$(dirname "$0")/.."

while (($#)); do
  case "$1" in
    --jobs)
      shift
      [[ $# -ge 1 ]] || { echo "--jobs needs a worker count" >&2; exit 2; }
      export NODESHARE_JOBS="$1"
      ;;
    --serial)
      export NODESHARE_JOBS=serial
      ;;
    *)
      echo "unknown option $1 (see --jobs N / --serial)" >&2
      exit 2
      ;;
  esac
  shift
done

# Stamp the run with the lint level it executed under, so archived
# results/ are traceable to a determinism-contract version.
echo "lint: $(cargo run -q -p detlint -- --version)"

export NODESHARE_TELEMETRY="${NODESHARE_TELEMETRY:-results/telemetry}"
if [[ "$NODESHARE_TELEMETRY" != 0 && -n "$NODESHARE_TELEMETRY" ]]; then
  mkdir -p "$NODESHARE_TELEMETRY"
fi

BINS=(
  exp_t1_miniapps
  exp_f2_pair_matrix
  exp_t2_strategies
  exp_f3_load_sweep
  exp_f4_share_fraction
  exp_f5_overhead
  exp_t3_headline
  exp_f7_pairing_ablation
  exp_f8_estimate_error
  exp_f9_failures
  exp_f10_fairness
  exp_f11_smt4
  exp_f12_duration_match
  exp_f13_site_profiles
  exp_f14_gang_vs_smt
  exp_f15_estimate_learning
  exp_f16_malleable
)

cargo build --release -p nodeshare-bench || exit 1

# Run every experiment even when one fails, report per-binary status,
# and propagate failure through the script's own exit code (a plain
# `for` loop under `set -e` would stop at the first failure and, in some
# shells, mask the code of the last command).
failed=()
for bin in "${BINS[@]}"; do
  echo "=== $bin ==="
  if ! cargo run --release --quiet -p nodeshare-bench --bin "$bin"; then
    echo "!!! $bin FAILED (exit $?)" >&2
    failed+=("$bin")
  fi
done

if ((${#failed[@]})); then
  echo "FAILED experiments: ${failed[*]}" >&2
  exit 1
fi
echo "All experiment outputs are in results/."
if [[ "$NODESHARE_TELEMETRY" != 0 && -n "$NODESHARE_TELEMETRY" ]]; then
  echo "Per-cell telemetry (JSONL + .prom) is in $NODESHARE_TELEMETRY/<campaign>/<cell>/."
fi
