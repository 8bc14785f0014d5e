#!/usr/bin/env bash
# Bench regression guard: rerun the benches that have canonical baselines
# checked in at the repo root and compare their simulated metrics against
# them. Registered as CI's bench_regression job.
#   BENCH_fig7.json, BENCH_fig8.json   the paper's Figures 7 and 8: every
#                                      simulated time, per app and
#                                      configuration; compared exactly
#   BENCH_overlap.json,                ablations; compared within a
#   BENCH_parallel_exec.json           relative tolerance
#
# Host wall-clock metrics are skipped: anything whose name contains
# "wall", plus a config's "speedup" when that config also reports
# wall-clock metrics (then the speedup is wall-derived too). Everything
# else in these reports is simulated time or a ratio of simulated times,
# which is deterministic — the tolerance only absorbs float formatting.
#
# Usage: check_bench_regression.sh [build_dir] [tolerance_pct]
# (tolerance_pct, default 2, applies to the ablations only)
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
tol="${2:-2}"

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_regression: python3 not available, skipping"
  exit 0
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fail=0
for spec in fig7:bench_fig7_ocl_to_cuda:0 fig8:bench_fig8_cuda_to_ocl:0 \
            overlap:bench_ablation_overlap:"$tol" \
            parallel_exec:bench_ablation_parallel_exec:"$tol"; do
  IFS=: read -r name binname tol_pct <<<"$spec"
  base="$root/BENCH_$name.json"
  bin="$build/bench/$binname"
  if [ ! -f "$base" ]; then
    echo "bench_regression: FAIL — missing baseline $base"
    fail=1
    continue
  fi
  if [ ! -x "$bin" ]; then
    echo "bench_regression: FAIL — missing bench binary $bin (build first)"
    fail=1
    continue
  fi
  if ! BRIDGECL_BENCH_DIR="$tmp" "$bin" >/dev/null 2>&1; then
    echo "bench_regression: FAIL — $bin did not run cleanly"
    fail=1
    continue
  fi
  python3 - "$base" "$tmp/BENCH_$name.json" "$tol_pct" <<'PYEOF' || fail=1
import json
import sys

base_path, fresh_path, tol_pct = sys.argv[1], sys.argv[2], float(sys.argv[3])
base = json.load(open(base_path))
fresh = json.load(open(fresh_path))
name = base.get("bench", "?")

bad = False
for config, metrics in base["results"].items():
    got = fresh["results"].get(config)
    if got is None:
        print(f"bench_regression: FAIL — {name}/{config} missing from fresh run")
        bad = True
        continue
    wall_config = any("wall" in m for m in metrics)
    for metric, want in metrics.items():
        if "wall" in metric or (metric == "speedup" and wall_config):
            continue
        have = got.get(metric)
        if have is None:
            print(f"bench_regression: FAIL — {name}/{config}/{metric} missing")
            bad = True
            continue
        limit = abs(want) * tol_pct / 100.0
        if abs(have - want) > limit:
            print(
                f"bench_regression: FAIL — {name}/{config}/{metric}: "
                f"baseline {want} vs fresh {have} "
                f"(tolerance {tol_pct}%)"
            )
            bad = True
if bad:
    sys.exit(1)
within = f"within {tol_pct}%" if tol_pct else "exactly"
print(f"bench_regression: OK — {name} matches baseline {within}")
PYEOF
done

exit "$fail"
