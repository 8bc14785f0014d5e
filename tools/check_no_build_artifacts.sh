#!/usr/bin/env bash
# Repo-hygiene guard: fail if any build tree (build*/ at the repo root) is
# tracked by git. PR 1 accidentally committed build/ and build-asan/; this
# script — registered as the ctest test `repo_hygiene` — keeps them out.
#
# Usage: check_no_build_artifacts.sh [repo_root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 1

if ! command -v git >/dev/null 2>&1; then
  echo "repo_hygiene: git not available, skipping"
  exit 0
fi
if ! git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  echo "repo_hygiene: not a git work tree, skipping"
  exit 0
fi

tracked=$(git ls-files 'build*/' | head -20)
if [ -n "$tracked" ]; then
  echo "repo_hygiene: FAIL — build artifacts are tracked by git:"
  echo "$tracked"
  echo "(run: git rm -r --cached 'build*/' and keep build*/ in .gitignore)"
  exit 1
fi

if ! grep -q '^build\*/' .gitignore 2>/dev/null; then
  echo "repo_hygiene: FAIL — .gitignore no longer ignores build*/"
  exit 1
fi

# Bench reports are tracked only as the canonical baselines at the repo
# root (tools/check_bench_regression.sh); stray reports from local runs
# must stay untracked.
stray=$(git ls-files 'BENCH_*.json' '*/BENCH_*.json' |
  grep -v -e '^BENCH_fig7\.json$' -e '^BENCH_fig8\.json$' \
    -e '^BENCH_overlap\.json$' -e '^BENCH_parallel_exec\.json$' |
  head -20)
if [ -n "$stray" ]; then
  echo "repo_hygiene: FAIL — non-baseline bench reports are tracked:"
  echo "$stray"
  echo "(only the baselines /BENCH_{fig7,fig8,overlap,parallel_exec}.json" \
    "belong in git)"
  exit 1
fi

echo "repo_hygiene: OK — no build trees or stray reports tracked"
exit 0
