#!/usr/bin/env bash
# Line coverage of src/ under the ctest suite. Configures <build-dir> as a
# Debug build with --coverage (passed through CMAKE_CXX_FLAGS; there is no
# CMake option for it), builds, runs ctest, and prints for each src/ file
# the executable lines that ran and the ones that did not. A line counts
# as run if any template instantiation ran it. The counters are updated
# atomically: kernels run on several worker threads, and gcov derives
# some counts from others, so a lost update could show a line that ran
# as unrun.
#
# Usage: tools/coverage.sh <build-dir>
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:?usage: tools/coverage.sh <build-dir>}"
jobs="$(nproc)"

cmake -B "$build" -S "$root" -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -fprofile-update=atomic" >/dev/null
cmake --build "$build" -j "$jobs" >/dev/null
find "$build" -name '*.gcda' -delete
ctest --test-dir "$build" -j "$jobs" >"$build/coverage-ctest.log" 2>&1 ||
  echo "coverage: some tests failed (see $build/coverage-ctest.log)" >&2

printf '%-32s %8s %8s\n' file run unrun
find "$build/src" -name '*.gcda' | sort | while read -r gcda; do
  src="$(basename "$gcda" .gcda)"               # executor.cc
  dir="$(basename "$(dirname "$gcda")" .dir)"   # bridgecl_interp
  # Count only the listing of the file itself, not the headers it
  # includes. A template's instantiations are listed again after its
  # lines, each under a "-----" rule and its mangled name; those
  # sub-listings are skipped, as the main listing already sums them.
  gcov -t -o "$(dirname "$gcda")" "$gcda" 2>/dev/null |
    awk -v want="/src/${dir#bridgecl_}/$src" -v name="${dir#bridgecl_}/$src" '
      / 0:Source:/ { keep = index($0, want) > 0; next }
      !keep { next }
      /^-+$/ { rule = 1; next }
      rule { rule = 0; inst = /^[^ ].*:$/; if (inst) next }
      inst { next }
      /^ *(#####|=====):/ { unrun++; next }
      /^ *[0-9]+\*?:/ { run++ }
      END { printf "%-32s %8d %8d\n", name, run, unrun }'
done
