#!/usr/bin/env bash
# Full verification of the repository: configure, build, run the test
# suite, run every benchmark/experiment binary, and run the examples.
# Usage: scripts/check.sh [--asan|--tsan] [--labels <ctest-label-regex>]
# --labels restricts ctest to tests carrying a matching label (the suite
# labels every test "unit" or "stress"; see tests/CMakeLists.txt).
set -euo pipefail
cd "$(dirname "$0")/.."

LABELS=""
ARGS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --labels)
      LABELS="$2"
      shift 2
      ;;
    *)
      ARGS+=("$1")
      shift
      ;;
  esac
done
set -- "${ARGS[@]:-}"

BUILD=build
if [[ "${1:-}" == "--asan" ]]; then
  BUILD=build-asan
elif [[ "${1:-}" == "--tsan" ]]; then
  BUILD=build-tsan
fi

# Prefer Ninja when it is installed, but only for a fresh tree: CMake
# refuses to switch the generator of a tree that is already configured
# (e.g. build/ by the plain `cmake -B build -S .` of the tier-1 command).
GENERATOR=()
if [[ ! -f "$BUILD/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
  GENERATOR=(-G Ninja)
fi

if [[ "$BUILD" == build-asan ]]; then
  cmake -B "$BUILD" "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
elif [[ "$BUILD" == build-tsan ]]; then
  # Any race aborts the run: the concurrency stress tests are only
  # meaningful when a report is fatal.
  export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
  cmake -B "$BUILD" "${GENERATOR[@]}" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"
else
  cmake -B "$BUILD" "${GENERATOR[@]}"
fi

# One job per core: a bare -j lets make start an unbounded number.
cmake --build "$BUILD" -j "$(nproc)"
CTEST_ARGS=(--output-on-failure)
if [[ -n "$LABELS" ]]; then
  CTEST_ARGS+=(-L "$LABELS")
fi
ctest --test-dir "$BUILD" "${CTEST_ARGS[@]}"

echo "== examples =="
for e in "$BUILD"/examples/example_*; do
  echo "--- $e"
  "$e" > /dev/null
done

echo "== benchmarks =="
for b in "$BUILD"/bench/*; do
  [[ -x "$b" && -f "$b" ]] || continue
  echo "--- $b"
  "$b"
done

echo "ALL CHECKS PASSED"
