#!/usr/bin/env bash
# CI entry point: optimized Release build with assert() forced on
# (STELLAR_FORCE_ASSERTS strips NDEBUG) and every compiler warning an error
# (-Werror: the tree builds warning-free, so a new warning stays visible),
# full test suite, then the two scaling smoke gates:
#   - fig9_scaling --smoke   : TCAM frontier shape at 350 AND 800 member
#                              ports (the paper's L-IXP member scale);
#   - signal_storm --smoke   : batched control-plane apply >=5x faster than
#                              per-signal with byte-identical installed rule
#                              sets (differential assert).
# the L-IXP benchmark's self-check (perfbench/run.py --selfcheck): per
# workload, observation hooks off, on and traced give byte-identical digests,
# and a second seed passes every correctness check; and the dead-code audit
# (tools/dead_code_audit.sh): the src/ functions no shipped program reaches
# are exactly the ones tools/dead_code_audit.txt lists with a reason.
# Every step exits non-zero when its gate fails, so the job fails
# mechanically. This catches the optimized-build bug class the sanitizer
# matrix can't: -O2 codegen differences and assert-guarded invariants that a
# plain NDEBUG Release build would compile out.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-release}
JOBS=${JOBS:-$(nproc)}

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror \
  -DSTELLAR_FORCE_ASSERTS=ON
cmake --build "$BUILD_DIR" -j "$JOBS"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

"$BUILD_DIR"/bench/fig9_scaling --smoke
"$BUILD_DIR"/bench/signal_storm --smoke

python3 perfbench/run.py --selfcheck --seconds 2

tools/dead_code_audit.sh
