#!/usr/bin/env bash
# lint_guard.sh: asserts a full-module roamvet run (all eight analyzers,
# including the CFG-based flow analyzers and the module-wide lock
# graph) finishes inside its wall-clock budget. A blowup here means an
# analyzer went super-linear on real code — the suite must stay cheap
# enough to run on every push.
#
# Usage: lint_guard.sh [path-to-roamvet]
# Budget: 30 s.
set -euo pipefail

BUDGET_S=30
BIN="${1:-bin/roamvet}"

if [ ! -x "$BIN" ]; then
  echo "lint_guard: $BIN is not built (run: make bin/roamvet)" >&2
  exit 2
fi

start=$(date +%s)
if ! "$BIN" >/dev/null; then
  echo "lint_guard: roamvet reported findings or failed; fix those first (make lint)" >&2
  exit 1
fi
end=$(date +%s)
elapsed=$((end - start))

echo "lint_guard: full-module roamvet run took ${elapsed}s (budget ${BUDGET_S}s)"
if [ "$elapsed" -gt "$BUDGET_S" ]; then
  echo "lint_guard: FAIL — an analyzer is over budget" >&2
  exit 1
fi
