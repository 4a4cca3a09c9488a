#!/usr/bin/env bash
# loc.sh: non-test Go lines per package outside bench/ and testdata/, and
# their total — the number ROADMAP item 7 tracks. Every PR reports its
# per-package delta in CHANGES.md from two runs of this (parent, change).
#
# Usage: loc.sh [tree]   (default: the current directory)
set -euo pipefail
cd "${1:-.}"
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' ! -path './.bench_build/*' -print0 |
  xargs -0 wc -l | awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1 }
    END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'
