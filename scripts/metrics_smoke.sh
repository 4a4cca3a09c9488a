#!/usr/bin/env bash
# metrics_smoke.sh — boot a real amigo-server, scrape /admin/metrics,
# and assert the exposition is non-empty, parseable Prometheus text that
# covers the control-server metric family; then drain a scheduled queue
# with a real amigo-me and assert its results arrived over the v3 routes.
# Run via `make metrics-smoke`.
set -euo pipefail

TMPDIR_SMOKE="$(mktemp -d)"
BIN="$TMPDIR_SMOKE/amigo-server"
ME_BIN="$TMPDIR_SMOKE/amigo-me"
OUT="$TMPDIR_SMOKE/metrics.txt"
PORT="${METRICS_SMOKE_PORT:-18931}"

cleanup() {
    [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMPDIR_SMOKE"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/amigo-server
go build -o "$ME_BIN" ./cmd/amigo-me
"$BIN" -addr "127.0.0.1:$PORT" &
SRV_PID=$!

# Wait for the server to come up (curl retries until it connects).
i=0
until curl -sf "http://127.0.0.1:$PORT/admin/metrics" -o "$OUT" 2>/dev/null; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "metrics-smoke: server did not come up on port $PORT" >&2
        exit 1
    fi
    sleep 0.1
done

# Exercise a route so the per-route counters move, then re-scrape.
curl -sf -X POST "http://127.0.0.1:$PORT/v1/register" \
    -d '{"me":"smoke-me","country":"PAK"}' >/dev/null
curl -sf "http://127.0.0.1:$PORT/admin/metrics" -o "$OUT"

if ! [ -s "$OUT" ]; then
    echo "metrics-smoke: /admin/metrics returned an empty body" >&2
    exit 1
fi

# Every line must be a comment or `name{labels} value` with a numeric
# (or Inf/NaN) value — the shape every Prometheus scraper expects.
if ! awk '
    /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ { next }
    /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?([0-9].*|\+?Inf|NaN)$/ { series++; next }
    { print "metrics-smoke: malformed line: " $0 > "/dev/stderr"; bad = 1 }
    END { exit (bad || series == 0) }
' "$OUT"; then
    echo "metrics-smoke: exposition failed validation" >&2
    exit 1
fi

for family in amigo_server_requests_total amigo_server_registered_mes; do
    if ! grep -q "^$family" "$OUT"; then
        echo "metrics-smoke: missing $family family" >&2
        exit 1
    fi
done

# The register call above must be visible in the per-route counters and
# the ME gauge — proof the scrape reflects live server state.
if ! grep -q '^amigo_server_registered_mes 1$' "$OUT"; then
    echo "metrics-smoke: registered-ME gauge did not move" >&2
    exit 1
fi

LINES="$(grep -c . "$OUT")"

# The ME binary: register me-DEU, queue 5 tasks with the curl the
# amigo-server docs give, and let one amigo-me drain them.
URL="http://127.0.0.1:$PORT"
curl -sf -X POST "$URL/v1/register" -d '{"me":"me-DEU","country":"DEU"}' >/dev/null
curl -sf -X POST "$URL/admin/schedule" \
    -d '{"me":"me-DEU","kind":"speedtest","config":"esim","count":5}' >/dev/null
"$ME_BIN" -server "$URL" -country DEU -once

RESULTS="$(curl -sf "$URL/admin/results?cursor=0")"
got="$(printf '%s' "$RESULTS" | grep -o '"task_id":' | wc -l)"
if [ "$got" -ne 5 ]; then
    echo "metrics-smoke: amigo-me uploaded $got results, want 5: $RESULTS" >&2
    exit 1
fi

# Five tasks fit one lease of 32: the short lease is the last one, so
# amigo-me drains them in exactly one lease and one upload — no
# confirming empty lease.
curl -sf "$URL/admin/metrics" -o "$OUT"
for route in /v3/tasks/lease /v3/results; do
    if ! grep -Eq "^amigo_server_requests_total\{class=\"2xx\",route=\"$route\"\} 1$" "$OUT"; then
        echo "metrics-smoke: amigo-me did not make exactly one 2xx POST $route:" >&2
        grep "route=\"$route\"" "$OUT" >&2 || true
        exit 1
    fi
done
if grep -q '/v1/tasks' "$OUT"; then
    echo "metrics-smoke: a /v1/tasks route is still served" >&2
    exit 1
fi

echo "metrics-smoke: OK ($LINES exposition lines; amigo-me uploaded $got results over v3)"
