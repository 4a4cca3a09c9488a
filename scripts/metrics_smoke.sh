#!/usr/bin/env bash
# metrics_smoke.sh — boot a real amigo-server, scrape /admin/metrics,
# and assert the exposition is non-empty, parseable Prometheus text that
# covers the control-server metric family; then drain a scheduled queue
# with a real amigo-me and assert its results arrived over the two v3
# routes an ME speaks. Run via `make metrics-smoke`.
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

URL="http://127.0.0.1:$PORT"

# An ME nothing is scheduled for: its lease is 404, which amigo-me -once
# reads as "nothing scheduled yet" — it exits 0 having executed nothing,
# and a lease creates no ME.
PAK_OUT="$("$ME_BIN" -server "$URL" -country PAK -once)"
if printf '%s' "$PAK_OUT" | grep -q executed; then
    echo "metrics-smoke: amigo-me with nothing scheduled executed something: $PAK_OUT" >&2
    exit 1
fi

# Scheduling is what makes an ME known: queue 5 tasks for me-DEU with the
# curl the amigo-server docs give, then re-scrape.
SCHED="$(curl -sf -X POST "$URL/admin/schedule" \
    -d '{"me":"me-DEU","kind":"speedtest","config":"esim","count":5}')"
ids="$(printf '%s' "$SCHED" | tr ',' '\n' | grep -c '[0-9]')"
if [ "$ids" -ne 5 ]; then
    echo "metrics-smoke: the single-kind schedule assigned $ids IDs, want 5: $SCHED" >&2
    exit 1
fi
curl -sf "$URL/admin/metrics" -o "$OUT"

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

# The schedule above must be visible in the ME gauge — only me-DEU is
# known, not the me-PAK that only leased — proof the scrape reflects live
# server state.
if ! grep -q '^amigo_server_registered_mes 1$' "$OUT"; then
    echo "metrics-smoke: registered-ME gauge is not 1 after one schedule:" >&2
    grep '^amigo_server_registered_mes' "$OUT" >&2 || true
    exit 1
fi

LINES="$(grep -c . "$OUT")"

# The JSON schedule body is bounded at 64 KiB (wire.MaxJSONBody): a 1 MiB
# schedule is refused with 413 and creates no ME.
BIG="$TMPDIR_SMOKE/big-schedule.json"
{ printf '{"me":"'; head -c 1048576 /dev/zero | tr '\0' x; printf '","kind":"dns","config":"sim"}'; } >"$BIG"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/admin/schedule" --data-binary @"$BIG")"
if [ "$code" != 413 ]; then
    echo "metrics-smoke: a 1 MiB schedule answered $code, want 413" >&2
    exit 1
fi

# A batch travels only as a v3 frame, and a schedule must name a kind:
# both JSON bodies are refused, and queue nothing for amigo-me to run.
for body in '{"me":"me-DEU","tasks":[{"kind":"dns","config":"sim"}]}' '{"me":"me-DEU","count":2}'; do
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/admin/schedule" -d "$body")"
    if [ "$code" != 400 ]; then
        echo "metrics-smoke: /admin/schedule answered $code to $body, want 400" >&2
        exit 1
    fi
done

# The ME binary: one amigo-me drains me-DEU's 5 tasks.
"$ME_BIN" -server "$URL" -country DEU -once

RESULTS="$(curl -sf "$URL/admin/results?cursor=0")"
got="$(printf '%s' "$RESULTS" | grep -o '"task_id":' | wc -l)"
if [ "$got" -ne 5 ]; then
    echo "metrics-smoke: amigo-me uploaded $got results, want 5: $RESULTS" >&2
    exit 1
fi

# Five tasks fit one lease of 32: the server marks it drained, so
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

# amigo-me heartbeats before its first lease and the vitals ride that
# lease — the one lease counted above is all it sent besides the upload.
# An ME speaks only those two routes: there is no status route (vitals
# ride the lease), no register route (scheduling creates the ME) and no
# requeue route (redelivery is a lease flag). None is served and no
# series exists for any of them.
for route in /v1/status /v1/register /v2/tasks/requeue; do
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL$route" -d '{"me":"me-DEU","country":"DEU"}')"
    if [ "$code" != 404 ]; then
        echo "metrics-smoke: POST $route answered $code, want it not served (404)" >&2
        exit 1
    fi
done
curl -sf "$URL/admin/metrics" -o "$OUT"
if grep -Eq '/v1/status|/v1/register|/v2/tasks/requeue' "$OUT"; then
    echo "metrics-smoke: a series for a route that is not served appears:" >&2
    grep -E '/v1/status|/v1/register|/v2/tasks/requeue' "$OUT" >&2
    exit 1
fi

echo "metrics-smoke: OK ($LINES exposition lines; amigo-me uploaded $got results over v3)"
