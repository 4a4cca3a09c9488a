#!/usr/bin/env bash
# smoke.sh — drive the real binaries end to end. Run via `make smoke`.
#
# Every control-plane check below boots amigo-server (one server, or
# WAL-backed shards) through one start/stop helper, or runs roam-fleet's
# self-hosted plane; tomo runs roam-tomo on its own:
#
#   tomo       roam-tomo prints one eSIM tunnel span for PAK and refuses an
#              unknown -target before printing anything
#   flags      roam-fleet and amigo-server refuse flag values that name
#              nothing they know or are out of range, and flags that only
#              qualify a flag not given
#   metrics    one server: the Prometheus exposition, amigo-me over the
#              two v3 routes, a JSON schedule refused
#   ahead      one server: amigo-me drains 40 tasks in one lease and two
#              uploads, the first upload carrying the second lease
#   block      one server, then three shards: one schedule body carries two
#              MEs' frames, and one whose second frame is garbage queues
#              nothing
#   shard_kill roam-fleet kills a shard mid-campaign under -crosscheck
#   external   roam-fleet -crosscheck against a sharded, WAL-backed
#              amigo-server, which then survives SIGTERM + a cold restart
#   reshard    roam-fleet live-reshards 1→4 with compaction, then
#              amigo-server cold-starts over that WAL set by its manifest
set -euo pipefail

TMP="$(mktemp -d)"
PORT=18931
URL="http://127.0.0.1:$PORT"
V3=application/vnd.amigo.v3
SRV_PID=

cleanup() {
    [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "smoke: $*" >&2
    exit 1
}

for bin in amigo-server amigo-me roam-fleet roam-tomo; do
    go build -o "$TMP/$bin" "./cmd/$bin"
done

# start_server LOG FLAGS...: boot amigo-server on $PORT, stdout to LOG,
# and wait until it answers /admin/metrics (its banner is printed by then).
start_server() {
    local log="$1" i=0
    shift
    "$TMP/amigo-server" -addr "127.0.0.1:$PORT" "$@" >"$log" &
    SRV_PID=$!
    until curl -sf "$URL/admin/metrics" -o /dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -lt 50 ] || fail "amigo-server $* did not come up on port $PORT"
        sleep 0.1
    done
}

# stop_server: SIGTERM the server; it must drain, close its WALs and exit 0.
stop_server() {
    local rc=0
    kill -TERM "$SRV_PID"
    wait "$SRV_PID" || rc=$?
    SRV_PID=
    [ "$rc" -eq 0 ] || fail "amigo-server exited $rc on SIGTERM"
}

# replayed LOG: the results count of a WAL-backed server's banner.
replayed() {
    sed -n 's/.*(\([0-9]*\) results replayed).*/\1/p' "$1"
}

check_tomo() {
    local spans rc=0
    "$TMP/roam-tomo" -country PAK -n 1 >"$TMP/tomo.txt" || fail "roam-tomo -country PAK exited non-zero"
    # The HR eSIM has a tunnel; the physical SIM breaks out at home.
    spans="$(grep -c 'GTP tunnel span:' "$TMP/tomo.txt" || true)"
    [ "$spans" -eq 1 ] || fail "roam-tomo -country PAK printed $spans tunnel spans, want 1"
    "$TMP/roam-tomo" -target Bogus >"$TMP/tomo-bogus.txt" 2>"$TMP/tomo-bogus.err" || rc=$?
    if [ "$rc" -ne 1 ] || [ -s "$TMP/tomo-bogus.txt" ] || ! grep -q '^roam-tomo: ' "$TMP/tomo-bogus.err"; then
        cat "$TMP/tomo-bogus.txt" "$TMP/tomo-bogus.err" >&2
        fail "roam-tomo -target Bogus exited $rc, want exit 1 with a message and no output"
    fi
}

check_flags() {
    # Each is refused with a message and exit 1 before any campaign runs
    # or any port is bound: no divide-by-zero panic, no silent default, no
    # empty Table 4, no flag that qualifies a flag not given.
    local cmd rc bin
    for cmd in "roam-fleet -countries ,," "roam-fleet -configs ,," "roam-fleet -configs bogus" \
        "roam-fleet -tools dns" "roam-fleet -kill-shard -3" "roam-fleet -mes -5" "roam-fleet -mes 0" \
        "roam-fleet -lease -3" "roam-fleet -lease 0" "roam-fleet -reps -2" "roam-fleet -shards 0" \
        "roam-fleet -workers -4" "roam-fleet -straggler -1s" "roam-fleet -reshard -1" \
        "roam-fleet -wal-dir $TMP/unused -wal-segment-bytes -1" "roam-fleet -compact-after -1" \
        "roam-fleet -reshard-after 5" "roam-fleet -wal-segment-bytes 100" "roam-fleet -chaos-seed 9" \
        "amigo-server -shards -2" "amigo-server -shards 0" "amigo-server -compact-after -1"; do
        bin=${cmd%% *}
        rc=0
        # shellcheck disable=SC2086 # the flags and their values, split
        timeout 10 "$TMP/$bin" ${cmd#* } >"$TMP/refused.txt" 2>&1 || rc=$?
        if [ "$rc" -ne 1 ] || grep -q panic "$TMP/refused.txt" || ! grep -q "^$bin: " "$TMP/refused.txt"; then
            cat "$TMP/refused.txt" >&2
            fail "$cmd exited $rc, want a clean exit 1 with a message"
        fi
    done
}

# schedule FIXTURE: POST one MsgSchedule frame from cmd/amigo-server/testdata
# (its name says the ME, kind, config and count) to /admin/schedule.
schedule() {
    curl -sf -X POST "$URL/admin/schedule" -H "Content-Type: $V3" \
        --data-binary @"cmd/amigo-server/testdata/$1" -o /dev/null ||
        fail "scheduling $1 failed"
}

# scheduled FILE: amigo_server_tasks_scheduled_total in a scrape.
scheduled() {
    sed -n 's/^amigo_server_tasks_scheduled_total \([0-9]*\)$/\1/p' "$1"
}

# forwarded FILE: the schedule requests a sharded plane's gateway sent its
# shards, summed over shards (its shard servers keep no metrics of their own).
forwarded() {
    sed -n 's/^gateway_requests_total{route="admin\/schedule",shard="[0-9]*"} \([0-9]*\)$/\1/p' "$1" |
        awk '{ s += $1 } END { print s + 0 }'
}

# uploaded: the results log's length, the X-Amigo-Cursor of a cursor=-1 page.
uploaded() {
    curl -sf -D - -o /dev/null "$URL/admin/results?cursor=-1" |
        tr -d '\r' | sed -n 's/^[Xx]-[Aa]migo-[Cc]ursor: //p'
}

check_metrics() {
    local out="$TMP/metrics.txt" pak lines code got route
    start_server "$TMP/single.txt"

    # An ME nothing is scheduled for: its lease is 404, which amigo-me -once
    # reads as "nothing scheduled yet" — it exits 0 having executed nothing,
    # and a lease creates no ME.
    pak="$("$TMP/amigo-me" -server "$URL" -country PAK -once)"
    if printf '%s' "$pak" | grep -q executed; then
        fail "amigo-me with nothing scheduled executed something: $pak"
    fi

    # Scheduling is what makes an ME known: queue 5 tasks for me-DEU as one
    # schedule frame, then scrape.
    schedule me-DEU_speedtest_esim_5.v3
    curl -sf "$URL/admin/metrics" -o "$out"
    [ -s "$out" ] || fail "/admin/metrics returned an empty body"

    # Every line must be a comment or `name{labels} value` with a numeric
    # (or Inf/NaN) value — the shape every Prometheus scraper expects.
    awk '
        /^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$/ { next }
        /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? -?([0-9].*|\+?Inf|NaN)$/ { series++; next }
        { print "smoke: malformed line: " $0 > "/dev/stderr"; bad = 1 }
        END { exit (bad || series == 0) }
    ' "$out" || fail "exposition failed validation"
    for family in amigo_server_requests_total amigo_server_registered_mes; do
        grep -q "^$family" "$out" || fail "missing $family family"
    done
    got="$(scheduled "$out")"
    [ "$got" = 5 ] || fail "the schedule frame queued $got tasks, want 5"
    # Only me-DEU is known, not the me-PAK that only leased: the scrape
    # reflects live server state.
    if ! grep -q '^amigo_server_registered_mes 1$' "$out"; then
        grep '^amigo_server_registered_mes' "$out" >&2 || true
        fail "registered-ME gauge is not 1 after one schedule"
    fi
    lines="$(grep -c . "$out")"

    # Every body the plane takes is a v3 frame: a JSON schedule is 415 and
    # queues nothing for amigo-me to run.
    code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/admin/schedule" \
        -H 'Content-Type: application/json' -d '{"me":"me-DEU","kind":"dns","config":"sim","count":2}')"
    [ "$code" = 415 ] || fail "a JSON schedule answered $code, want 415"
    curl -sf "$URL/admin/metrics" -o "$out"
    got="$(scheduled "$out")"
    [ "$got" = 5 ] || fail "after the JSON schedule $got tasks are queued, want 5"

    # The ME binary: one amigo-me drains me-DEU's 5 tasks.
    "$TMP/amigo-me" -server "$URL" -country DEU -once
    got="$(uploaded)"
    [ "$got" = 5 ] || fail "amigo-me uploaded $got results, want 5"

    # Five tasks fit one lease of 32: the server marks it drained, so
    # amigo-me drains them in exactly one lease and one upload — no
    # confirming empty lease. Its heartbeat's vitals ride that lease.
    curl -sf "$URL/admin/metrics" -o "$out"
    for route in /v3/tasks/lease /v3/results; do
        if ! grep -Eq "^amigo_server_requests_total\{class=\"2xx\",route=\"$route\"\} 1$" "$out"; then
            grep "route=\"$route\"" "$out" >&2 || true
            fail "amigo-me did not make exactly one 2xx POST $route"
        fi
    done
    if grep -q '/v1/tasks' "$out"; then
        fail "a /v1/tasks route is still served"
    fi

    # An ME speaks only those two routes: there is no status route (vitals
    # ride the lease), no register route (scheduling creates the ME) and no
    # requeue route (redelivery is a lease flag). None is served and no
    # series exists for any of them.
    for route in /v1/status /v1/register /v2/tasks/requeue; do
        code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL$route" -d '{"me":"me-DEU","country":"DEU"}')"
        [ "$code" = 404 ] || fail "POST $route answered $code, want it not served (404)"
    done
    curl -sf "$URL/admin/metrics" -o "$out"
    if grep -Eq '/v1/status|/v1/register|/v2/tasks/requeue' "$out"; then
        grep -E '/v1/status|/v1/register|/v2/tasks/requeue' "$out" >&2
        fail "a series for a route that is not served appears"
    fi
    stop_server
    echo "smoke: metrics: $lines exposition lines; amigo-me uploaded $got results over v3"
}

check_ahead() {
    local out="$TMP/ahead.txt" route want
    start_server "$TMP/ahead-server.txt"
    schedule me-DEU_dns_sim_40.v3
    "$TMP/amigo-me" -server "$URL" -country DEU -once >"$TMP/ahead-me.txt"

    # 40 tasks at 32 a lease are two batches: the first lease is not the
    # last, so the first upload carries the second lease, whose reply is
    # marked drained; the second upload carries none. One lease request and
    # two uploads, where an ME that leased each batch itself made two each.
    curl -sf "$URL/admin/metrics" -o "$out"
    for route in /v3/tasks/lease:1 /v3/results:2; do
        want="${route#*:}"
        route="${route%:*}"
        if ! grep -Eq "^amigo_server_requests_total\{class=\"2xx\",route=\"$route\"\} $want$" "$out"; then
            grep "route=\"$route\"" "$out" >&2 || true
            fail "amigo-me did not make exactly $want 2xx POST $route for 40 tasks"
        fi
    done
    want="$(uploaded)"
    [ "$want" = 40 ] || fail "amigo-me uploaded $want results, want 40"
    stop_server
}

check_block() {
    local out="$TMP/block.txt" fixtures=cmd/amigo-server/testdata flags code got me n
    cat "$fixtures/me-DEU_speedtest_esim_5.v3" "$fixtures/me-PAK_dns_sim_3.v3" >"$TMP/block.v3"
    { cat "$fixtures/me-PAK_dns_sim_3.v3"; printf 'R3 garbage'; } >"$TMP/garbage.v3"
    for flags in "" "-shards 3"; do
        # shellcheck disable=SC2086 # flags is a flag and its value, or nothing
        start_server "$TMP/block-server.txt" $flags
        curl -sf -X POST "$URL/admin/schedule" -H "Content-Type: $V3" \
            --data-binary @"$TMP/block.v3" -o /dev/null || fail "amigo-server $flags: scheduling two MEs in one body failed"
        # A body is taken whole or not at all: a garbage second frame
        # refuses the valid first one too.
        code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$URL/admin/schedule" \
            -H "Content-Type: $V3" --data-binary @"$TMP/garbage.v3")"
        [ "$code" = 400 ] || fail "amigo-server $flags: a garbage second frame answered $code, want 400"
        curl -sf "$URL/admin/metrics" -o "$out"
        if [ -z "$flags" ]; then
            got="$(scheduled "$out")"
            [ "$got" = 8 ] || fail "one server: $got tasks queued, want the block's 5 + 3 and none of the garbage body's"
        else
            # DEU and PAK live on two of the three shards: one request each.
            got="$(forwarded "$out")"
            [ "$got" = 2 ] || fail "three shards: the gateway sent its shards $got schedule requests, want 2 and none for the garbage body"
        fi
        for me in DEU:5 PAK:3; do
            n="$("$TMP/amigo-me" -server "$URL" -country "${me%:*}" -once |
                sed -n 's/^\([0-9]*\) tasks executed.*/\1/p' | awk '{ s += $1 } END { print s + 0 }')"
            [ "$n" = "${me#*:}" ] || fail "amigo-server $flags: me-${me%:*} executed $n tasks, want ${me#*:}"
        done
        stop_server
    done
}

check_shard_kill() {
    local out="$TMP/kill.txt"
    "$TMP/roam-fleet" -mes 12 -reps 1 \
        -shards 4 -wal-dir "$TMP/wal-kill" -kill-shard 0 -crosscheck >"$out"
    if ! grep -q '^shards: 4 shards (WAL epoch 0), 1 killed and recovered' "$out"; then
        grep '^shards:' "$out" >&2 || true
        fail "expected exactly one shard kill+recovery"
    fi
    grep -q '^crosscheck: fleet output matches' "$out" || fail "crosscheck line missing after shard kill"
}

check_external() {
    local n
    start_server "$TMP/plane1.txt" -shards 3 -wal-dir "$TMP/wal-plane" -pprof
    "$TMP/roam-fleet" -mes 12 -reps 1 -server "$URL" -crosscheck >"$TMP/drive.txt"
    grep -q '^crosscheck: fleet output matches' "$TMP/drive.txt" ||
        fail "crosscheck failed against the external sharded plane"
    # The sharded plane is instrumented and profiled like a single server.
    curl -sf "$URL/admin/metrics" -o "$TMP/plane-metrics.txt"
    grep -q '^walsink_records_total' "$TMP/plane-metrics.txt" ||
        fail "the sharded plane's /admin/metrics has no walsink_records_total"
    curl -sf "$URL/debug/pprof/cmdline" -o /dev/null || fail "-pprof is not served on the sharded plane"
    stop_server

    # Cold restart over the same WAL dir: the banner must report replayed
    # results, proving the drained uploads survived the process death.
    start_server "$TMP/plane2.txt" -shards 3 -wal-dir "$TMP/wal-plane"
    n="$(replayed "$TMP/plane2.txt")"
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        cat "$TMP/plane2.txt" >&2
        fail "restart replayed no results from the WALs"
    fi
    stop_server
    echo "smoke: external: $n results survived a SIGTERM and a cold restart"
}

check_reshard() {
    local out="$TMP/reshard.txt" records n
    "$TMP/roam-fleet" -mes 12 -reps 1 \
        -shards 1 -wal-dir "$TMP/wal-reshard" -wal-segment-bytes 2048 \
        -reshard 4 -reshard-after 3 -compact-after 2 -crosscheck >"$out"
    if ! grep -q '^shards: 4 shards (WAL epoch 1)' "$out"; then
        grep '^shards:' "$out" >&2 || true
        fail "expected the campaign to end on 4 shards at epoch 1"
    fi
    grep -q '^reshard: 1 reshards completed' "$out" || fail "reshard summary line missing"
    if ! grep -Eq '^compact: [1-9][0-9]* source segments retired' "$out"; then
        grep '^compact:' "$out" >&2 || true
        fail "no WAL segments were compacted — shrink -wal-segment-bytes"
    fi
    grep -q '^crosscheck: fleet output matches' "$out" || fail "crosscheck failed after reshard+compaction"
    records="$(sed -n 's/.*WAL: \([0-9]*\) results in.*/\1/p' "$out")"
    if [ -z "$records" ] || [ "$records" -eq 0 ]; then
        fail "fleet reported no WAL records"
    fi

    # -shards 2 on purpose: the manifest (epoch 1, 4 shards) must win, and
    # the replay must return every record from the partly compacted set.
    start_server "$TMP/plane3.txt" -shards 2 -wal-dir "$TMP/wal-reshard"
    if ! grep -q '^amigo-server: 4 shards (WAL epoch 1)' "$TMP/plane3.txt"; then
        cat "$TMP/plane3.txt" >&2
        fail "restart ignored the WAL manifest"
    fi
    n="$(replayed "$TMP/plane3.txt")"
    [ "$n" = "$records" ] || fail "cold replay returned $n results, campaign drained $records"
    stop_server
    echo "smoke: reshard: 1→4 crosschecked; $n results survived compaction + cold restart"
}

for check in tomo flags metrics ahead block shard_kill external reshard; do
    "check_$check"
    echo "smoke: $check OK"
done
