#!/usr/bin/env bash
# End-to-end smoke drill for cmd/memsimd, run by CI under the race
# detector: start the daemon, submit a tiny job, poll it to done,
# scrape /metrics, poke a malformed body, then SIGTERM and assert the
# clean-drain exit code and the job's record file. A second daemon on
# the same state directory must serve the finished job from that
# record without re-adopting it, serve a resubmission of the same spec
# from the service manifest without simulating it, and drain cleanly
# too.
set -euo pipefail

cd "$(dirname "$0")/.."

listen=127.0.0.1:18080
base="http://$listen"
state=$(mktemp -d)
bindir=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$state" "$bindir"
}
trap cleanup EXIT

go build -race -o "$bindir/memsimd" ./cmd/memsimd

start_daemon() {
    "$bindir/memsimd" -listen "$listen" -state "$state" -workers 1 &
    pid=$!
    local up=""
    for _ in $(seq 1 100); do
        if curl -fsS "$base/healthz" >/dev/null 2>&1; then up=1; break; fi
        sleep 0.2
    done
    [ -n "$up" ] || { echo "daemon never came up"; exit 1; }
}

# Graceful drain: SIGTERM must exit 0 (clean).
drain_daemon() {
    kill -TERM "$pid"
    local rc=0
    wait "$pid" || rc=$?
    pid=""
    [ "$rc" = 0 ] || { echo "drain exit code $rc, want 0"; exit 1; }
}

start_daemon

spec='{"benchmarks":["gcc"],"instrs":20000,"warmup":30000}'
submit_job() {
    curl -fsS -X POST "$base/jobs" -d "$spec" | sed -E 's/.*"id":"([^"]+)".*/\1/'
}

# wait_done polls job $1 until it is done; any other end fails the drill.
wait_done() {
    local s=""
    for _ in $(seq 1 300); do
        s=$(curl -fsS "$base/jobs/$1" | sed -E 's/.*"state":"([^"]+)".*/\1/')
        case "$s" in
            done) return 0 ;;
            failed|canceled) echo "job $1 ended $s"; curl -fsS "$base/jobs/$1"; exit 1 ;;
        esac
        sleep 0.2
    done
    echo "job $1 never finished (state $s)"
    exit 1
}

id=$(submit_job)
echo "submitted job $id"
wait_done "$id"

curl -fsS "$base/jobs/$id/result" >/dev/null
curl -fsS "$base/jobs/$id/artifact" | head -2

metrics=$(curl -fsS "$base/metrics")
for want in \
    'memsimd_jobs_admitted_total 1' \
    'memsimd_jobs_completed_total 1' \
    'memsimd_queue_depth 0' \
    'memsimd_job_duration_seconds_count 1'; do
    echo "$metrics" | grep -Fq "$want" || { echo "metrics missing: $want"; exit 1; }
done

# Hostile input is a typed 4xx, never a 500 or a dead daemon.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/jobs" -d '{"bogus":1}')
[ "$code" = 400 ] || { echo "malformed body answered $code, want 400"; exit 1; }
curl -fsS "$base/healthz" >/dev/null

drain_daemon
[ -s "$state/jobs/$id.json" ] || { echo "job record $id not flushed on drain"; exit 1; }

# Restart on the same state directory: the finished job is served from
# its record, with results, and nothing is re-adopted.
start_daemon
job=$(curl -fsS "$base/jobs/$id")
case "$job" in
    *'"state":"done"'*'"results":['*) ;;
    *) echo "after restart, job $id = $job"; exit 1 ;;
esac
curl -fsS "$base/metrics" | grep -Fxq 'memsimd_jobs_resumed_total 0' ||
    { echo "restart re-adopted a finished job"; exit 1; }

# The same spec again: the second daemon finds it in the service
# manifest the first one wrote and simulates nothing.
id2=$(submit_job)
echo "resubmitted the spec as job $id2"
wait_done "$id2"
job=$(curl -fsS "$base/jobs/$id2")
case "$job" in
    *'"specs_reused":1'*) ;;
    *) echo "resubmitted job $id2 was simulated again: $job"; exit 1 ;;
esac
curl -fsS "$base/metrics" | grep -Fxq 'memsimd_specs_reused_total 1' ||
    { echo "metrics do not count the reused spec"; exit 1; }
drain_daemon
echo "memsimd smoke OK"
