#!/bin/sh
# bench.sh — run the repo's benchmarks, write a JSON baseline, and
# optionally gate against an earlier one.
#
# Usage:
#   scripts/bench.sh                          # all benchmarks, 1 iteration each
#   scripts/bench.sh -p 'Fig5|Throughput'     # subset by pattern
#   scripts/bench.sh -n 3x -o BENCH_baseline.json
#   scripts/bench.sh -o BENCH_pr.json -c BENCH_baseline.json
#
# No make, no external tooling: POSIX sh + go + awk. The output
# captures ns/op and any custom metrics (e.g. instrs/s, events/s) per
# benchmark, plus enough provenance (go version, git revision) to
# interpret a baseline later. Benchmarks come from the experiments
# package at the repo root, the scheduler microbenchmarks in
# internal/sim, the CFG-solve microbenchmark in internal/lint/dataflow
# and the cluster microbenchmarks in internal/cluster.
#
# With -c FILE the fresh run is compared against FILE: any benchmark
# present in both whose ns/op worsened by more than 10% fails the
# script (exit 1), which is the CI throughput-regression gate.
# Benchmarks present on only one side (new or retired) are skipped.
# -c also times a full-tree memlint run against a wall-clock budget
# (MEMLINT_BUDGET_SECONDS, default 60): the static-analysis suite has
# to stay interactive, and a pathological interprocedural pass would
# otherwise land silently.
set -eu

pattern='.'
benchtime='1x'
out='BENCH_baseline.json'
compare=''
while getopts 'p:n:o:c:' opt; do
  case $opt in
    p) pattern=$OPTARG ;;
    n) benchtime=$OPTARG ;;
    o) out=$OPTARG ;;
    c) compare=$OPTARG ;;
    *) echo "usage: $0 [-p pattern] [-n benchtime] [-o out.json] [-c baseline.json]" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

goversion=$(go version | awk '{print $3}')
rev=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
stamp=$(date -u +%Y-%m-%dT%H:%M:%SZ)

# The experiment benchmarks each simulate millions of events, so one
# iteration is a stable sample; the scheduler microbenchmarks are
# nanosecond-scale and need many iterations for the same stability.
sim_benchtime='200000x'
# The lint microbenchmark (CFG build plus dataflow solve) is
# microsecond-scale on a fixed in-memory package; a few thousand
# iterations give a stable sample.
lint_benchtime='2000x'
# The cluster microbenchmarks (epoch-barrier overhead, shard scaling
# at 1/2/4/8 systems on both engines) each simulate a full
# multi-system run, so like the experiment benchmarks one iteration is
# a stable sample.
cluster_benchtime='1x'
raw=$(go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -count 1 .
      go test -run '^$' -bench "$pattern" -benchtime "$sim_benchtime" -count 1 ./internal/sim
      go test -run '^$' -bench "$pattern" -benchtime "$lint_benchtime" -count 1 ./internal/lint/dataflow
      go test -run '^$' -bench "$pattern" -benchtime "$cluster_benchtime" -count 1 ./internal/cluster)

printf '%s\n' "$raw" | awk -v goversion="$goversion" -v rev="$rev" -v stamp="$stamp" '
BEGIN {
  printf "{\n \"go\": \"%s\",\n \"revision\": \"%s\",\n \"date\": \"%s\",\n \"benchmarks\": [", goversion, rev, stamp
  n = 0
}
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name)
  if (n++) printf ","
  printf "\n  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, $2, $3
  # Custom metrics follow as value/unit pairs.
  for (i = 5; i + 1 <= NF; i += 2)
    printf ", \"%s\": %s", $(i + 1), $i
  printf "}"
}
END { printf "\n ]\n}\n" }
' >"$out"

count=$(grep -c '"name"' "$out" || true)
echo "bench.sh: wrote $count benchmark(s) to $out"

if [ -n "$compare" ]; then
  [ -f "$compare" ] || { echo "bench.sh: baseline $compare not found" >&2; exit 2; }
  awk -v old="$compare" -v new="$out" '
  function parse(file, arr,   line, name, ns) {
    while ((getline line < file) > 0) {
      if (line !~ /"name"/) continue
      match(line, /"name": "[^"]*"/)
      name = substr(line, RSTART + 9, RLENGTH - 10)
      match(line, /"ns_per_op": [0-9.e+]+/)
      ns = substr(line, RSTART + 13, RLENGTH - 13)
      arr[name] = ns + 0
    }
    close(file)
  }
  BEGIN {
    parse(old, base)
    parse(new, cur)
    fails = 0
    shared = 0
    for (name in cur) {
      if (!(name in base)) continue
      shared++
      if (cur[name] > base[name] * 1.10) {
        printf "bench.sh: REGRESSION %s: %.0f -> %.0f ns/op (%+.1f%%)\n",
          name, base[name], cur[name], (cur[name] / base[name] - 1) * 100
        fails++
      }
    }
    if (shared == 0) {
      print "bench.sh: no benchmarks shared with baseline; nothing compared" > "/dev/stderr"
      exit 2
    }
    if (fails) {
      printf "bench.sh: %d of %d shared benchmark(s) regressed >10%% vs %s\n", fails, shared, old
      exit 1
    }
    printf "bench.sh: %d shared benchmark(s) within 10%% of %s\n", shared, old
  }'

  # memlint wall-clock budget. A full-tree run (load + type-check +
  # all analyzers) takes a few seconds today; the
  # budget catches a pass going superlinear without flaking on slow
  # runners.
  budget=${MEMLINT_BUDGET_SECONDS:-60}
  lint_start=$(date +%s)
  go run ./cmd/memlint ./... >/dev/null
  lint_elapsed=$(( $(date +%s) - lint_start ))
  echo "bench.sh: memlint full tree in ${lint_elapsed}s (budget ${budget}s)"
  if [ "$lint_elapsed" -gt "$budget" ]; then
    echo "bench.sh: memlint exceeded its ${budget}s wall-clock budget" >&2
    exit 1
  fi
fi
