#!/bin/sh
# loc.sh — print the tracked non-test Go line counts:
#
#   total         every .go file outside perfbench/ and testdata
#                 directories, _test.go files excluded
#   simulator     internal/{core,sim,cpu,cache,memctrl,channel,dram,
#                 addrmap,prefetch,policy,workload,trace,stats}
#   experiments   internal/experiments
#   memlint       internal/lint plus cmd/memlint
#
# Each count covers its directories recursively. Usage: scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

# count DIR... prints the physical lines of the non-test Go files under
# the given directories.
count() {
	find "$@" -type d \( -name testdata -o -path ./perfbench \) -prune -o \
		-type f -name '*.go' ! -name '*_test.go' -print0 |
		xargs -0 cat | wc -l | tr -d ' '
}

sim=""
for p in core sim cpu cache memctrl channel dram addrmap prefetch policy workload trace stats; do
	sim="$sim internal/$p"
done

printf 'total        %s\n' "$(count .)"
# shellcheck disable=SC2086 # $sim is a deliberate word list
printf 'simulator    %s\n' "$(count $sim)"
printf 'experiments  %s\n' "$(count internal/experiments)"
printf 'memlint      %s\n' "$(count internal/lint cmd/memlint)"
