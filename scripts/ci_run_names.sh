#!/bin/sh
# ci_run_names.sh — check that every test a CI `go test` line names
# still exists. `go test -run` with a name that matches nothing passes
# with "no tests to run", so a renamed or deleted test would leave its
# CI line running nothing.
#
# For each `go test` line of the workflow that carries -run or -fuzz,
# every `|` alternative of the pattern must match at least one test,
# benchmark, fuzz target or example that `go test -list` prints for the
# line's packages (the `^$` that silences tests beside -fuzz is
# skipped). Exits 1 and lists each alternative that matches nothing.
#
# Usage: scripts/ci_run_names.sh [workflow]
#        default .github/workflows/ci.yml
set -eu

cd "$(dirname "$0")/.."

ci=${1:-.github/workflows/ci.yml}

# One "packages<TAB>pattern" line per -run or -fuzz flag of a go test
# command; the pattern's quotes are stripped.
pairs=$(awk '
/go test/ && /-(run|fuzz)[= ]/ {
	pkgs = ""
	for (i = 1; i <= NF; i++)
		if ($i ~ /^\.\//) pkgs = pkgs " " $i
	line = $0
	while (match(line, /-(run|fuzz)[= ]('\''[^'\'']*'\''|"[^"]*"|[^ ]+)/)) {
		flag = substr(line, RSTART, RLENGTH)
		line = substr(line, RSTART + RLENGTH)
		sub(/^-(run|fuzz)[= ]/, "", flag)
		gsub(/["'\'']/, "", flag)
		printf "%s\t%s\n", pkgs, flag
	}
}' "$ci")

listdir=$(mktemp -d)
trap 'rm -rf "$listdir"' EXIT

stale=0
checked=0
tab=$(printf '\t')
while IFS="$tab" read -r pkgs pattern; do
	[ -n "$pattern" ] || continue
	key=$(printf '%s' "$pkgs" | tr -c 'A-Za-z0-9' '_')
	list="$listdir/$key"
	if [ ! -f "$list" ]; then
		# shellcheck disable=SC2086 # $pkgs is a deliberate word list
		if ! go test -list '.*' $pkgs >"$list" 2>&1; then
			echo "ci_run_names.sh: go test -list$pkgs failed:" >&2
			cat "$list" >&2
			exit 1
		fi
	fi
	oldifs=$IFS
	IFS='|'
	for alt in $pattern; do
		IFS=$oldifs
		[ "$alt" = '^$' ] && continue
		checked=$((checked + 1))
		if ! grep -E '^(Test|Benchmark|Fuzz|Example)' "$list" | grep -Eq -- "$alt"; then
			echo "ci_run_names.sh: $ci: '$alt' matches no test in$pkgs" >&2
			stale=$((stale + 1))
		fi
	done
	IFS=$oldifs
done <<EOF
$pairs
EOF

if [ "$stale" -gt 0 ]; then
	echo "ci_run_names.sh: $stale of $checked names match no test" >&2
	exit 1
fi
echo "ci_run_names.sh: all $checked names in $ci match a test"
