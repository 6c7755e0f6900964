#!/bin/sh
# lint.sh — build memlint once and run the suite over the module:
#
#   memlint ./...   module scope: the interprocedural analyzers
#                   (errdrop, ctxflow) see the whole tree and build
#                   their function summaries across packages
#
# Usage: scripts/lint.sh [packages...]     default ./...
#
# The loader shells out to `go list -deps -json` per invocation; the
# explicit warm-up below populates the go build metadata cache once so
# the run (and a CI re-run on the same runner) hits it.
set -eu

cd "$(dirname "$0")/.."

pkgs=${*:-./...}

bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
bin="$bindir/memlint"

go build -o "$bin" ./cmd/memlint

echo "lint.sh: warming go list metadata cache"
go list -deps -json $pkgs >/dev/null

echo "lint.sh: memlint (module scope)"
"$bin" $pkgs

echo "lint.sh: clean"
