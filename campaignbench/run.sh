#!/usr/bin/env bash
# Builds the campaign benchmark from the checkout it is run in and runs
# it with the given arguments. Run it from the repository root:
#
#	bash campaignbench/run.sh --workload hunt-short --seed 3 --seconds 20 --trace 0
#
# Everything the build and the benchmark write stays under .bench_build
# in the current directory: the Go build cache, the binary, the
# per-round work directories, reports and trace files. The module cache
# and the network are never used (the benchmark imports only this
# repository and the standard library).
#
# A traced run (--trace 1) first runs the benchmark's own tests, so a
# harness change that its traced replica no longer mirrors fails here.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOENV=off
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

traced=0
prev=
for arg in "$@"; do
	case "$prev$arg" in
	--trace1 | -trace1 | --trace=1 | -trace=1) traced=1 ;;
	esac
	case "$arg" in
	--trace | -trace) prev=$arg ;;
	*) prev= ;;
	esac
done

cd "$root/campaignbench"
go build -o "$build/campaignbench" .
if [ "$traced" = 1 ]; then
	go test -count=1 . >&2
fi
cd "$root"
exec "$build/campaignbench" "$@"
