#!/usr/bin/env bash
# Builds the apss daemon and the benchmark from this checkout's sources,
# then runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Every build output, cache and
# scratch file goes under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/apss" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/apss and perfbench/)" >&2
	exit 2
fi

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	if [[ "${args[i]}" == "--trace" || "${args[i]}" == "-trace" ]]; then
		trace="${args[i + 1]:-0}"
	fi
done

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/apss" ./cmd/apss
# The traced replay is its own binary: it imports internal packages the
# end-to-end binary never links, so an internal rename can break only it.
if [[ "$trace" == "1" ]]; then
	bin=trace
else
	bin=e2e
fi
(cd perfbench && go build -o "$out/perfbench-$bin" "./cmd/$bin")
exec "$out/perfbench-$bin" -root "$root" -apss "$out/apss" "$@"
