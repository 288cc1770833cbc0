#!/usr/bin/env bash
# Builds the perfbench binary from the sources of this checkout and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare OLD_RESULTS_DIR NEW_RESULTS_DIR
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
