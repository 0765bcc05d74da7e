#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, e.g. from the checkout's root:
#
#   bash perfbench/run.sh --workload count-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, binary, span files) goes
# under .bench_build/ at the checkout's root.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# The run protocol records the commit when the checkout is a git work tree.
PERFBENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT

(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
