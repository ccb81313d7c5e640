#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fattree_fct --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, module cache, binary,
# spans) stays under $CARGO_TARGET_DIR, or .bench_build when unset.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -f $root/perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root; go.mod or perfbench/go.mod is missing" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out"

export GOCACHE=$out/go-build GOPATH=$out/go-path GOTOOLCHAIN=local GOFLAGS=
# The go command keeps its telemetry and env file under the user config
# directory; point that inside the build directory too.
export XDG_CONFIG_HOME=$out/config

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
