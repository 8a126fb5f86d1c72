#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash horsebench/run.sh --workload sdn-boot --seed 42 --seconds 25 --trace 0
#   bash horsebench/run.sh --workload all --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary, traces) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
(cd "$here" && go build -o "$build/bin/horsebench" .) >&2

bin=("$build/bin/horsebench" --out "$build/horsebench")

# --workload all runs every workload in turn, each in its own process.
args=("$@")
all=-1
for i in "${!args[@]}"; do
	if ((i > 0)) && [[ ${args[i]} == all && ${args[i - 1]} == --workload ]]; then
		all=$i
	fi
done
if ((all < 0)); then
	exec "${bin[@]}" "$@"
fi
status=0
for w in sdn-boot dataplane-churn bgp-fulltable; do
	args[all]=$w
	echo "== $w"
	"${bin[@]}" "${args[@]}" || status=1
done
exit $status
