#!/usr/bin/env bash
# Builds the benchmark and the plsh-node server from the source tree it
# sits in, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload static-batch --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root: the Go build cache, the two binaries,
# temporary data directories, per-run result files and trace spans.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/plsh-node" ] || [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the root of a plsh source tree (go.mod, cmd/plsh-node and perfbench/ are required)" >&2
  exit 2
fi

work="$root/.bench_build"
mkdir -p "$work/bin" "$work/tmp" "$work/config"
export GOCACHE="$work/gocache"
export GOPATH="$work/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export XDG_CONFIG_HOME="$work/config"
export TMPDIR="$work/tmp"

go build -o "$work/bin/plsh-node" ./cmd/plsh-node
(cd perfbench && go build -o "$work/bin/perfbench" .)

exec "$work/bin/perfbench" -work "$work/perfbench" -node-bin "$work/bin/plsh-node" "$@"
