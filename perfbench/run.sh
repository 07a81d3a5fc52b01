#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload study-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout (Go build cache, binary, scratch cache directories).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a barrierpoint checkout" >&2
	exit 2
fi

# The official Go distribution installs to /usr/local/go; look there when
# the caller's PATH has no go.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
