#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of a checkout) and runs it with the given flags.
# The Go build cache and the temporary directory (the durable gateway's
# DirFS root is made under it) live there too, so nothing outside the
# checkout is written. The benchmark is a module of its own
# (benchmark/go.mod) that takes the product from the enclosing checkout
# by a replace directive.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/go-cache" TMPDIR="$root/.bench_build/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$root/.bench_build/montsalvat-benchmark" .
exec "$root/.bench_build/montsalvat-benchmark" "$@"
