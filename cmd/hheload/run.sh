#!/bin/sh
# Builds hheload and hheserver from this checkout and runs one benchmark
# workload. Run it from the repository root:
#
#	sh cmd/hheload/run.sh --workload stream-accel --seed 1 --seconds 12 --trace 0
#
# Go's build cache, temporary files, the binaries, result files and
# trace files all stay under .bench_build/, so a run reads and writes
# only inside the checkout.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off
go build -o "$out/hheserver" ./cmd/hheserver
go -C cmd/hheload build -o "$out/hheload" .
exec "$out/hheload" -server "$out/hheserver" -outdir "$out" "$@"
