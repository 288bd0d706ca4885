#!/bin/sh
# Builds the benchmark and the deobserver binary from the checkout in
# the current directory, then runs one workload:
#
#   sh perfbench/run.sh --workload corpus|gauntlet|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write (Go build cache, temporary
# files, binaries, digest store, spans) stays under .bench_build/ in the
# checkout.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0
cd "$root/perfbench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/deobserver" github.com/invoke-deobfuscation/invokedeob/cmd/deobserver >&2
cd "$root"
exec "$out/bin/perfbench" --root "$root" --deobserver "$out/bin/deobserver" "$@"
