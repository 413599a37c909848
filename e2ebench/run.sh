#!/usr/bin/env bash
# Builds the e2ebench binary from the checkout's sources and runs it with
# the given arguments. Run from anywhere; the checkout root is this
# script's parent directory. The build cache, the binary and traced runs'
# span files all stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/tmp"
rev=none
if [ -e "$root/.git" ]; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)"
fi
(
	cd "$root/e2ebench"
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
		GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		go build -buildvcs=false -ldflags "-X main.revision=$rev" -o "$out/e2ebench" .
) >&2
cd "$root"
exec "$out/e2ebench" "$@"
