#!/usr/bin/env bash
# Prove a host-only change bit-identical against a parent revision.
#
# Exports PARENT_REV with `git archive` into a temporary directory,
# builds sweep_main there and in this working tree, runs the audited,
# 4-way sharded quick sweep with every streamed trace kept
#   sweep_main --quick --audit --shards 4 --trace-out <dir>/run --trace-keep
# in both, and compares every .rtt file byte for byte. A trace carries
# every provenance record in simulated order with its cycle stamp, so
# identical files mean identical simulated behaviour.
#
# Usage: tools/check_bit_identity.sh PARENT_REV [WORK_DIR]
#   WORK_DIR (default: a fresh mktemp dir, removed on success) holds
#   both build trees and both trace sets.
# Exit status: 0 when every .rtt is identical and both sweeps pass,
# 1 on any difference or a missing/extra file, 2 on a usage or build
# error. JOBS (default 4) sets the build parallelism.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 PARENT_REV [WORK_DIR]" >&2
    exit 2
fi
parent_rev="$1"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${JOBS:-4}"

if [ $# -eq 2 ]; then
    work="$2"
    mkdir -p "$work" || exit 2
    keep_work=1
else
    work="$(mktemp -d)" || exit 2
    keep_work=0
fi

if ! git -C "$repo_root" rev-parse --verify --quiet \
        "$parent_rev^{commit}" >/dev/null; then
    echo "unknown revision '$parent_rev'" >&2
    exit 2
fi

rm -rf "$work/parent-src"
mkdir -p "$work/parent-src" || exit 2
git -C "$repo_root" archive "$parent_rev" | tar -x -C "$work/parent-src" ||
    exit 2

# build_and_sweep NAME SRC_DIR: build sweep_main from SRC_DIR into
# $work/NAME-build and stream the sweep's traces into $work/NAME-rtt.
build_and_sweep() {
    local name="$1" src="$2"
    local bdir="$work/$name-build" out="$work/$name-rtt"
    echo "== $name: building sweep_main from $src"
    if ! cmake -S "$src" -B "$bdir" -DCMAKE_BUILD_TYPE=Release \
            >"$work/$name-configure.log" 2>&1 ||
       ! cmake --build "$bdir" --target sweep_main -j "$jobs" \
            >"$work/$name-build.log" 2>&1; then
        echo "$name: build failed (see $work/$name-*.log)" >&2
        return 2
    fi
    rm -rf "$out"
    mkdir -p "$out"
    echo "== $name: audited sharded sweep"
    if ! (cd "$out" && "$bdir/sweep_main" --quick --audit --shards 4 \
            --trace-out "$out/run" --trace-keep) \
            >"$work/$name-sweep.log" 2>&1; then
        echo "$name: sweep failed (see $work/$name-sweep.log)" >&2
        return 1
    fi
}

build_and_sweep parent "$work/parent-src" || exit $?
build_and_sweep change "$repo_root" || exit $?

status=0
compared=0
for f in "$work"/parent-rtt/*.rtt; do
    [ -e "$f" ] || continue
    base="$(basename "$f")"
    if [ ! -f "$work/change-rtt/$base" ]; then
        echo "MISSING in change: $base"
        status=1
    elif ! cmp -s "$f" "$work/change-rtt/$base"; then
        echo "DIFFERS: $base"
        status=1
    fi
    compared=$((compared + 1))
done
for f in "$work"/change-rtt/*.rtt; do
    [ -e "$f" ] || continue
    base="$(basename "$f")"
    if [ ! -f "$work/parent-rtt/$base" ]; then
        echo "EXTRA in change: $base"
        status=1
    fi
done

if [ "$compared" -eq 0 ]; then
    echo "no .rtt files were produced" >&2
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "bit-identical: all $compared .rtt files match $parent_rev"
    [ "$keep_work" -eq 1 ] || rm -rf "$work"
else
    echo "NOT bit-identical against $parent_rev (work dir: $work)"
fi
exit "$status"
