#!/bin/sh
# pgo.sh — refresh or check cmd/prioplus-sim/default.pgo, the CPU profile
# the Go toolchain applies to every build of the simulator (-pgo=auto, the
# default, picks up a default.pgo next to package main; -pgo=off is the
# toolchain's switch for an A/B).
#
#   sh scripts/pgo.sh          collect a fresh profile and write it (~15 s)
#   sh scripts/pgo.sh -check   fail if the profile has gone stale
#
# Collection runs the simulator's sim-bound units — the ones the benchmark's
# star_micro, fattree_faults and flowsched workloads repeat — under the
# CLI's own -cpuprofile (whose window is the batch and nothing else) and
# merges the three profiles. The collecting binary is built -pgo=off, so
# the result depends on the tree and not on the profile it replaces.
# docs/PERFORMANCE.md, "The profile-guided build", says when to refresh:
# last, after every edit inside a hot function.
#
# -check guards against one of the two ways a committed profile rots
# silently: PGO matches samples to code by function name (and by line offset
# inside the function, which only the inlining diff in PERFORMANCE.md shows),
# so renaming or deleting a hot function orphans its samples without any
# diagnostic. The check lists the profile's hottest functions of this module
# and fails if one is missing from a build of the tree (inlining off, so that
# every function keeps its symbol). The fix for a failure is a refresh.
#
# Run from the repository root.
set -eu

profile=cmd/prioplus-sim/default.pgo
# How many of the module's hottest functions -check resolves. Together they
# carry about 90 % of the samples that land in this module.
hottest=40

# The id list of the benchmark's star_micro unit (benchmark/README.md).
star=fig3a,fig3b,fig3c,fig3d,fig8,fig9,fig10a,fig10b,fig10c,fig10d,tab2,appd,ablation,ext-ecn,ext-weighted

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

case "${1:-}" in
"")
    go build -pgo=off -o "$tmp/sim" ./cmd/prioplus-sim
    # Three units of about equal wall time, so none outvotes the others
    # (the star experiments bake their seeds: three seeds are three
    # identical passes).
    unit() {
        name=$1
        shift
        "$tmp/sim" all -parallel 1 -progress=false -cpuprofile "$tmp/$name.prof" "$@" > /dev/null
    }
    unit star -only "$star" -seeds 1,2,3
    unit faultsweep -only faultsweep -seeds 1,2,3,4
    unit fig16 -only fig16 -seeds 1
    go tool pprof -proto "$tmp/star.prof" "$tmp/faultsweep.prof" "$tmp/fig16.prof" > "$tmp/merged.pgo"
    mv "$tmp/merged.pgo" "$profile"
    echo "pgo: wrote $profile ($(wc -c < "$profile") bytes)"
    ;;
-check)
    go build -pgo=off -gcflags='prioplus/...=-l' -o "$tmp/sim" ./cmd/prioplus-sim
    go tool nm "$tmp/sim" | awk '{ print $3 }' > "$tmp/symbols"
    # pprof's text report: "flat flat% sum% cum cum% name" on every line
    # whose first field is a sample value.
    # Closures are skipped: their names depend on where they were inlined.
    go tool pprof -top -nodecount=100000 -nodefraction=0 "$profile" |
        awk '$1 ~ /^[0-9.]+m?s$/ && $6 ~ /^prioplus\// && $6 !~ /\.func[0-9]/ { print $6 }' |
        head -n "$hottest" > "$tmp/hot"
    if [ "$(wc -l < "$tmp/hot")" -lt "$hottest" ]; then
        echo "pgo: $profile names fewer than $hottest functions of this module" >&2
        exit 1
    fi
    missing=$(grep -vxFf "$tmp/symbols" "$tmp/hot" || true)
    if [ -n "$missing" ]; then
        echo "pgo: $profile is stale; these hot functions are not in the tree any more:" >&2
        echo "$missing" | sed 's/^/  /' >&2
        echo "pgo: refresh it with: sh scripts/pgo.sh" >&2
        exit 1
    fi
    echo "pgo: $profile ok (its $hottest hottest functions of this module all resolve)"
    ;;
*)
    echo "usage: sh scripts/pgo.sh [-check]" >&2
    exit 2
    ;;
esac
