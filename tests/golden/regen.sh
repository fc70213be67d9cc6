#!/bin/sh
# Driver-level goldens: the SWEEP rows of fig16_balancing,
# fig12_load_traces, fig13d_multiwafer, fig11_heatmaps and fig14a_esp,
# and the SWEEP rows plus --stats files of serve_slo, fault_slo and
# fleet_slo, all from smoke-sized runs.
#
#   tests/golden/regen.sh BUILD_DIR           rewrite the goldens
#   tests/golden/regen.sh --check BUILD_DIR   run into a temp dir and
#                                             byte-compare (the ctest)
#
# Every driver runs in a fresh temp dir, so nothing in the checkout is
# read or left behind. A deliberate result change regenerates the goldens
# once and states why in CHANGES.md, with tools/stats_diff.py's summary
# of what moved.
set -eu

check=0
if [ "${1:-}" = "--check" ]; then
    check=1
    shift
fi
build=$(cd "${1:?usage: regen.sh [--check] BUILD_DIR}" && pwd)
golden=$(cd "$(dirname "$0")" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

cd "$out"
"$build/fig16_balancing" --jobs 2 > /dev/null
"$build/fig12_load_traces" --jobs 2 > /dev/null
"$build/fig13d_multiwafer" --jobs 2 > /dev/null
"$build/fig11_heatmaps" --jobs 2 > /dev/null
"$build/fig14a_esp" --jobs 2 > /dev/null
for run in "serve_slo 40" "fault_slo 48" "fleet_slo 48"; do
    set -- $run
    "$build/$1" "$2" --jobs 2 --stats "STATS_$1.json" > /dev/null
done

files="SWEEP_fig16_balancing.json SWEEP_fig12_load_traces.json
SWEEP_fig13d_multiwafer.json SWEEP_fig11_heatmaps.json
SWEEP_fig14a_esp.json
SWEEP_serve_slo.json STATS_serve_slo.json
SWEEP_fault_slo.json STATS_fault_slo.json
SWEEP_fleet_slo.json STATS_fleet_slo.json"

if [ "$check" -eq 0 ]; then
    for f in $files; do
        cp "$f" "$golden/$f"
    done
    exit 0
fi

status=0
for f in $files; do
    if ! cmp -s "$golden/$f" "$f"; then
        echo "golden mismatch: $f"
        if command -v python3 > /dev/null; then
            python3 "$golden/../../tools/stats_diff.py" \
                "$golden/$f" "$f" || true
        fi
        status=1
    fi
done
exit "$status"
