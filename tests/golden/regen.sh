#!/bin/sh
# Driver-level goldens: the SWEEP rows of fig16_balancing,
# fig12_load_traces, fig13d_multiwafer, fig11_heatmaps and fig14a_esp,
# the SWEEP rows plus --stats files of serve_slo, fault_slo and
# fleet_slo, all from smoke-sized runs, and the per-cell layer sums of
# scale_smoke's 1024-device engine sweep (SCALE_smoke.txt).
#
#   tests/golden/regen.sh BUILD_DIR           rewrite the goldens
#   tests/golden/regen.sh --check BUILD_DIR   check them (the ctest)
#
# --check is the repository's determinism check. It runs every golden
# driver twice, at --jobs 1 and at --jobs 2, and fig16_balancing a third
# time with no --jobs under a one-CPU mask (taskset -c 0, when taskset
# exists; the default worker count follows the mask). Then:
#  - every run's SWEEP and STATS files must byte-match the goldens;
#  - all runs of one driver must print the same stdout (less the line
#    naming the --trace file);
#  - fault_slo writes --trace in both runs and the two traces must be
#    byte-equal; serve_slo, fleet_slo and fig16_balancing write it in
#    their --jobs 2 run, so their goldens also show that tracing
#    changes no result;
#  - every trace and STATS file must parse as JSON (python3 -m
#    json.tool, when python3 exists), and every trace must carry its
#    driver's events: decode and fault for fault_slo, decode for
#    serve_slo, dispatch for fleet_slo, the cell spans of
#    fig16_balancing and the engine's moe spans of scale_smoke;
#  - scale_smoke --jobs 2 --trace must pass its own checks, and its
#    "cell N:" lines must match SCALE_smoke.txt.
#
# Every run has its own fresh temp dir, so nothing in the checkout is
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

figs="fig16_balancing fig12_load_traces fig13d_multiwafer fig11_heatmaps
fig14a_esp"
slos="serve_slo:40 fault_slo:48 fleet_slo:48"
files="SWEEP_fig16_balancing.json SWEEP_fig12_load_traces.json
SWEEP_fig13d_multiwafer.json SWEEP_fig11_heatmaps.json
SWEEP_fig14a_esp.json
SWEEP_serve_slo.json STATS_serve_slo.json
SWEEP_fault_slo.json STATS_fault_slo.json
SWEEP_fleet_slo.json STATS_fleet_slo.json"

# drive RUN NAME COMMAND...: run COMMAND in the run's directory; its
# stdout, less the line naming the --trace file, goes to RUN/NAME.out.
drive() {
    dir=$out/$1
    name=$2
    shift 2
    mkdir -p "$dir"
    if ! (cd "$dir" && "$@" > "$name.raw"); then
        echo "driver failed: $*"
        exit 1
    fi
    grep -v '^wrote TRACE_' "$dir/$name.raw" > "$dir/$name.out" || true
}

# runAll: every golden driver at --jobs $jobs in run "jobs$jobs"; the
# drivers named in $traced also write --trace.
runAll() {
    for d in $figs $slos; do
        driver=${d%:*}
        set -- "$build/$driver"
        case $d in
          *:*) set -- "$@" "${d#*:}" --stats "STATS_$driver.json" ;;
        esac
        set -- "$@" --jobs "$jobs"
        case " $traced " in
          *" $driver "*) set -- "$@" --trace "TRACE_$driver.json" ;;
        esac
        drive "jobs$jobs" "$driver" "$@"
    done
}

jobs=2 traced="fig16_balancing serve_slo fault_slo fleet_slo"
runAll
drive scale scale_smoke "$build/scale_smoke" --jobs 2 \
    --trace TRACE_scale_smoke.json
grep '^cell ' "$out/scale/scale_smoke.out" > "$out/scale/SCALE_smoke.txt"

if [ "$check" -eq 0 ]; then
    for f in $files; do
        cp "$out/jobs2/$f" "$golden/$f"
    done
    cp "$out/scale/SCALE_smoke.txt" "$golden/SCALE_smoke.txt"
    exit 0
fi

jobs=1 traced="fault_slo"
runAll
if command -v taskset > /dev/null; then
    drive taskset fig16_balancing taskset -c 0 "$build/fig16_balancing"
fi

status=0
fail() {
    echo "$1"
    status=1
}

# same GOLDEN FILE: byte-compare one output with its golden.
same() {
    if ! cmp -s "$1" "$2"; then
        fail "golden mismatch: $2"
        if [ "${2%.json}" != "$2" ] && command -v python3 > /dev/null; then
            python3 "$golden/../../tools/stats_diff.py" "$1" "$2" || true
        fi
    fi
}

for run in jobs1 jobs2; do
    for f in $files; do
        same "$golden/$f" "$out/$run/$f"
    done
done
same "$golden/SCALE_smoke.txt" "$out/scale/SCALE_smoke.txt"
for d in $figs $slos; do
    driver=${d%:*}
    cmp -s "$out/jobs1/$driver.out" "$out/jobs2/$driver.out" ||
        fail "stdout differs between --jobs 1 and 2: $driver"
done
if [ -d "$out/taskset" ]; then
    same "$golden/SWEEP_fig16_balancing.json" \
        "$out/taskset/SWEEP_fig16_balancing.json"
    cmp -s "$out/jobs1/fig16_balancing.out" \
        "$out/taskset/fig16_balancing.out" ||
        fail "stdout differs under taskset -c 0: fig16_balancing"
fi

cmp -s "$out/jobs1/TRACE_fault_slo.json" "$out/jobs2/TRACE_fault_slo.json" ||
    fail "trace differs between --jobs 1 and 2: fault_slo"
# json FILE: FILE must parse (when python3 exists).
json() {
    if command -v python3 > /dev/null &&
        ! python3 -m json.tool "$1" > /dev/null; then
        fail "not JSON: $1"
    fi
}

for f in STATS_serve_slo.json STATS_fault_slo.json STATS_fleet_slo.json; do
    json "$out/jobs2/$f"
done
for t in "jobs2 fault_slo decode fault" "jobs1 fault_slo decode fault" \
         "jobs2 serve_slo decode" "jobs2 fleet_slo dispatch" \
         "jobs2 fig16_balancing cell" "scale scale_smoke moe"; do
    set -- $t
    trace=$out/$1/TRACE_$2.json
    shift 2
    json "$trace"
    for event in "$@"; do
        grep -q "\"$event\"" "$trace" ||
            fail "trace has no \"$event\" event: $trace"
    done
done
exit "$status"
