#!/usr/bin/env bash
# The repo benchmark. Builds the package in release mode and runs it.
#
#   benchmark/run.sh                          every workload, untraced then traced
#   benchmark/run.sh --workload svc-mixed     one workload, untraced then traced
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                             one run; the last line of output is
#                                             the result object the driver reads
#   benchmark/run.sh --trace                  traced runs only
#   benchmark/run.sh --check-repeat           two sets of ten runs a workload,
#                                             compared against the bounds in
#                                             BENCHMARK.json
#
# Results go to benchmark/out/. Exits non-zero if a build, a run or an
# output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workload=all
seed=42
seconds=""
trace=both
check_repeat=no

while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace)
            case "${2:-}" in
                0) trace=0; shift 2 ;;
                1) trace=1; shift 2 ;;
                *) trace=1; shift ;;
            esac ;;
        --check-repeat) check_repeat=yes; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

# The window length lives in BENCHMARK.json, next to the bounds it was
# chosen for.
if [ -z "$seconds" ]; then
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$here/../BENCHMARK.json")"
fi

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/peel-benchmark"

if [ "$check_repeat" = yes ]; then
    mkdir -p "$here/out"
    exec python3 "$here/repeat.py" "$bin" "$here/out"
fi

if [ "$workload" = all ]; then
    workloads="peel-below peel-above iblt-tables svc-bulk svc-mixed"
else
    workloads="$workload"
fi
case "$trace" in
    both) modes="0 1" ;;
    *) modes="$trace" ;;
esac

status=0
for w in $workloads; do
    for t in $modes; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
            --out-dir "$here/out" || status=$?
    done
done
exit "$status"
