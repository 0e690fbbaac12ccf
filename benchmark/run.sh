#!/usr/bin/env bash
# Builds the benchmark and runs it: one workload (the form BENCHMARK.json's
# command takes) or, without --workload, all six in turn.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S | --scale F] [--trace [0|1]]
#
# Run from the root of a checkout. Each workload is one process, one thread,
# pinned to one CPU when taskset is there. The last line each workload
# prints on standard output is its JSON result; tables and build output go to
# standard error. Exits non-zero when the build fails, a check fails, or a
# result line does not parse.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

workload=""
args=()
while (($#)); do
    case "$1" in
    --workload)
        workload=${2:?--workload needs a value}
        shift 2
        ;;
    --trace)
        # `--trace` alone means `--trace 1`.
        if [[ ${2:-} == 0 || ${2:-} == 1 ]]; then
            args+=(--trace "$2")
            shift 2
        else
            args+=(--trace 1)
            shift
        fi
        ;;
    *)
        args+=("$1")
        shift
        ;;
    esac
done

# The driver names the target directory relative to the checkout root.
target=${CARGO_TARGET_DIR:-$here/target}
[[ $target == /* ]] || target=$root/$target
CARGO_TARGET_DIR=$target cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" >&2
bin=$target/release/vantage-benchmark

pin=()
if command -v taskset >/dev/null; then
    cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')
    pin=(taskset -c "$cpu")
fi

if [[ -n $workload ]]; then
    exec "${pin[@]}" "$bin" --workload "$workload" "${args[@]}"
fi

status=0
for w in cmp4_ucp llc_miss_z52 llc_hit_z52 llc_shared_pin bank8_pipelined tenant_churn; do
    line=$("${pin[@]}" "$bin" --workload "$w" "${args[@]}" | tail -n 1) || status=1
    printf '%s\n' "$line"
    python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(not (r["correct"] and r["failed"] == 0))' \
        "$line" || status=1
done
exit $status
