#!/usr/bin/env bash
# One complete set of runs: every workload untraced on ten seeds, then
# traced once on the first seed, each run a process of its own. Appends
# one record per run to OUT (see `compare`). Run from the repo root.
#
#   benchmark/run_set.sh OUT.jsonl [SECONDS] [FIRST_SEED]
set -euo pipefail

out=${1:?usage: benchmark/run_set.sh OUT.jsonl [SECONDS] [FIRST_SEED]}
seconds=${2:-15}
first_seed=${3:-1988}

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/condor-benchmark"

for workload in paper_month fleet_idle fleet_loaded fleet_pools live_turnaround live_churn; do
    for i in 0 1 2 3 4 5 6 7 8 9; do
        "$bin" --workload "$workload" --seed $((first_seed + i)) --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
    done
    "$bin" --workload "$workload" --seed "$first_seed" --seconds "$seconds" --trace 1 --out "$out" >/dev/null
done
