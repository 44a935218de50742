#!/usr/bin/env bash
# Repeat runner for bench_ledger: runs every workload N times, each run a
# separate process with its own seed, alternating the workload order from
# round to round, then prints the median and quartiles of every metric
# per workload. The spread column is (q3 - q1) / median, the figure the
# bounds in BENCHMARK.json are set against.
#
#   bench_ledger/run_ledger.sh N [SECONDS] [TRACE 0|1] [FIRST_SEED]
#
# Run from the checkout root; defaults: 20 s, untraced, seed 20150323.
# Set LEDGER_OUT=<dir> to keep every run's output there.
set -euo pipefail

n=${1:?usage: run_ledger.sh N [seconds] [trace 0|1] [first seed]}
seconds=${2:-20}
trace=${3:-0}
seed0=${4:-20150323}
here=$(cd "$(dirname "$0")" && pwd)
if [[ -n "${LEDGER_OUT:-}" ]]; then
  out=$LEDGER_OUT
  mkdir -p "$out"
else
  mkdir -p "$here/../.bench_work"
  out=$(mktemp -d "$here/../.bench_work/ledger.XXXXXX")
  trap 'rm -rf "$out"' EXIT
fi

workloads=(paper-batch routed-serving live-ingest)
for ((r = 0; r < n; r++)); do
  order=("${workloads[@]}")
  if ((r % 2 == 1)); then
    order=(live-ingest routed-serving paper-batch)
  fi
  for w in "${order[@]}"; do
    start=$SECONDS
    python3 "$here/run.py" --workload "$w" --seed $((seed0 + r)) \
      --seconds "$seconds" --trace "$trace" > "$out/$w.$r.txt"
    echo "round $((r + 1))/$n: $w seed $((seed0 + r)): $((SECONDS - start)) s" >&2
  done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import glob
import os
import statistics
import sys

out, workloads = sys.argv[1], sys.argv[2:]
for workload in workloads:
    values, units = {}, {}
    for path in sorted(glob.glob(os.path.join(out, workload + ".*.txt"))):
        with open(path) as f:
            for line in f:
                fields = line.split()
                if len(fields) != 3 or line.startswith(("#", "{")):
                    continue
                values.setdefault(fields[0], []).append(float(fields[1]))
                units[fields[0]] = fields[2]
    print(f"== {workload}")
    print(f"{'metric':44} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} unit")
    for name, v in values.items():
        median = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:44} {median:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%} {units[name]}")
EOF
