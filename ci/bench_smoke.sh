# Smoke run of the benchmark: each workload for 5 s must exit 0, and its
# report (the last line of its output, JSON) must read every task correct
# and none failed. Run it from the checkout root; it imports the library
# from src/, writes bench_<workload>.out there and, under perfbench/, only
# the ignored perfbench/out/:
#
#   bash -e ci/bench_smoke.sh
set -e

for workload in converge grid pipeline; do
  python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 5 > "bench_$workload.out"
  tail -n 1 "bench_$workload.out" | python3 -c '
import json, sys
report = json.loads(sys.stdin.read())
print(sys.argv[1], "correct:", report["correct"], "failed:", report["failed"])
sys.exit(0 if report["correct"] is True and report["failed"] == 0 else 1)
' "$workload"
done
