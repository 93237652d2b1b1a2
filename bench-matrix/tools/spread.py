#!/usr/bin/env python3
"""Run each workload ten times, each with another seed, and print for every
end-to-end metric the interquartile range as a share of the median, next to
the bound BENCHMARK.json gives it. Run from the repository root:

    python3 bench-matrix/tools/spread.py [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys
import time

spec = json.load(open("BENCHMARK.json"))
first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
workloads = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
worst = 0.0
for workload in workloads:
    values, walls = {}, []
    for seed in range(first_seed, first_seed + 10):
        start = time.time()
        out = subprocess.run(
            spec["command"]
            + ["--workload", workload, "--seed", str(seed)]
            + ["--seconds", str(spec["run_seconds"]), "--trace", "0"],
            check=True, capture_output=True, text=True,
        ).stdout
        walls.append(time.time() - start)
        result = json.loads(out.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, (workload, seed, result)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{workload}: wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        flag = ""
        if m["name"] != "setup_s":
            worst = max(worst, share / m["bound"])
            flag = "  > bound" if share > m["bound"] else ("  > bound/3" if share > m["bound"] / 3 else "")
        print(f"  {m['name']:<24} median {med:>16.4f}  iqr/median {share:7.4f}  bound {m['bound']}{flag}")
print(f"worst spread as a share of its bound: {worst:.2f}")
