#!/usr/bin/env python3
"""Repeatability of the benchmark, by the rule its contract uses.

    repeat.py BIN OUT_DIR        (`run.sh --check-repeat` builds BIN and calls this)

Two sets of runs. A set is RUNS untraced runs of every workload in
BENCHMARK.json, each with another seed, over the window BENCHMARK.json
gives. For each end-to-end metric and workload the spread of a set is the
distance between the first and third quartile of its values
(`statistics.quantiles(values, n=4)`) as a share of their median. Every
spread but `setup_s`'s must stay within the metric's bound, and no
metric's second median may be worse than its first by more than the bound.
Exits 1 on a miss.
"""

import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
RUNS = 10
FIRST_SEED = 42


def run_once(binary, out_dir, seconds, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--out-dir", out_dir],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.stdout.write(out.stdout)
        sys.exit(f"{workload} seed {seed}: the run failed its output checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary, out_dir = sys.argv[1:]
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    # sets[i][workload][metric] = one value per run. The second set takes
    # other seeds than the first, as the driver's does.
    sets = []
    for first_seed in (FIRST_SEED, FIRST_SEED + RUNS):
        values = {}
        for w in workloads:
            runs = [run_once(binary, out_dir, seconds, w, first_seed + i) for i in range(RUNS)]
            values[w] = {name: [r[name] for r in runs] for name in runs[0]}
            print(f"  {w}: {RUNS} runs done", file=sys.stderr)
        sets.append(values)
    # Every value of every run, for whoever wants to look closer.
    pathlib.Path(out_dir, "repeat-values.json").write_text(json.dumps(sets, indent=1))

    missed = 0
    print(f"window {seconds} s, {RUNS} runs a set, seeds from {FIRST_SEED}")
    print(f"{'workload':<12} {'metric':<16} {'bound':>6} {'median1':>12} {'spread1':>8}"
          f" {'median2':>12} {'spread2':>8} {'worse by':>9}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = f"{w:<12} {name:<16} {bound:>6.2f}"
            verdict = []
            medians = []
            for s in sets:
                vals = s[w][name]
                med, spr = statistics.median(vals), spread(vals)
                medians.append(med)
                row += f" {med:>12.4f} {spr:>8.3f}"
                if name != "setup_s" and spr > bound:
                    verdict.append("SPREAD OVER BOUND")
                elif name != "setup_s" and spr > bound / 3:
                    verdict.append("spread over a third")
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            row += f" {worse:>+9.3f}"
            if worse > bound:
                verdict.append("SECOND MEDIAN WORSE THAN BOUND")
            missed += sum(v.isupper() for v in verdict)
            print(row + "  " + (", ".join(verdict) or "ok"))
    print("MISSED" if missed else "all within bounds")
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
