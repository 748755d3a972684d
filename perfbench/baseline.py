"""Run the benchmark over sets of seeds and record its spread and medians.

    python3 perfbench/baseline.py --sets 1-10 11-20 --trace --out perfbench/baseline.json

Each run is a separate `run.py` process, one at a time, so that a workload's
peak memory is never inherited from another.  Every workload runs over the
first set of seeds, then every workload over the next set, so that the sets
are minutes apart.  For every end-to-end metric and set it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json.  A set is steady when every
spread, setup_s's included, is below a third of its bound; two sets agree when
no metric's median in a later set is worse than in the first by more than its
bound.  `--trace` adds one traced run per workload at the first seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pin import parse_seeds
from workloads import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 180


def run(workload: str, seed: int, seconds: int, trace: int):
    """(environment, result, wall seconds of the process) of one benchmark run."""
    cmd = [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].split(":", 1)[1])
    return env, json.loads(lines[-1]), wall


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def worse_by(metric: dict, first: float, later: float) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", nargs="+", default=["1-10"],
                        help="one seed list per set, e.g. 1-10 11-20")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the results as JSON here")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    out = {"run_seconds": args.seconds, "sets": [], "workloads": {n: {} for n in names}}
    steady = agree = True
    walls = []
    for number, seeds_text in enumerate(args.sets):
        seeds = parse_seeds(seeds_text)
        out["sets"].append(seeds)
        for name in names:
            values = {metric: [] for metric in metrics}
            attempted = failed = 0
            for seed in seeds:
                out["environment"], result, wall = run(name, seed, args.seconds, 0)
                walls.append(wall)
                attempted += result["attempted"]
                failed += result["failed"]
                for metric in metrics:
                    values[metric].append(result["metrics"][metric]["value"])
            entry = {"seeds": seeds, "attempted": attempted, "failed": failed,
                     "metrics": {}}
            first = out["workloads"][name].get("sets", [entry])[0]
            for metric, vals in values.items():
                stats = entry["metrics"][metric] = spread(vals)
                bound = stats["bound"] = metrics[metric]["bound"]
                ok = stats["spread"] < bound / 3
                steady &= ok
                line = (f"set {number + 1} {name:18} {metric:12} "
                        f"median {stats['median']:.6g} q1 {stats['q1']:.6g} "
                        f"q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                        f"bound {bound} {'ok' if ok else 'WIDE'}")
                if number:
                    worse = stats["worse_than_set_1"] = worse_by(
                        metrics[metric], first["metrics"][metric]["median"], stats["median"])
                    agree &= worse <= bound
                    line += f"; worse than set 1 by {worse:+.4f}"
                    line += "" if worse <= bound else " BEYOND BOUND"
                print(line, flush=True)
            print(f"set {number + 1} {name:18} attempted {attempted} failed {failed}",
                  flush=True)
            out["workloads"][name].setdefault("sets", []).append(entry)
    if args.trace:
        for name in names:
            seed = out["sets"][0][0]
            _, traced, wall = run(name, seed, args.seconds, 1)
            walls.append(wall)
            out["workloads"][name]["per_layer_seed"] = seed
            out["workloads"][name]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    out["run_wall_s"] = {"median": statistics.median(walls), "max": max(walls),
                         "projected_total_s": runs * statistics.median(walls)}
    print(f"wall seconds per run: median {statistics.median(walls):.1f}, "
          f"max {max(walls):.1f}; {runs} runs take about "
          f"{runs * statistics.median(walls):.0f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady: a spread is at or above a third of its bound")
    if len(args.sets) > 1:
        print("sets agree" if agree else "sets DISAGREE: a median moved beyond its bound")
    return 0 if steady and agree else 1


if __name__ == "__main__":
    sys.exit(main())
