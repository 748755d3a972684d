"""Seeded benchmark for fqspectra: one workload per run, correctness checked.

Run from the repository root:

    python3 perfbench/run.py --workload coverage-p31 --seed 1 --seconds 30 --trace 0

The user is a researcher who runs a seeded plan and waits for its report: a
closed loop in one process, one plan after the previous one finished.  With
`--trace 0` the run alternates, for `--seconds` seconds and at least
MIN_ROUNDS times, a batch of set-up runs (the plan with no work items) and one
full-plan run, and reports

    run_s        median wall seconds of the full plan, set-up included;
    setup_s      median wall seconds of the plan with no work items;
    peak_rss_mb  peak resident memory of this process, which runs only this
                 workload;
    ok_frac      runs that passed the correctness check / runs attempted,
                 counted apart for set-up and full-plan runs; the lower of
                 the two.

With `--trace 1` it alternates, for `--seconds` seconds, an untraced full-plan
run with one in which every layer is wrapped (see spans.py).  It reports the
per-layer metrics of the traced run of median length, and
`trace.overhead_frac`: the median over pairs of traced / untraced - 1.  That
run's spans are written to `.perfbench/` under the repository root.  A program
in which a wrapped function or one of the parameters the tracer reads is
missing is not traced: the run exits with code 1.

Every result is checked (see checks.py).  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`;
the lines before it give quartiles, sample counts and the environment.
"""

import os

# One BLAS/OpenMP thread, set before NumPy loads, so that a plan runs on one
# core and its timing does not depend on a second core being idle.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import ROOT, WORKLOADS, load_program, run_once, setup_workload  # noqa: E402

MIN_ROUNDS = 3
# Set-up runs are batched until a batch lasts this long; its mean is one sample.
SETUP_BATCH_S = 0.2
TRACE_DIR = ROOT / ".perfbench"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": BLAS_THREADS}


class Tally:
    """Runs attempted and failed, kept apart for set-up and full-plan runs.

    Set-up runs are short and many; counting them with the full-plan runs
    would hide failures of the full plan, so `ok_frac` is the worse of the
    two kinds.
    """

    def __init__(self, checker):
        self.checker = checker
        self.attempted = {"setup": 0, "full": 0}
        self.failed = {"setup": 0, "full": 0}
        self.messages = []

    def run(self, prog, workload, seed, kind):
        """Wall seconds of one run, or None if it raised or failed its check."""
        self.attempted[kind] += 1
        try:
            elapsed, result = run_once(prog, workload, seed)
        except Exception as exc:  # a raising run is counted, not fatal
            errs = [f"raised {type(exc).__name__}: {exc}"]
        else:
            errs = self.checker.check(kind, result)
        if errs:
            self.failed[kind] += 1
            self.messages += [f"{kind} run {self.attempted[kind]}: {e}" for e in errs[:5]]
            return None
        return elapsed

    def total(self) -> tuple:
        return sum(self.attempted.values()), sum(self.failed.values())

    def ok_frac(self) -> float:
        return min(1 - self.failed[k] / n for k, n in self.attempted.items() if n)


def measure(prog, workload, seed: int, seconds: float, tally: Tally):
    """Alternate set-up batches and full-plan runs for `seconds` seconds.

    A round starts only if a round of median length still fits.  Runs that
    fail are counted by the tally and leave no time behind.
    """
    setup = setup_workload(workload)
    run_times, setup_times, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() + statistics.median(rounds) < deadline):
        start = time.perf_counter()
        batch, spent = [], 0.0
        while spent < SETUP_BATCH_S:
            t0 = time.perf_counter()
            elapsed = tally.run(prog, setup, seed, "setup")
            spent += time.perf_counter() - t0
            if elapsed is not None:
                batch.append(elapsed)
        if batch:
            setup_times.append(statistics.fmean(batch))
        elapsed = tally.run(prog, workload, seed, "full")
        if elapsed is not None:
            run_times.append(elapsed)
        rounds.append(time.perf_counter() - start)
    return run_times, setup_times


def trace_pairs(prog, workload, seed: int, seconds: float, tally: Tally):
    """Alternate untraced and traced full-plan runs for `seconds` seconds.

    Returns (untraced s, traced s, closed Recorder) for every pair in which
    both runs passed.
    """
    pairs, rounds = [], []
    deadline = time.perf_counter() + seconds
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() + statistics.median(rounds) < deadline):
        start = time.perf_counter()
        plain_s = tally.run(prog, workload, seed, "full")
        rec = spans.Recorder()
        with spans.installed(prog, rec):
            traced_s = tally.run(prog, workload, seed, "full")
        rec.close()
        if plain_s is not None and traced_s is not None:
            pairs.append((plain_s, traced_s, rec))
        rounds.append(time.perf_counter() - start)
    return pairs


def describe(name: str, values: list, unit: str) -> str:
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return f"{name}: median {q2:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    prog = load_program()
    workload = WORKLOADS[args.workload]
    tally = Tally(checks.Checker(prog, workload, args.seed))
    print("environment: " + json.dumps(environment(), sort_keys=True))

    if args.trace:
        try:
            pairs = trace_pairs(prog, workload, args.seed, args.seconds, tally)
        except spans.TraceError as exc:
            print(f"error: cannot trace this program: {exc}", file=sys.stderr)
            return 1
        ok = bool(pairs)
        if ok:
            print(describe("untraced run_s", [p[0] for p in pairs], "s"))
            print(describe("traced run_s", [p[1] for p in pairs], "s"))
            overhead = statistics.median(t / u for u, t, _ in pairs) - 1
            _, traced_s, rec = sorted(pairs, key=lambda p: p[1])[len(pairs) // 2]
            path = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.npz"
            rec.save(path)
            print(f"median traced run {traced_s:.6g} s: {rec.count} spans -> {path}")
            metrics = rec.per_layer(overhead)
    else:
        run_times, setup_times = measure(prog, workload, args.seed, args.seconds, tally)
        ok = bool(run_times) and bool(setup_times)
        if ok:
            print(describe("run_s", run_times, "s"))
            print(describe("setup_s", setup_times, "s"))
            metrics = {
                "run_s": {"value": statistics.median(run_times), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
                "ok_frac": {"value": tally.ok_frac(), "unit": "frac"},
            }
    for message in tally.messages[:20]:
        print("FAILED " + message)
    attempted, failed = tally.total()
    print(f"attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")
    if not ok:
        print("error: no run passed the correctness check", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
