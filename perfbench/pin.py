"""Pin the reference results that checks.py compares every run against.

Run once from the repository root at the commit whose outputs are correct:

    python3 perfbench/pin.py --seeds 1-10

For every workload and seed it runs the set-up plan and the full plan once,
checks the full result against the independent oracle, and writes both to
`perfbench/reference/<workload>.json`.  Existing seeds are kept.
"""

import argparse
import json
import sys

import checks
from workloads import WORKLOADS, load_program, run_once, setup_workload


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default all")
    args = parser.parse_args(argv)
    prog = load_program()
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        w = WORKLOADS[name]
        refs = checks.load_reference(w)
        for seed in parse_seeds(args.seeds):
            _, setup = run_once(prog, setup_workload(w), seed)
            _, full = run_once(prog, w, seed)
            errs = (checks.invariants(w, setup) + checks.invariants(w, full)
                    + checks.oracle(prog, w, seed, full))
            if errs:
                print(f"{name} seed {seed}: not pinned:", *errs[:10], sep="\n  ")
                return 1
            refs[str(seed)] = {"setup": setup, "full": full}
            print(f"{name} seed {seed}: pinned")
        with open(checks.reference_path(w), "w") as fh:
            json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
