"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py --runs 10 [--seconds S] [--workloads ...]

Runs ``run.py`` on every workload, ``--runs`` times in each of two sets
with a new seed each time, alternating which set goes first.  For each
end-to-end metric it prints each set's median and spread (the distance
between the first and third quartiles, as a share of the median), the
spread of both sets together, and how far the second set's median moved
from the first.  It exits 1 if a spread exceeds the metric's bound in
BENCHMARK.json (``setup_s`` excepted, see ``SPREAD_EXEMPT``), if the two
medians of any metric differ by more than its bound in either direction,
or if the failed share of operations differs between runs; spreads above
a third of the bound are flagged as thin margins.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: First seed of each set; set ``k`` run ``i`` uses ``SET_SEEDS[k] + i``.
SET_SEEDS = (1, 1001)
#: Metrics whose spread is printed and flagged but does not fail the check.
#: Set-up time is a fraction of a second of interpreter start-up, imports
#: and builds; on the reference host the median of nine set-ups in a run
#: still spread 0.12-0.40 over five runs, also in runs whose ``wall_s``
#: held still.  The difference of its two medians is checked like any
#: other metric's.
SPREAD_EXEMPT = ("setup_s",)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads:
        sets = [[], []]
        for i in range(args.runs):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                result = run_once(workload, SET_SEEDS[k] + i, args.seconds)
                sets[k].append(result)
                print(f"{workload} set {k} seed {SET_SEEDS[k] + i}: "
                      + json.dumps(result["metrics"]), file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for s in sets for r in s}
        correct = all(r["correct"] for s in sets for r in s)
        if len(shares) != 1 or not correct:
            ok = False
        print(f"== {workload}: failed shares {sorted(shares)}, "
              f"all correct: {correct}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            cells = []
            for v in values + [values[0] + values[1]]:
                s = spread(v)
                flag = ""
                if s > bound and name in SPREAD_EXEMPT:
                    flag = " OVER, not gated"
                elif s > bound:
                    flag, ok = " OVER", False
                elif s > bound / 3:
                    flag = " thin"
                cells.append(f"{statistics.median(v):.4f} ({s:.3f}{flag})")
            drift = medians[1] / medians[0] - 1
            if abs(drift) > bound:
                ok = False
            print(f"  {name:12s} bound {bound:.2f}  median (spread): "
                  + " | ".join(cells) + f"  | second vs first {drift:+.3f}",
                  flush=True)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
