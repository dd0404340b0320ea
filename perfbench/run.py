"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 22 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there.  ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` prints its per-layer metrics, from a run that traces its
last set-up, measures untraced rounds for half the budget and then one
traced round, and times the host-speed probe before set-up and after
tear-down.
Diagnostics go to standard error; the last line of standard output is
the result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from typing import Dict, List

from harness import (
    ROOT,
    SETUP_REPEATS,
    SRC,
    import_seconds,
    peak_rss_mb,
    probe,
    fixed_work,
    run_rounds,
)

WORKLOADS = ("paper_sweep", "flit_sparse", "flit_saturated", "fleet_sweep")


def _metric_units() -> Dict[str, Dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _say(line: str) -> None:
    print(f"perfbench: {line}", file=sys.stderr, flush=True)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _say(f"no program source under {SRC}; run from a checkout's root")
        return 2
    units = _metric_units()
    sys.path.insert(0, str(SRC))

    # The host-speed probe runs only while no program thread or process is
    # alive: before set-up and after tear-down.
    probes = probe() if args.trace else []
    module = importlib.import_module(args.workload)
    import_s = import_seconds(module.MODULES)
    workload = module.Workload(args.seed)
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
    builds = []
    setup_layers: Dict[str, float] = {}
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        if last and tracer is not None:
            tracer.install()
        start = time.perf_counter()
        workload.setup()
        builds.append(time.perf_counter() - start)
        if last and tracer is not None:
            tracer.remove()
            setup_layers = tracer.take_setup()
        if not last:
            workload.teardown()
    try:
        budget = args.seconds / 2 if tracer is not None else args.seconds
        rounds = run_rounds(workload, budget, module.WINDOW)
        wall_s = fixed_work(rounds, module.WINDOW)
        layers: Dict[str, float] = {}
        if tracer is not None:
            tracer.install()
            tracer.start_profile()
            try:
                traced = workload.run_round(len(rounds))
            finally:
                tracer.stop_profile()
                tracer.remove()
            layers = tracer.metrics(wall_s)
            layers.update(setup_layers)
            layers["trace.overhead"] = sum(traced.steps.values()) / wall_s
            layers.update(workload.layer_metrics(rounds, tracer))
            rounds.append(traced)
        verdict = workload.check(rounds)
    finally:
        workload.teardown()

    for line in verdict.failures + verdict.problems:
        _say(line)
    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(builds),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        wanted = units["end_to_end"]
    else:
        wanted = units["per_layer"]
        # A layer the workload does not use reads 0.
        values = dict.fromkeys(wanted, 0.0)
        values.update(layers)
        values["host.probe_s"] = statistics.median(probes + probe())
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    result = {
        "correct": not verdict.problems,
        "attempted": verdict.ops_per_round * len(rounds),
        "failed": verdict.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in wanted.items()
        },
    }
    _say(f"{len(rounds)} rounds, wall_s {wall_s:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
