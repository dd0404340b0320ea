"""flit_saturated: saturated fabrics on the array flit engine, then par.

A round injects a seeded permutation (every host sends one unicast and
receives one, all at tick 0) into a 16x16 torus at one lane and into a
64-switch bidirectional shufflenet at one and at two lanes, all on
``engine="array"``: the vectorised tick and lane allocation do the work
and fast-forward never fires.  It then runs the registered par scenario
``saturated_torus_8`` at K=2 on the process backend, so two worker
processes exchange boundary flits and meet at every window barrier.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from harness import Round, Verdict, seeded

MODULES = ("repro.net.flitlevel", "repro.par")
#: Rounds whose least step times make ``wall_s`` (see harness).
WINDOW = 20

TORUS = (16, 16)
#: (p, k) of the shufflenet: 2**4 rows by 4 columns, 64 switches.
SHUFFLENET = (2, 4)
PAYLOAD = 64
#: (label, fabric, lanes) of the permutation steps.
FABRIC_STEPS = (("torus", "torus", 1), ("shufflenet_l1", "shufflenet", 1),
                ("shufflenet_l2", "shufflenet", 2))
PAR_SCENARIO = "saturated_torus_8"
PAR_K = 2
PAR_BACKEND = "process"
MAX_TICKS = 200_000
#: Array-lane phases reported by the traced run (obs ``PhaseTimer``).  The
#: lane times injection as a phase of its own only under scheme 3 (idle
#: flush); on these fabrics it is part of ``advance``.
PHASES = ("deliver", "advance", "contend")


class Workload:
    name = "flit_saturated"

    def __init__(self, seed: int) -> None:
        rng = seeded(self.name, seed)
        self.flit_seed = rng.randrange(1, 1_000_000)
        self.layout_seed = rng.randrange(1, 1_000_000)

    def setup(self) -> None:
        """Both fabrics, their up/down spanning trees and the permutation
        each one carries."""
        from repro.net.topology import bidirectional_shufflenet, torus
        from repro.net.updown import UpDownRouting

        rng = random.Random(self.layout_seed)
        self.fabrics = {}
        for name, topology in (("torus", torus(*TORUS)),
                               ("shufflenet", bidirectional_shufflenet(*SHUFFLENET))):
            # One cycle through the hosts in a shuffled order: a
            # permutation without fixed points, so every host sends once
            # and receives once whatever the seed.
            order = list(topology.hosts)
            rng.shuffle(order)
            pairs = [(src, order[(i + 1) % len(order)])
                     for i, src in enumerate(order)]
            self.fabrics[name] = (topology, UpDownRouting(topology), pairs)

    def teardown(self) -> None:
        pass

    # -- the fixed work ----------------------------------------------------------
    def _permutation(self, fabric: str, lanes: int, engine: str = "array",
                     obs=None):
        from repro.net.flitlevel import FlitNetwork

        topology, routing, pairs = self.fabrics[fabric]
        net = FlitNetwork(topology, routing=routing, engine=engine,
                          lanes=lanes, seed=self.flit_seed, obs=obs)
        for src, dst in pairs:
            net.send_unicast(src, dst, payload_bytes=PAYLOAD)
        status = net.run(max_ticks=MAX_TICKS, quiet_limit=3_000,
                         raise_on_deadlock=False)
        return net, status

    def run_round(self, index: int) -> Round:
        from repro.net.flitlevel.crosscheck import timeline_digest, worm_timeline
        from repro.par import run_partitioned

        rnd = Round()
        for label, fabric, lanes in FABRIC_STEPS:
            with rnd.step(label):
                net, status = self._permutation(fabric, lanes)
            delivered = sum(1 for r in net.records.values() if r.fully_delivered)
            rnd.outputs[label] = {
                "status": status, "ticks": net.now, "delivered": delivered,
                "digest": timeline_digest(worm_timeline(net, status)),
            }
        with rnd.step("par"):
            result = run_partitioned(PAR_SCENARIO, PAR_K, engine="array",
                                     backend=PAR_BACKEND)
        rnd.outputs["par"] = {
            "status": result.status,
            "digest": timeline_digest(result.timeline),
            "windows": result.windows_run,
            "flits_exchanged": result.flits_exchanged,
            "build_s": result.build_seconds,
            "wall_s": result.wall_seconds,
            "critical_path_s": result.critical_path_seconds,
        }
        return rnd

    # -- output checks -------------------------------------------------------------
    def check(self, rounds: List[Round]) -> Verdict:
        from repro.net.flitlevel.crosscheck import timeline_digest, worm_timeline
        from repro.par import run_sequential

        verdict = Verdict(ops_per_round=len(FABRIC_STEPS) + 1)
        net, status = run_sequential(PAR_SCENARIO, engine="array")
        par_reference = timeline_digest(worm_timeline(net, status))
        # The two-lane shufflenet again on the active engine, which the
        # array engine must match byte for byte.
        net, status = self._permutation("shufflenet", 2, engine="active")
        lane_reference = timeline_digest(worm_timeline(net, status))
        first = rounds[0].outputs
        for rnd in rounds:
            for label, fabric, _lanes in FABRIC_STEPS:
                out = rnd.outputs[label]
                bad = []
                worms = len(self.fabrics[fabric][2])
                if out["status"] != "delivered" or out["delivered"] != worms:
                    bad.append(f"{label}: {out['status']}, "
                               f"{out['delivered']} of {worms} worms delivered")
                if label == "shufflenet_l2" and out["digest"] != lane_reference:
                    bad.append(f"{label}: array timeline differs from active")
                if out != first[label]:
                    bad.append(f"{label}: outcome differs between rounds")
                verdict.fail(bad)
            par = rnd.outputs["par"]
            verdict.fail(
                [] if par["status"] == "delivered" and par["digest"] == par_reference
                else [f"par K={PAR_K}: {par['status']}, merged timeline "
                      "differs from the sequential run"]
            )
        return verdict

    def layer_metrics(self, rounds, tracer) -> Dict[str, Any]:
        """Par figures of the last untraced round, and the array lane's
        phase times from one more pass over the fabrics with an obs bundle
        attached (no profiler)."""
        from repro.obs import Observability

        obs = Observability(tracer=False, kernel=False)
        for _label, fabric, lanes in FABRIC_STEPS:
            self._permutation(fabric, lanes, obs=obs)
        seconds = obs.phases.seconds
        out: Dict[str, Any] = {
            f"net.flitlevel.phase.{phase}_s": seconds.get(phase, 0.0)
            for phase in PHASES
        }
        par = rounds[-1].outputs["par"]
        out.update({
            "par.wall_s": min(r.steps["par"] for r in rounds[-WINDOW:]),
            "par.windows": par["windows"],
            "par.flits_exchanged": par["flits_exchanged"],
            "par.build_s": par["build_s"],
            "par.critical_path_s": par["critical_path_s"],
            "par.coordination_s": par["wall_s"] - par["critical_path_s"],
        })
        return out
