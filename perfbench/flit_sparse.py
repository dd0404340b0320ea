"""flit_sparse: the Figure-3 switch race on the default flit engine.

A round runs the Figure-3 offset grid (multicast and unicast injection
delays 0-5) for the base scheme, which deadlocks at some offsets, and
for scheme 3 (idle flush), which must deliver at all of them; then one
network carries a series of Figure-3 races separated by long idle gaps.
No ``engine=`` is passed, so the workload follows the default engine.
"""

from __future__ import annotations

from typing import Dict, List

from harness import Round, Verdict, seeded

MODULES = ("repro.core.switch_mcast", "repro.net.flitlevel")
#: Rounds whose least step times make ``wall_s`` (see harness).
WINDOW = 8

#: The Figure-3 grid: both injection delays in 0..5 (as the fig3_offsets
#: point kind runs it).
OFFSETS = range(6)
WORM_BYTES = 400
#: Races in the idle-gap series and the gap range between them, in ticks.
SPARSE_RACES = 8
GAP_TICKS = (20_000, 60_000)
#: Grid cells re-run on the dense reference engine besides every base
#: deadlock.
DENSE_SAMPLE = 3


def _outcome(o) -> tuple:
    return (o.status, o.ticks, o.flushes, o.multicast_delivered,
            o.unicast_delivered)


class Workload:
    name = "flit_sparse"

    def __init__(self, seed: int) -> None:
        from repro.core.switch_mcast import SwitchScheme

        rng = seeded(self.name, seed)
        self.schemes = (SwitchScheme.BASE, SwitchScheme.S3_IDLE_FLUSH)
        self.flit_seed = rng.randrange(1, 1_000_000)
        self.races = []
        start = 0
        for _ in range(SPARSE_RACES):
            start += rng.randrange(*GAP_TICKS)
            self.races.append(
                (start + rng.randrange(6), start + rng.randrange(6))
            )
        cells = [(s, m, u) for s in self.schemes for m in OFFSETS for u in OFFSETS]
        self.dense_sample = rng.sample(cells, DENSE_SAMPLE)

    def setup(self) -> None:
        """The Figure-3 fabric and its up/down spanning tree, which every
        round's idle-gap series runs on.  (``run_fig3_scenario`` builds
        its own for each grid cell, inside the timed steps.)"""
        from repro.net.topology import fig3_topology
        from repro.net.updown import UpDownRouting

        self.topology = fig3_topology()
        self.routing = UpDownRouting(self.topology)

    def teardown(self) -> None:
        pass

    def _sparse_series(self) -> Dict[str, object]:
        from repro.core.switch_mcast import (
            SwitchScheme,
            build_switch_multicast_network,
        )

        topology = self.topology
        names = {topology.node(h).name: h for h in topology.hosts}
        net = build_switch_multicast_network(
            topology, SwitchScheme.S3_IDLE_FLUSH, routing=self.routing,
            seed=self.flit_seed,
        )
        for mc_at, uc_at in self.races:
            net.send_multicast(
                names["srcM"], [names["host_b"], names["host_c"]],
                payload_bytes=WORM_BYTES, start_delay=mc_at,
            )
            net.send_unicast(
                names["host_y"], names["host_b"], payload_bytes=WORM_BYTES,
                start_delay=uc_at,
            )
        horizon = self.races[-1][0] + 100_000
        status = net.run(max_ticks=horizon, quiet_limit=3_000,
                         raise_on_deadlock=False)
        delivered = {
            src: sum(1 for r in net.records.values()
                     if r.src == names[src] and r.fully_delivered)
            for src in ("srcM", "host_y")
        }
        return {"status": status, "ticks": net.now, "delivered": delivered}

    def run_round(self, index: int) -> Round:
        from repro.core.switch_mcast import run_fig3_scenario

        rnd = Round()
        for scheme in self.schemes:
            for mc in OFFSETS:
                for uc in OFFSETS:
                    label = f"{scheme.value}/{mc}/{uc}"
                    with rnd.step(label):
                        outcome = run_fig3_scenario(
                            scheme, mc, uc, worm_bytes=WORM_BYTES,
                            seed=self.flit_seed,
                        )
                    rnd.outputs[label] = _outcome(outcome)
        with rnd.step("sparse"):
            rnd.outputs["sparse"] = self._sparse_series()
        return rnd

    def check(self, rounds: List[Round]) -> Verdict:
        from repro.core.switch_mcast import SwitchScheme, run_fig3_scenario

        verdict = Verdict(ops_per_round=len(rounds[0].steps))
        first = rounds[0].outputs
        dense = {}
        cells = list(self.dense_sample) + [
            (SwitchScheme.BASE, mc, uc)
            for mc in OFFSETS for uc in OFFSETS
            if first[f"base/{mc}/{uc}"][0] == "deadlock"
        ]
        for scheme, mc, uc in cells:
            dense[f"{scheme.value}/{mc}/{uc}"] = _outcome(run_fig3_scenario(
                scheme, mc, uc, worm_bytes=WORM_BYTES, seed=self.flit_seed,
                engine="dense",
            ))
        for rnd in rounds:
            for label, out in rnd.outputs.items():
                bad = []
                if label == "sparse":
                    if out["status"] != "delivered" or any(
                        n < SPARSE_RACES for n in out["delivered"].values()
                    ):
                        bad.append(f"sparse series not all delivered: {out}")
                else:
                    status, _ticks, _flushes, mc_ok, uc_ok = out
                    if status not in ("delivered", "deadlock"):
                        bad.append(f"{label}: {status}")
                    if status == "delivered" and not (mc_ok and uc_ok):
                        bad.append(f"{label}: delivered without both worms")
                    if label.startswith("s3_") and status != "delivered":
                        bad.append(f"{label}: scheme 3 did not deliver")
                    if label in dense and dense[label] != out:
                        bad.append(f"{label}: {out} but dense engine {dense[label]}")
                if out != first[label]:
                    bad.append(f"{label}: outcome differs between rounds")
                verdict.fail(bad)
        if not any(first[f"base/{m}/{u}"][0] == "deadlock"
                   for m in OFFSETS for u in OFFSETS):
            verdict.problems.append("base scheme deadlocked at no offset")
        return verdict

    def layer_metrics(self, rounds, tracer) -> Dict[str, float]:
        return {}
