"""paper_sweep: the paper's own figures, each point through run_sweep(jobs=1).

A round is a Fig-10 slice (8x8 torus, the three adapter schemes at a
light and a saturated load), a Fig-11 slice (24-node shufflenet, tree vs
Hamiltonian at a light and a heavy load) and the Fig-12/13 testbed grid.
Every point is its own run_sweep call so that it is timed on its own.

Load points of one process share each figure's topology and up/down
routing (``shared_topology``), whose route memo would otherwise carry
every route searched by one round into the next and take route search
out of the measurement.  Each round therefore starts by calling the
routing's public ``rebuild()``, which recomputes the spanning tree and
drops the memo, as a fresh ``python -m repro.sweep`` process starts.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple

from harness import Round, Verdict, canonical, seeded

MODULES = ("repro.sweep", "repro.traffic.workloads", "repro.myrinet")
#: Rounds whose least step times make ``wall_s`` (see harness).
WINDOW = 7

#: Fig-10 loads: light (the network carries what is offered) and saturated.
FIG10_LOADS = (0.04, 0.08)
#: Fig-11 loads at a 10% multicast proportion.
FIG11_LOADS = (0.03, 0.07)
FIG11_FRACTIONS = (0.10,)
#: Testbed packet sizes where all-senders loss is already positive.
FIG12_SIZES = (4096, 6144, 8192)
#: Loads at which carried throughput is checked against the offered load.
#: Only the 8x8 torus is checked: its 64 hosts offer enough traffic in a
#: short window that the carried/offered ratio, corrected for warm-up,
#: spreads only 0.85-1.13 across group layouts (seeds 1-10); on the
#: 24-host shufflenet slice it spreads too widely for a fixed tolerance.
THROUGHPUT_LOADS = {"torus": (0.04,)}
THROUGHPUT_TOLERANCE = 0.30


def _point_label(params: Dict[str, Any]) -> str:
    if "packet_size" in params:
        sender = "all" if params["all_send"] else "one"
        return f"testbed/{params['packet_size']}/{sender}"
    return f"{params['topology']}/{params['scheme']}/{params['load']}"


def _min_path_cost(topology) -> float:
    """Least byte-times between two distinct hosts: one byte-time per
    link crossed plus its propagation delay (Dijkstra, from the links)."""
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for link in topology.links:
        cost = 1.0 + link.prop_delay
        adjacency.setdefault(link.a, []).append((link.b, cost))
        adjacency.setdefault(link.b, []).append((link.a, cost))
    hosts = set(topology.hosts)
    best = float("inf")
    for src in hosts:
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist[node] or d >= best:
                continue
            if node in hosts and node != src:
                best = d
                break
            for peer, cost in adjacency.get(node, ()):
                if d + cost < dist.get(peer, float("inf")):
                    dist[peer] = d + cost
                    heapq.heappush(heap, (d + cost, peer))
    return best


class Workload:
    name = "paper_sweep"

    def __init__(self, seed: int) -> None:
        from repro.sweep import fig10_spec, fig11_spec, fig12_spec
        from repro.sweep.spec import SweepSpec

        rng = seeded(self.name, seed)
        grids = [
            fig10_spec(loads=list(FIG10_LOADS), scale=0.0,
                       seed=rng.randrange(1, 1_000_000)),
            fig11_spec(loads=list(FIG11_LOADS), fractions=list(FIG11_FRACTIONS),
                       scale=0.0, seed=rng.randrange(1, 1_000_000)),
            fig12_spec(sizes=list(FIG12_SIZES), scale=0.2),
        ]
        # One single-point spec per grid point: same params and seed as the
        # grid run, so each record equals the grid's record for that point.
        self.specs = [
            SweepSpec(kind=p.kind, base=dict(p.params), base_seed=p.seed)
            for grid in grids
            for p in grid.points()
        ]
        self.labels = [_point_label(s.base) for s in self.specs]

    # -- life cycle -------------------------------------------------------------
    def setup(self) -> None:
        """Each figure's topology and up/down spanning tree, in the
        per-process memo that every load point of the sweep reuses.  The
        first set-up builds both; a repeat finds the topology memoised
        and recomputes the spanning tree."""
        from repro.traffic.workloads import shared_topology

        self.setups = []
        for spec in self.specs:
            if spec.kind != "load_point":
                continue
            setup = {
                key: spec.base[key]
                for key in ("topology", "rows", "cols", "p", "k", "prop_delay")
                if key in spec.base
            }
            if setup not in self.setups:
                self.setups.append(setup)
        self.topologies = {}
        for setup in self.setups:
            topology, routing = shared_topology(setup)
            routing.rebuild()
            self.topologies[setup["topology"]] = topology

    def teardown(self) -> None:
        pass

    # -- the fixed work ----------------------------------------------------------
    def run_round(self, index: int) -> Round:
        from repro.sweep import run_sweep
        from repro.traffic.workloads import shared_topology

        rnd = Round()
        with rnd.step("rebuild"):
            for setup in self.setups:
                shared_topology(setup)[1].rebuild()
        for label, spec in zip(self.labels, self.specs):
            with rnd.step(label):
                rnd.outputs[label] = run_sweep(spec, jobs=1).records[0]
        return rnd

    # -- output checks -------------------------------------------------------------
    def _offered_carried(self, params: Dict[str, Any]) -> float:
        """Bytes per byte-time the hosts offer, delivered-side: a multicast
        reaches every other member of its group once."""
        hosts = len(self.topologies[params["topology"]].hosts)
        size, count = params["group_size"], params["group_count"]
        in_group = 1.0 - (1.0 - size / hosts) ** count
        mc = params["multicast_fraction"] * in_group
        return hosts * params["load"] * ((1.0 - mc) + mc * (size - 1))

    def _check_load_point(self, label, params, record) -> List[str]:
        bad = []
        latency = record.get("mean_multicast_latency")
        bound = self.min_path[params["topology"]] + 0.5 * params["mean_length"]
        if not record.get("deliveries"):
            bad.append(f"{label}: no multicast delivered")
        elif latency is None or latency < bound:
            bad.append(
                f"{label}: mean multicast latency {latency} below the "
                f"zero-load bound {bound:.0f}"
            )
        if params["load"] in THROUGHPUT_LOADS.get(params["topology"], ()):
            offered = self._offered_carried(params)
            carried = record["throughput_bytes_per_bytetime"]
            if abs(carried / offered - 1.0) > THROUGHPUT_TOLERANCE:
                bad.append(
                    f"{label}: carried throughput {carried:.3f} is "
                    f"{carried / offered:.2f} of the offered {offered:.3f}"
                )
        return bad

    def check(self, rounds: List[Round]) -> Verdict:
        verdict = Verdict(ops_per_round=len(self.specs))
        self.min_path = {
            name: _min_path_cost(topology)
            for name, topology in self.topologies.items()
        }
        first = rounds[0].outputs
        for rnd in rounds:
            for label, spec in zip(self.labels, self.specs):
                record = rnd.outputs[label]
                if spec.kind == "load_point":
                    bad = self._check_load_point(label, spec.base, record)
                elif not spec.base["all_send"] and record["loss_rate_per_host"]:
                    bad = [f"{label}: loss {record['loss_rate_per_host']} "
                           "with a single sender"]
                else:
                    bad = []
                if canonical(record) != canonical(first[label]):
                    bad.append(f"{label}: record differs between rounds")
                verdict.fail(bad)
        for all_send in (False, True):
            row = [first[f"testbed/{size}/{'all' if all_send else 'one'}"]
                   for size in FIG12_SIZES]
            tput = [r["throughput_mbps_per_host"] for r in row]
            if any(b < a for a, b in zip(tput, tput[1:])):
                verdict.problems.append(
                    f"testbed throughput falls with packet size: {tput}")
            if all_send:
                loss = [r["loss_rate_per_host"] for r in row]
                if loss[0] <= 0 or any(b <= a for a, b in zip(loss, loss[1:])):
                    verdict.problems.append(
                        f"all-senders loss not positive and growing: {loss}")
        return verdict

    def layer_metrics(self, rounds, tracer) -> Dict[str, float]:
        return {}
