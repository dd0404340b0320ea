"""The traced run's instruments: per-layer self time and call counts.

Self time comes from a cProfile hook and is attributed to layers by the
source file of each function.  Time inside a function that is not the
program's (the standard library, numpy, built-ins) goes to the layers of
its callers, in proportion to the time each call edge spent in it.

Counts come from wrappers put around public calls of each layer for the
traced round only and taken off afterwards.  Only the main thread is
profiled; the serving threads and worker processes report through the
serve ``metrics`` verb instead.
"""

from __future__ import annotations

import asyncio
import cProfile
import pstats
import threading
import time
from collections import Counter
from typing import Dict, Optional, Tuple

#: Source-path fragment -> layer; the first match wins.
LAYER_PATHS = (
    ("/repro/sim/", "sim"),
    ("/repro/net/updown.py", "net.updown"),
    ("/repro/net/wormnet.py", "net.wormnet"),
    ("/repro/net/worm.py", "net.wormnet"),
    ("/repro/net/flitlevel/", "net.flitlevel"),
    ("/repro/par/", "par"),
    ("/repro/core/", "core"),
    ("/repro/traffic/", "traffic"),
    ("/repro/myrinet/", "myrinet"),
    ("/repro/sweep/", "sweep"),
    ("/repro/serve/", "serve"),
    ("/repro/cluster/", "cluster"),
)
SELF_LAYERS = tuple(layer for _, layer in LAYER_PATHS) + ("other",)

#: Thread the cluster gateway's event loop runs on (see GatewayThread).
GATEWAY_THREAD = "repro-cluster-gateway"


def _layer_of(filename: str) -> Optional[str]:
    for fragment, layer in LAYER_PATHS:
        if fragment in filename:
            return layer
    return None


def self_time_by_layer(stats: pstats.Stats) -> Dict[str, float]:
    """Seconds of self time per layer (``other`` for the rest)."""
    table = stats.stats
    shares: Dict[Tuple, Dict[str, float]] = {}

    def share(func, visiting) -> Dict[str, float]:
        if func in shares:
            return shares[func]
        layer = _layer_of(func[0])
        if layer is not None:
            result = {layer: 1.0}
        elif func in visiting or func not in table:
            return {"other": 1.0}
        else:
            callers = table[func][4]
            weights = {c: edge[2] for c, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: edge[1] for c, edge in callers.items()}
                total = sum(weights.values())
            if total <= 0:
                result = {"other": 1.0}
            else:
                result = {}
                visiting.add(func)
                for caller, weight in weights.items():
                    for name, part in share(caller, visiting).items():
                        result[name] = result.get(name, 0.0) + part * weight / total
                visiting.discard(func)
        shares[func] = result
        return result

    seconds = dict.fromkeys(SELF_LAYERS, 0.0)
    for func, (_cc, _nc, tt, _ct, _callers) in table.items():
        for name, part in share(func, set()).items():
            seconds[name] += tt * part
    return seconds


class Tracer:
    """Wrappers plus profiler for one traced stretch of a run."""

    def __init__(self) -> None:
        from repro.sim.trace import SimTrace

        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.sim_trace = SimTrace()
        #: id(routing) -> (routing, pairs asked of it); holding the routing
        #: keeps its id from being reused within the traced round.
        self._pairs: Dict[int, Tuple[object, set]] = {}
        self._undo = []
        self._profile: Optional[cProfile.Profile] = None

    # -- wrappers ---------------------------------------------------------------
    def _patch(self, owner, name, make) -> None:
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))

    def install(self) -> None:
        """Wrap the public calls counted per layer."""
        import repro.sweep
        from repro.core.adapters import MulticastEngine
        from repro.net.flitlevel.network import FlitNetwork
        from repro.net.updown import UpDownRouting
        from repro.net.wormnet import WormholeNetwork
        from repro.sim.engine import Simulator

        counts, seconds, pairs = self.counts, self.seconds, self._pairs
        sim_trace = self.sim_trace

        def timed_build(original):
            def rebuild(routing):
                start = time.perf_counter()
                original(routing)
                seconds["net.updown.build_s"] += time.perf_counter() - start
            return rebuild

        def route(original, kind):
            def call(routing, src, dst, restrict_to_tree=False):
                counts["net.updown.route_calls"] += 1
                key = (kind, src, tuple(dst) if kind else dst, restrict_to_tree)
                pairs.setdefault(id(routing), (routing, set()))[1].add(key)
                return original(routing, src, dst, restrict_to_tree)
            return call

        def counted(name):
            def make(original):
                def call(*args, **kwargs):
                    counts[name] += 1
                    return original(*args, **kwargs)
                return call
            return make

        def sim_init(original):
            def init(sim, start_time=0.0, trace=None, obs=None, engine="heap"):
                if trace is None and getattr(obs, "kernel", None) is None:
                    trace = sim_trace
                original(sim, start_time, trace, obs, engine)
            return init

        def flit_run(original):
            def run(net, *args, **kwargs):
                before = net.now
                try:
                    return original(net, *args, **kwargs)
                finally:
                    counts["net.flitlevel.ticks_simulated"] += net.now - before
            return run

        def sweep(original):
            def run_sweep(*args, **kwargs):
                outcome = original(*args, **kwargs)
                counts["sweep.points"] += len(outcome.records)
                return outcome
            return run_sweep

        def gateway_connect(original):
            def open_connection(*args, **kwargs):
                if threading.current_thread().name == GATEWAY_THREAD:
                    counts["cluster.gateway_connections"] += 1
                return original(*args, **kwargs)
            return open_connection

        self._patch(UpDownRouting, "rebuild", timed_build)
        self._patch(UpDownRouting, "route_shared", lambda f: route(f, None))
        self._patch(UpDownRouting, "multi_route", lambda f: route(f, "tree"))
        self._patch(UpDownRouting, "multi_route_path", lambda f: route(f, "path"))
        self._patch(WormholeNetwork, "send", counted("net.wormnet.worms"))
        self._patch(MulticastEngine, "multicast", counted("core.messages"))
        self._patch(MulticastEngine, "record_delivery", counted("core.deliveries"))
        self._patch(Simulator, "__init__", sim_init)
        self._patch(FlitNetwork, "tick", counted("net.flitlevel.ticks_executed"))
        self._patch(FlitNetwork, "run", flit_run)
        self._patch(repro.sweep, "run_sweep", sweep)
        self._patch(asyncio, "open_connection", gateway_connect)

    def remove(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def take_setup(self) -> Dict[str, float]:
        """What the traced set-up measured (the spanning-tree builds, which
        ``setup_s`` pays), with every counter cleared for the round."""
        taken = {"net.updown.build_s": self.seconds["net.updown.build_s"]}
        self.counts.clear()
        self.seconds.clear()
        self._pairs.clear()
        self.sim_trace.reset()
        return taken

    # -- profiler ---------------------------------------------------------------
    def start_profile(self) -> None:
        self._profile = cProfile.Profile()
        self._profile.enable()

    def stop_profile(self) -> None:
        self._profile.disable()

    # -- results ----------------------------------------------------------------
    def metrics(self, untraced_wall_s: float) -> Dict[str, float]:
        """Per-layer numbers of the traced stretch."""
        out: Dict[str, float] = {}
        stats = pstats.Stats(self._profile)
        for layer, secs in self_time_by_layer(stats).items():
            out[f"{layer}.self_s"] = secs
        out.update(self.counts)
        out.update(self.seconds)
        out["net.updown.route_pairs"] = sum(
            len(asked) for _routing, asked in self._pairs.values()
        )
        out["sim.events"] = self.sim_trace.events
        out["sim.events_per_s"] = self.sim_trace.events / untraced_wall_s
        simulated = self.counts["net.flitlevel.ticks_simulated"]
        executed = self.counts["net.flitlevel.ticks_executed"]
        out["net.flitlevel.ticks_executed_ratio"] = (
            executed / simulated if simulated else 0.0
        )
        out["net.flitlevel.ticks_per_s"] = simulated / untraced_wall_s
        return out
