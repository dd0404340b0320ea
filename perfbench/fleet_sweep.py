"""fleet_sweep: two serve shards behind the HTTP gateway, one client thread.

Set-up starts two in-process ``ServerThread`` shards (one worker process
each) and a ``GatewayThread`` in front of them.  A round first executes
a few points no round has asked for (the execution path), then sends a
closed loop of repeated requests for those finished points three ways:
straight to the owning shard, through ``ClusterClient`` and through the
gateway over one keep-alive HTTP connection (the routing path; nothing
is computed).  A repeated request is a submit, which the scheduler
answers from its finished-job memory, then a result fetch.  The client
never holds more than two connections at once.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time
from typing import Any, Dict, List

from harness import Round, Verdict, canonical, seeded

MODULES = ("repro.serve", "repro.cluster")
#: Rounds whose least step times make ``wall_s`` (see harness).
WINDOW = 50

SHARDS = 2
#: Points executed per round; each round's points are new to the fleet.
UNIQUE = 2
#: Repeated requests per path per round.
HITS = 100
POINT = {
    "topology": "torus", "rows": 4, "cols": 4,
    "group_count": 4, "group_size": 4,
    "load": 0.05, "mean_length": 400.0,
    "warmup_deliveries": 20, "measure_deliveries": 50,
}
SCHEMES = ("tree-sf", "hamiltonian-sf")
KIND = "load_point"
PATHS = ("direct", "cluster", "gateway")


def _entries(snapshot: Dict[str, Any], name: str) -> List[Dict[str, Any]]:
    return [m for m in snapshot["metrics"] if m["name"] == name]


def _counter(snapshot: Dict[str, Any], name: str) -> float:
    """A counter summed over its tags."""
    return sum(m["value"] for m in _entries(snapshot, name))


def _tally_mean(snapshot: Dict[str, Any], name: str) -> float:
    """A tally's mean over all its tags (0 when nothing was recorded)."""
    entries = [m for m in _entries(snapshot, name) if m.get("count")]
    count = sum(m["count"] for m in entries)
    return sum(m["mean"] * m["count"] for m in entries) / count if count else 0.0


class Workload:
    name = "fleet_sweep"

    def __init__(self, seed: int) -> None:
        self.base_seed = seeded(self.name, seed).randrange(1, 1_000_000)
        self.servers: List[Any] = []
        self.gateway = None

    # -- the requests of round ``index`` --------------------------------------
    def points(self, index: int):
        """The round's new points: the same physics every round (same
        params and seeds, so the same work), made new to the fleet by a
        ``round`` parameter that the executor ignores but that is part of
        the content address."""
        return [
            (dict(POINT, scheme=SCHEMES[j % len(SCHEMES)], round=index),
             self.base_seed + j)
            for j in range(UNIQUE)
        ]

    # -- life cycle -------------------------------------------------------------
    def setup(self) -> None:
        from repro.cluster import ShardSpec
        from repro.cluster.gateway import GatewayThread
        from repro.serve import ServeConfig, ServerThread

        self.servers, self.specs = [], []
        for index in range(SHARDS):
            shard_id = f"s{index}"
            server = ServerThread(ServeConfig(workers=1, shard_id=shard_id))
            self.servers.append(server)
            host, port = server.start()
            self.specs.append(ShardSpec(shard_id, host, port))
        self.gateway = GatewayThread(self.specs)
        self.gateway_addr = self.gateway.start()

    def teardown(self) -> None:
        # Every client connection is closed by the time this runs: stopping
        # the gateway under an idle keep-alive connection prints a
        # CancelledError traceback from its connection handler.
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        for server in self.servers:
            server.stop()
        self.servers = []

    def _cluster(self):
        from repro.cluster import ClusterClient

        return ClusterClient(self.specs)

    # -- the fixed work ------------------------------------------------------------
    def run_round(self, index: int) -> Round:
        from repro.serve import ServeClient

        rnd = Round()
        points = self.points(index)
        cluster = self._cluster()
        try:
            with rnd.step("execute"):
                jobs = [cluster.submit(KIND, params, seed=seed)["job"]
                        for params, seed in points]
                records = [cluster.result(job)["record"] for job in jobs]
            rnd.outputs["execute"] = records
            owners = [cluster.owners(job)[0] for job in jobs]

            def via_cluster(params, seed, job):
                cluster.submit(KIND, params, seed=seed)
                return cluster.result(job)["record"]

            self._hits(rnd, "cluster", points, jobs, records, via_cluster)
        finally:
            cluster.close()

        conns = {spec.id: ServeClient(spec.host, spec.port) for spec in self.specs}
        try:
            shard_of = dict(zip(jobs, owners))

            def direct(params, seed, job):
                conn = conns[shard_of[job]]
                conn.submit(KIND, params, seed=seed)
                return conn.result(job)["record"]

            self._hits(rnd, "direct", points, jobs, records, direct)
        finally:
            for conn in conns.values():
                conn.close()

        web = http.client.HTTPConnection(*self.gateway_addr, timeout=60)
        try:
            def via_gateway(params, seed, job):
                body = json.dumps({"kind": KIND, "params": params, "seed": seed})
                web.request("POST", "/submit", body=body,
                            headers={"Content-Type": "application/json"})
                json.loads(web.getresponse().read())
                web.request("GET", f"/result/{job}?wait=1")
                return json.loads(web.getresponse().read())["record"]

            self._hits(rnd, "gateway", points, jobs, records, via_gateway)
        finally:
            web.close()
        return rnd

    def _hits(self, rnd, path, points, jobs, records, request) -> None:
        latencies, wrong = [], 0
        with rnd.step(f"hits_{path}"):
            for i in range(HITS):
                j = i % len(points)
                params, seed = points[j]
                sent = time.perf_counter()
                record = request(params, seed, jobs[j])
                latencies.append(time.perf_counter() - sent)
                wrong += record != records[j]
        rnd.outputs[f"hits_{path}"] = {"latencies": latencies, "wrong": wrong}

    # -- output checks -------------------------------------------------------------
    def check(self, rounds: List[Round]) -> Verdict:
        from repro.sweep import run_sweep
        from repro.sweep.spec import SweepSpec

        verdict = Verdict(ops_per_round=UNIQUE + len(PATHS) * HITS)
        for index, rnd in enumerate(rounds):
            for (params, seed), record in zip(self.points(index),
                                              rnd.outputs["execute"]):
                spec = SweepSpec(kind=KIND, base=params, base_seed=seed)
                expected = run_sweep(spec, jobs=1).records[0]
                verdict.fail(
                    [] if canonical(record) == canonical(expected)
                    else [f"round {index} seed {seed}: served record differs "
                          "from run_sweep"]
                )
            for path in PATHS:
                out = rnd.outputs[f"hits_{path}"]
                for _ in range(out["wrong"]):
                    verdict.fail([f"{path}: a repeated request returned "
                                  "another record"])
        executed = _counter(self._serve_snapshot(), "serve.executed")
        if executed != UNIQUE * len(rounds):
            verdict.problems.append(
                f"serve.executed {executed} for {UNIQUE * len(rounds)} unique "
                "points: a repeated request re-executed"
            )
        return verdict

    def _serve_snapshot(self) -> Dict[str, Any]:
        """The fleet-merged serve metrics snapshot."""
        cluster = self._cluster()
        try:
            return cluster.metrics()
        finally:
            cluster.close()

    def layer_metrics(self, rounds, tracer) -> Dict[str, float]:
        p50 = {
            path: 1000 * statistics.median(
                lat for r in rounds for lat in r.outputs[f"hits_{path}"]["latencies"]
            )
            for path in PATHS
        }
        snapshot = self._serve_snapshot()
        return {
            "serve.wait_s": _tally_mean(snapshot, "serve.wait_s"),
            "serve.exec_s": _tally_mean(snapshot, "serve.exec_s"),
            "serve.batch_size": _tally_mean(snapshot, "serve.batch_size"),
            "serve.executed": _counter(snapshot, "serve.executed"),
            "serve.cache_hits": _counter(snapshot, "serve.cache_hits"),
            "serve.coalesced": _counter(snapshot, "serve.coalesced"),
            "serve.direct_hit_p50_ms": p50["direct"],
            "cluster.client_hit_p50_ms": p50["cluster"],
            "cluster.gateway_hit_p50_ms": p50["gateway"],
            "cluster.client_overhead_ms": p50["cluster"] - p50["direct"],
            "cluster.gateway_overhead_ms": p50["gateway"] - p50["direct"],
            "cluster.gateway_shard_connects":
                tracer.counts["cluster.gateway_connections"] / HITS,
        }
