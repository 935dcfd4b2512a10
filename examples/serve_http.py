"""Serve over HTTP: the asyncio front end end-to-end, client included.

The in-process :class:`~repro.service.PlacementService` becomes a network
service through :class:`~repro.service.PlacementServer` — a stdlib-only
asyncio HTTP/1.1 layer with bounded admission and a worker pool; the
service runs one greedy step per selection key at a time, so concurrent
requests for one key share it.  The server serves an :class:`~repro.service.IndexFarm`; a
service registered with ``add_service`` answers on the plain ``/query``
and ``/update`` endpoints.  This example walks the serving lifecycle
without leaving one process:

1. build a small city index,
2. register its service in a farm and start the server on an ephemeral
   port (dedicated event-loop thread),
3. answer a batch of specs over real sockets — and show the placements
   are byte-identical to a direct in-process ``batch_query``,
4. apply a site-closure delta through ``POST /update`` and watch the
   index version bump and subsequent queries change,
5. read the Prometheus-style ``GET /metrics`` counters,
6. drain and shut down cleanly.

Run with::

    python examples/serve_http.py

In production the same server runs standalone::

    python -m repro.service serve --index city.ncx --port 8321 --max-inflight 64
"""

from __future__ import annotations

import http.client
import json

import numpy as np

from repro import PlacementService, QuerySpec, TOPSProblem
from repro.network import grid_network
from repro.service import IndexFarm, serve_in_background
from repro.trajectory import commuter_trajectories


def post(conn: http.client.HTTPConnection, path: str, payload) -> dict:
    conn.request("POST", path, body=json.dumps(payload))
    response = conn.getresponse()
    body = json.loads(response.read())
    assert response.status == 200, (response.status, body)
    return body


def main() -> None:
    # 1. A city and its index (offline phase).
    network = grid_network(10, 10, spacing_km=0.5)
    trajectories = commuter_trajectories(network, 200, num_hotspots=4, seed=11)
    problem = TOPSProblem(network, trajectories)
    index = problem.build_netclus_index(gamma=0.75, tau_min_km=0.4, tau_max_km=4.0)
    service = PlacementService(index)

    # 2. Serve it: a farm of this one service, ephemeral port, dedicated
    #    event-loop thread.
    farm = IndexFarm()
    farm.add_service(service)
    with serve_in_background(farm, max_inflight=32) as handle:
        host, port = handle.address
        print(f"serving       : http://{host}:{port}")
        conn = http.client.HTTPConnection(host, port, timeout=30)

        # 3. A batch over HTTP — byte-identical to the in-process answer.
        specs = [
            QuerySpec(k=3, tau_km=1.0),
            QuerySpec(k=6, tau_km=1.0),
            QuerySpec(k=5, tau_km=2.0, preference="linear"),
        ]
        body = post(conn, "/query", [spec.to_dict() for spec in specs])
        direct = PlacementService(index).batch_query(specs, use_cache=False)
        for spec, served, want in zip(specs, body["results"], direct):
            assert tuple(served["sites"]) == want.sites
            assert (
                np.asarray(served["per_trajectory_utility"]).tobytes()
                == np.asarray(want.per_trajectory_utility).tobytes()
            )
            print(f"  k={spec.k} τ={spec.tau_km:.1f}  "
                  f"utility={served['utility']:7.2f}  sites={served['sites']}")
        print("parity        : HTTP answers byte-identical to in-process calls")

        # 4. Close a selected site through /update; later queries see it.
        victim = body["results"][0]["sites"][0]
        update = post(conn, "/update", {"remove_sites": [victim]})
        print(f"update        : closed site {victim}, index version "
              f"{update['index_version_before']} -> {update['index_version']}")
        after = post(conn, "/query", [specs[0].to_dict()])
        assert victim not in after["results"][0]["sites"]
        print(f"re-query      : k={specs[0].k} now selects "
              f"{after['results'][0]['sites']}")

        # 5. The observability surface.
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        metrics = response.read().decode()
        assert response.status == 200
        shown = [
            line
            for line in metrics.splitlines()
            if line.startswith(
                ("netclus_server_requests_total", "netclus_index_version")
            )
        ]
        print("metrics       :")
        for line in shown:
            print(f"  {line}")
        conn.close()

    # 6. The context manager drained and shut the server down.
    print("shutdown      : drained cleanly")


if __name__ == "__main__":
    main()
