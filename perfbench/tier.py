"""The root tier under test, run as its own process.

``python3 perfbench/tier.py`` builds the serving topology the benchmark
measures and announces it on stdout as one JSON line::

    {"tcp": 40123, "gateway": 40124, "pid": 811, "workers": [812, 813]}

The topology is a :class:`~repro.engine.remote.ProcessCluster` with two
spawned ``repro worker`` daemons of one core each, a
:class:`~repro.service.ServiceServer` (the TCP root) and a
:class:`~repro.gateway.GatewayServer` (HTTP/WebSocket) sharing its
sessions and scheduler.  The process then serves until its stdin
closes, and shuts the daemons down before it exits.  Keeping the root
out of the load generator's process means the generator's threads never
compete with the root's event loop for the interpreter lock.
"""

from __future__ import annotations

import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from repro.engine.remote import ProcessCluster  # noqa: E402
from repro.gateway import GatewayServer  # noqa: E402
from repro.service import ServiceServer  # noqa: E402

WORKERS = 2
CORES_PER_WORKER = 1


def main() -> int:
    cluster = ProcessCluster(num_workers=WORKERS, cores_per_worker=CORES_PER_WORKER)
    service = ServiceServer(cluster)
    gateway = GatewayServer(service)
    try:
        tcp = service.start_background()
        web = gateway.start_background()
        print(
            json.dumps(
                {
                    "tcp": tcp[1],
                    "gateway": web[1],
                    "pid": os.getpid(),
                    "workers": cluster.worker_pids(),
                }
            ),
            flush=True,
        )
        sys.stdin.read()  # serve until the benchmark closes our stdin
    finally:
        gateway.close()
        service.close()
        cluster.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
