"""One benchmark run's moving parts: the tier process, connections, workload."""

from __future__ import annotations

import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from data import Reference, canonical
from workloads import WORKLOADS, Checker, TcpConn, WsConn, run_op

HERE = os.path.dirname(os.path.abspath(__file__))
WORKERS = 2
#: A window is cut into slices of at least this long (whole ops each).
SLICE_SECONDS = 0.2
#: A slice is calm when the hypervisor stole at most this share of the
#: machine's CPU time during it (one tick in a 0.2 s slice on 2 CPUs).
CALM_STEAL = 0.025


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of this machine so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


class Window:
    """A timed closed loop, cut into slices of whole ops.

    Each slice records the share of CPU time the hypervisor stole from
    this machine while it ran.  Steal comes in bursts from other guests
    and only ever adds latency (sub-millisecond requests slow down several
    times over), so the reported metrics use the *calm* slices: those
    with at most ``CALM_STEAL`` stolen or, when the host leaves fewer than
    a quarter of the slices that calm, the least-stolen quarter.
    """

    def __init__(self):
        self.slices: list[tuple[list, float, float]] = []  # ops, seconds, steal

    @classmethod
    def joined(cls, windows: list) -> "Window":
        """One window holding the slices of several."""
        whole = cls()
        for window in windows:
            whole.slices.extend(window.slices)
        return whole

    @property
    def ops(self) -> list:
        return [op for ops, _, _ in self.slices for op in ops]

    def calm(self) -> tuple[list, float, float]:
        """(ops, seconds, mean steal share) of the calm slices."""
        if not self.slices:
            return [], 0.0, 0.0
        steals = [steal for _, _, steal in self.slices]
        quarter = statistics.quantiles(steals, n=4)[0] if len(steals) > 1 else steals[0]
        kept = [s for s in self.slices if s[2] <= max(CALM_STEAL, quarter)]
        return (
            [op for ops, _, _ in kept for op in ops],
            sum(seconds for _, seconds, _ in kept),
            statistics.mean(steal for _, _, steal in kept),
        )

    def steal(self) -> float:
        """Mean stolen share of CPU time over the whole window."""
        return statistics.mean(s for _, _, s in self.slices) if self.slices else 0.0


@contextmanager
def pinned(*pids: int):
    """Keep the load generator and the processes ``pids`` (the root) on
    one CPU while measuring.

    The generator and the root hand every request back and forth; spread
    over two CPUs, each handoff can wait for the hypervisor to wake an
    idle virtual CPU, which on a shared host made sub-millisecond
    latencies swing several times over from run to run.  The worker
    daemons stay free to use every CPU.
    """
    cpu = {min(os.sched_getaffinity(0))}
    saved = []
    for pid in ("self", *pids):
        for tid in map(int, os.listdir(f"/proc/{pid}/task")):
            try:
                saved.append((tid, os.sched_getaffinity(tid)))
                os.sched_setaffinity(tid, cpu)
            except OSError:  # the thread ended meanwhile
                pass
    try:
        yield
    finally:
        for tid, allowed in saved:
            try:
                os.sched_setaffinity(tid, allowed)
            except OSError:
                pass


class Tier:
    """The root tier's child process."""

    def __init__(self, env: dict):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "tier.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            ready = selector.select(timeout=60.0)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise RuntimeError("the root tier did not start")
        info = json.loads(line)
        self.tcp_port = info["tcp"]
        self.gateway_port = info["gateway"]
        self.pids = [info["pid"], *info["workers"]]

    def rss_mb(self) -> float:
        total_kb = 0
        for pid in self.pids:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmRSS:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Session:
    """One run: the tier, its connections, the workload and its checker."""

    def __init__(self, catalog, name, seed, directory):
        self.spec = catalog["workloads"][name]
        self.source = {"kind": "hvc", "directory": directory}
        self.reference = Reference(directory, WORKERS)
        self.checker = Checker(self.reference)
        self.workload = WORKLOADS[name](np.random.default_rng(seed))
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.tier = self.tcp = self.ws = self.conn = None
        self.spans = None
        self.primed: list = []
        self.notes: list[str] = []
        self.filters = 0

    def setup(self) -> float:
        """Launch the tier and load the dataset; returns seconds to the
        first ``rowCount`` reply."""
        self.close()
        started = time.perf_counter()
        self.tier = Tier(self.env)
        self.tcp = TcpConn(self.tier.tcp_port)
        self.tcp_handle = self.tcp.client.load(self.source)
        rows = self.tcp.client.row_count(self.tcp_handle)
        seconds = time.perf_counter() - started
        if rows != self.reference.rows:
            raise RuntimeError(
                f"tier reports {rows} rows, expected {self.reference.rows}"
            )
        return seconds

    def connect_gateway(self) -> None:
        self.ws = WsConn(self.tier.gateway_port)
        reply = self.ws.request("load", "", {"source": self.source})
        self.ws_handle = reply.payload["handle"]
        self.conn = self.ws if self.spec["client"] == "ws" else self.tcp
        self.handle = self.ws_handle if self.conn is self.ws else self.tcp_handle

    def prime(self) -> None:
        for steps in self.workload.prime_steps():
            self.primed.append(run_op(self.conn, self.handle, steps, profile=True))

    def window(self, seconds: float, traced: bool = False) -> Window:
        """Run the workload's closed loop for ``seconds``."""
        spans = self.spans if traced else None
        window = Window()
        with pinned(self.tier.pids[0]):
            now = started = time.perf_counter()
            stolen, total = cpu_ticks()
            ops: list = []
            while now < started + seconds:
                steps = self.workload.next_op()
                op = run_op(self.conn, self.handle, steps, spans, traced)
                ops.append(op)
                end = time.perf_counter()
                failed = op.error is not None  # the connection may be broken
                if end - now >= SLICE_SECONDS or end >= started + seconds or failed:
                    stolen_now, total_now = cpu_ticks()
                    share = (stolen_now - stolen) / max(1, total_now - total)
                    window.slices.append((ops, end - now, share))
                    ops, now, stolen, total = [], end, stolen_now, total_now
                if failed:
                    break
        return window

    def probe_specs(self) -> list:
        """Distinct sketch specs of upcoming ops, run on the base dataset."""
        specs: dict = {}
        for _ in range(4):
            for step in self.workload.next_op():
                if step[0] == "sketch":
                    specs.setdefault(canonical(step[2]), step[2])
        return list(specs.values())

    def workload_probe_filter(self) -> list:
        """A filter no op uses (ops draw thresholds in (10.0, 10.1))."""
        self.filters += 1
        predicate = {
            "type": "column",
            "column": "DepDelay",
            "op": ">",
            "value": 10.5 + self.filters * 0.01,
        }
        return [("filter", predicate), ("evict",)]

    def close(self) -> None:
        for conn in (self.ws, self.tcp):
            if conn is not None:
                conn.close()
        if self.tier is not None:
            self.tier.close()
        self.tier = self.tcp = self.ws = None
