"""A thin connection director over a multi-root service tier (§5.2).

Production deployments put a TCP load balancer in front of the root
fleet; tests and benchmarks need the same behavior without one.  The
director holds the root addresses and deals connections round-robin,
with three twists a plain balancer also needs:

* **session affinity** — a session's soft state lives on whichever root
  served it last; the director remembers the root each session was dealt
  and sends that session's reconnects back there.  Affinity is an
  optimization, not a correctness requirement: with a shared session
  store, a session resumed on the *wrong* root is rebuilt from its
  stored recipe book (exactly what the multi-root tests exercise).
* **health checks** — each root is pinged periodically (a transport-level
  ping that creates no session); after ``max_ping_failures`` consecutive
  failures the root is ejected from rotation, and a later successful
  ping restores it.  Sessions pinned to an ejected root fall through to
  round-robin and resume elsewhere via the store.
* **draining** — ``drain(root)`` takes a root out of rotation for
  maintenance *without* dropping its users: the root is told to persist
  every live session to the shared store (so recipe books are fresh),
  new sessions stop routing to it, and existing sessions migrate on
  their next reconnect (their pin is dropped, round-robin deals them a
  healthy root, the store resumes them there).
"""

from __future__ import annotations

import json
import random
import threading
from typing import Callable

from repro.core.framing import FrameError, dial
from repro.engine.rpc import RpcReply, call_once
from repro.obs.logs import log_event
from repro.service.transport import ServiceClient


def admin_call(
    address: "tuple[str, int]",
    method: str,
    args: dict | None = None,
    timeout: float = 10.0,
) -> RpcReply:
    """One sessionless request to a root: dial, ask, disconnect.

    Deliberately *not* a :class:`ServiceClient` — the client's handshake
    creates (or resumes) a session on the server, and health probes /
    drain commands must work without minting sessions (a draining root
    refuses new ones).  The transport answers these administrative
    methods (``ping``, ``drain``, ``undrain``) before any session
    exists.
    """
    sock, rfile, wfile = dial(address, timeout, timeout)
    try:
        return call_once(rfile, wfile, 1, method, args, where=f"root {address}")
    finally:
        try:
            sock.close()
        except OSError:
            pass


def probe_root(
    address: "tuple[str, int]", timeout: float = 2.0
) -> bool:
    """One health probe: dial, transport-level ping, disconnect."""
    try:
        reply = admin_call(address, "ping", timeout=timeout)
    except (FrameError, OSError, ValueError):
        return False
    return reply.kind == "ack" and bool(
        isinstance(reply.payload, dict) and reply.payload.get("pong")
    )


def probe_gateway(
    address: "tuple[str, int]", timeout: float = 2.0
) -> bool:
    """One gateway health probe: ``GET /api/v1/health`` over HTTP.

    Healthy means the gateway answered 200 with its liveness document
    (``"gateway": true``).  A *draining* gateway is still healthy — like
    the transport-level ping, draining is rotation state, not liveness,
    and ejecting a draining root would prevent its sessions from
    finishing their migration.
    """
    import http.client

    connection = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        connection.request("GET", "/api/v1/health")
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            return False
        payload = json.loads(body.decode("utf-8"))
        return bool(isinstance(payload, dict) and payload.get("gateway"))
    except (OSError, ValueError):
        return False
    finally:
        connection.close()


class ConnectionDirector:
    """Round-robin connections across the roots of one service tier."""

    def __init__(
        self,
        addresses: "list[tuple[str, int]]",
        client_factory: "Callable[..., ServiceClient] | None" = None,
        max_ping_failures: int = 3,
        probe: "Callable[[tuple[str, int]], bool] | None" = None,
    ):
        if not addresses:
            raise ValueError("a director needs at least one root address")
        self.addresses = list(addresses)
        self._factory = client_factory if client_factory is not None else ServiceClient
        self._probe = probe if probe is not None else probe_root
        self.max_ping_failures = max_ping_failures
        self._next = 0
        self._gateways: "dict[tuple[str, int], tuple[str, int]]" = {}
        self._affinity: dict[str, tuple[str, int]] = {}
        self._drained: set[tuple[str, int]] = set()
        self._ejected: set[tuple[str, int]] = set()
        self._failures: dict[tuple[str, int], int] = {}
        self.ejections = 0
        self.recoveries = 0
        self._lock = threading.Lock()
        self._checker: threading.Thread | None = None
        self._stop_checks = threading.Event()

    # -- routing ---------------------------------------------------------
    def routable(self) -> "list[tuple[str, int]]":
        """Roots currently in rotation (not drained, not ejected)."""
        with self._lock:
            return [
                a
                for a in self.addresses
                if a not in self._drained and a not in self._ejected
            ]

    def _pick(self, session: str | None) -> tuple[str, int]:
        """The root to try next: the session's pin, else round-robin.

        Picking never records affinity — a pin is only worth keeping if
        the connection actually succeeded, otherwise a dead root would
        capture the session forever.  Pins to drained/ejected roots are
        dropped so the session migrates (the shared store resumes it on
        whatever root round-robin deals)."""
        with self._lock:
            out_of_rotation = self._drained | self._ejected
            if session is not None:
                pinned = self._affinity.get(session)
                if pinned is not None:
                    if pinned in self.addresses and pinned not in out_of_rotation:
                        return pinned
                    del self._affinity[session]  # migrate on reconnect
            candidates = [
                a for a in self.addresses if a not in out_of_rotation
            ]
            if not candidates:
                raise ConnectionError(
                    "no routable root: every address is drained or ejected"
                )
            address = candidates[self._next % len(candidates)]
            self._next += 1
            return address

    def register_gateway(
        self,
        root_address: "tuple[str, int]",
        gateway_address: "tuple[str, int]",
    ) -> None:
        """Record that ``root_address`` fronts an HTTP/WS gateway.

        A registered gateway changes two things: :meth:`gateway_for`
        can deal browser clients a gateway with the same affinity rules
        TCP clients get, and :meth:`check_health` holds the root to a
        stricter bar — its transport ping *and* its gateway's health
        endpoint must both answer, because a root whose gateway is dead
        is useless to every browser session pinned to it.
        """
        if root_address not in self.addresses:
            raise ValueError(f"unknown root {root_address!r}")
        with self._lock:
            self._gateways[root_address] = tuple(gateway_address)

    def gateway_for(self, session: str | None = None) -> "tuple[str, int]":
        """The gateway address a browser client should dial.

        Routing is root-first: the session's pin (or round-robin) picks
        a root exactly as :meth:`connect` would, and the answer is that
        root's registered gateway — so a browser session and its TCP
        resurrections land on the same soft state.  Roots without a
        registered gateway are skipped.
        """
        with self._lock:
            if not self._gateways:
                raise ConnectionError("no gateway registered on any root")
        for _ in range(len(self.addresses)):
            root = self._pick(session)
            with self._lock:
                gateway = self._gateways.get(root)
            if gateway is not None:
                return gateway
        raise ConnectionError("no routable root has a registered gateway")

    def connect(self, session: str | None = None, **kwargs) -> ServiceClient:
        """A client on the session's pinned root, or the next one."""
        address = self._pick(session)
        try:
            client = self._factory(*address, session=session, **kwargs)
        except (OSError, ConnectionError):
            # The pinned root is unreachable: drop the pin so the retry
            # falls through to round-robin (and, with a shared session
            # store, resumes the session on a healthy root).
            if session is not None:
                with self._lock:
                    if self._affinity.get(session) == address:
                        del self._affinity[session]
            raise
        # Pin only after the dial succeeded, under the id the connection
        # actually carries (the server mints one when session is None).
        with self._lock:
            self._affinity[client.session_id] = address
        return client

    def forget(self, session: str) -> None:
        """Drop a session's pin (it expired, or the test moves it)."""
        with self._lock:
            self._affinity.pop(session, None)

    # -- health checks ---------------------------------------------------
    def check_health(self) -> "dict[tuple[str, int], bool]":
        """One probe pass over every root (ejected ones included, so a
        recovered root rejoins the rotation).  A root failing
        ``max_ping_failures`` *consecutive* probes is ejected; one
        success restores it and resets its failure count.

        A root with a registered gateway must pass *both* probes — the
        transport-level ping and the gateway's HTTP health endpoint —
        to count as healthy; browser sessions routed through a dead
        gateway are just as stranded as TCP sessions on a dead root."""
        results: "dict[tuple[str, int], bool]" = {}
        for address in list(self.addresses):
            healthy = bool(self._probe(address))
            if healthy:
                with self._lock:
                    gateway = self._gateways.get(address)
                if gateway is not None:
                    healthy = probe_gateway(gateway)
            results[address] = healthy
            recovered = ejected = False
            with self._lock:
                if healthy:
                    self._failures[address] = 0
                    if address in self._ejected:
                        self._ejected.discard(address)
                        self.recoveries += 1
                        recovered = True
                else:
                    failures = self._failures.get(address, 0) + 1
                    self._failures[address] = failures
                    if (
                        failures >= self.max_ping_failures
                        and address not in self._ejected
                    ):
                        self._ejected.add(address)
                        self.ejections += 1
                        ejected = True
            if ejected:
                log_event(
                    "director.eject",
                    level="warning",
                    root=f"{address[0]}:{address[1]}",
                    failures=self._failures.get(address, 0),
                )
            elif recovered:
                log_event(
                    "director.recover", root=f"{address[0]}:{address[1]}"
                )
        return results

    def start_health_checks(
        self,
        interval_seconds: float = 5.0,
        jitter_fraction: float = 0.2,
    ) -> None:
        """Run :meth:`check_health` on a background thread until
        :meth:`close` (idempotent).

        Each wait stretches by a fresh uniform jitter of up to
        ``jitter_fraction`` of the interval: directors started together
        (one per root tier, or a fleet of test processes) would
        otherwise probe every worker in synchronized bursts, and the
        bursts themselves read as load spikes to anything watching
        queue depth — the autoscaler included.  Jitter de-phases them.
        """
        if self._checker is not None and self._checker.is_alive():
            return
        self._stop_checks.clear()
        rng = random.Random()

        def loop() -> None:
            while not self._stop_checks.wait(
                interval_seconds * (1.0 + rng.random() * jitter_fraction)
            ):
                self.check_health()

        # repro: ignore[C002] — background health-probe loop; probes carry no query context
        self._checker = threading.Thread(
            target=loop, name="director-health", daemon=True
        )
        self._checker.start()

    def ejected(self) -> "list[tuple[str, int]]":
        with self._lock:
            return sorted(self._ejected)

    # -- draining --------------------------------------------------------
    def drain(
        self, address: "tuple[str, int]", flush_sessions: bool = True
    ) -> dict:
        """Take one root out of rotation for maintenance.

        With ``flush_sessions`` the root is asked (best-effort) to
        persist every live session's recipe book to the shared store
        right now and to refuse *new* sessions, so reconnecting clients
        resume with fresh state on the roots that remain.  Existing
        connections keep streaming until their clients disconnect.
        """
        if address not in self.addresses:
            raise ValueError(f"unknown root {address!r}")
        with self._lock:
            self._drained.add(address)
            stale_pins = [
                session
                for session, pinned in self._affinity.items()
                if pinned == address
            ]
            for session in stale_pins:
                del self._affinity[session]
        result: dict = {"drained": True, "unpinned": len(stale_pins)}
        log_event(
            "director.drain",
            root=f"{address[0]}:{address[1]}",
            unpinned=len(stale_pins),
        )
        if flush_sessions:
            try:
                reply = admin_call(address, "drain")
                if isinstance(reply.payload, dict):
                    result.update(reply.payload)
            except (FrameError, OSError, ValueError):
                result["flushError"] = True  # the root may already be down
        return result

    def undrain(self, address: "tuple[str, int]") -> None:
        """Return a drained root to the rotation (maintenance finished)."""
        with self._lock:
            self._drained.discard(address)
        try:
            admin_call(address, "undrain")
        except (FrameError, OSError, ValueError):
            pass

    def drained(self) -> "list[tuple[str, int]]":
        with self._lock:
            return sorted(self._drained)

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        self._stop_checks.set()
        if self._checker is not None:
            self._checker.join(timeout=5.0)
            self._checker = None

    def __repr__(self) -> str:
        roots = ", ".join(f"{h}:{p}" for h, p in self.addresses)
        return f"<ConnectionDirector roots=[{roots}]>"
