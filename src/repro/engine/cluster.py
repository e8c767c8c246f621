"""The multi-server cluster engine (paper §5.2–5.8).

A :class:`Cluster` owns a set of workers — each one server of the paper's
deployment — behind the :class:`WorkerProtocol` interface.  Two
implementations exist:

* :class:`Worker` (this module): in-process, a soft object store plus a
  leaf thread pool; the default, used by tests and single-machine serving;
* :class:`~repro.engine.remote.RemoteWorkerProxy`: a worker living in a
  separate OS process (or machine), spoken to over uvarint-framed JSON —
  see :class:`~repro.engine.remote.ProcessCluster`.

Sketch execution follows the paper's tree regardless of substrate:

* the root broadcasts the query with the dataset's redo-log lineage; every
  worker materializes its shards (replaying lineage if its soft state is
  gone, §5.7);
* each worker's thread pool runs ``summarize`` per micropartition and the
  worker (acting as its aggregation node) merges locally, forwarding a
  cumulative partial to the root at the aggregation cadence (0.1 s in the
  paper);
* the root merges the latest partial from every worker and streams
  progressively better results to the client, counting received bytes.

A worker that dies mid-sketch is revived (see ``Cluster.revive_worker``)
and its stream re-run from scratch; because every partial is *cumulative*,
the root simply replaces that worker's contribution and the final merge is
still exact (§5.8).

Deterministic sketch results are served from the multi-tier memoization
subsystem (§5.4): whole results from the root's computation cache, and
per-worker cumulative partials from each worker's memo cache — keyed by
content-addressed dataset id and shard slice, so on a shared fleet a
sketch computed for one root is served from the worker cache to every
other root (see :mod:`repro.engine.cache`).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import itertools
import json
import os
import queue
import threading
import time
import uuid
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

from repro.core.sketch import Sketch
from repro.engine.cache import (
    KEY_SEP,
    ComputationCache,
    DataCache,
    MemoCache,
    caches_disabled,
    summary_size,
)
from repro.engine.dataset import IDataSet, TableMap
from repro.engine.placement import (
    PlacementError,
    StalePlacementError,
    plan_moves,
)
from repro.engine.progress import CancellationToken, PartialResult, SketchRun
from repro.engine.redo_log import LoadOp, MapOp, RedoLog
from repro.obs.metrics import REGISTRY
from repro.obs.trace import TraceContext, current_context, span, use_context
from repro.errors import (
    DatasetMissingError,
    EngineError,
    HillviewError,
    WorkerUnavailableError,
)
from repro.storage.loader import DataSource
from repro.table.schema import Schema
from repro.table.table import Table

R = TypeVar("R")

#: How many times the root re-runs a worker's stream after revival before
#: giving up on the query (§5.8: repeated failures surface to the client).
MAX_WORKER_RETRIES = 3

#: How many times a root re-syncs and retries after a worker rejects a
#: stale-versioned request before surfacing the failure.  Each retry
#: re-reads the fleet's placement, so this bounds how many back-to-back
#: rebalances a single query can ride out.
MAX_PLACEMENT_RETRIES = 8

#: A straggler must have at least this many unstarted shards before an
#: idle peer bothers claiming any — below this, letting the victim
#: finish beats the claim round-trip.
STEAL_MIN_PENDING = 2

#: Upper bound on shards moved by one claim.  Thieves loop (another
#: claim fires as each one returns), so a small cap keeps claims cheap
#: and lets several idle peers share one straggler's backlog.
STEAL_MAX_BUDGET = 8


def steal_enabled() -> bool:
    """Work stealing is on unless ``REPRO_STEAL=0``.

    Read per fan-out, not at import, so tests (and the byte-identity
    benchmarks) can flip modes inside one process.
    """
    return os.environ.get("REPRO_STEAL", "1") != "0"


def steal_after_seconds(aggregation_interval: float) -> float:
    """How long a fan-out must run before claims are considered.

    The gate separates stragglers from ordinary skew: in a balanced
    sub-second run every worker finishes within a cadence or two, and a
    claim would only add round-trips — worse, the ceded worker can no
    longer memoize its slice partial (it never folded the whole slice),
    which would defeat the §5.4 warm path for every later query.
    ``REPRO_STEAL_AFTER`` (seconds) overrides for tests and benchmarks.
    """
    raw = os.environ.get("REPRO_STEAL_AFTER")
    if raw:
        try:
            return max(0.0, float(raw))
        except ValueError:
            pass
    return max(2 * aggregation_interval, 0.25)


#: Default byte budget for prewarming a joining worker's memo cache
#: from its peers' hot entries (summaries are tiny — §5.4 — so a few
#: megabytes covers hundreds of sketches).
PREWARM_BUDGET_BYTES = 4 * 1024 * 1024


def prewarm_budget_bytes() -> int:
    """How many summary bytes of hot memo entries a joiner replicates.

    ``REPRO_PREWARM_BYTES`` overrides (0 disables prewarming); read per
    resize, not at import, so tests can flip it inside one process.
    """
    raw = os.environ.get("REPRO_PREWARM_BYTES")
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return PREWARM_BUDGET_BYTES


@dataclass
class WorkerEmission:
    """One cumulative partial emitted by a worker's aggregation node.

    ``cache_hit`` marks a partial served whole from the worker's memo
    cache — no shard was scanned to produce it (§5.4 at the worker tier).
    """

    summary: object
    shards_done: int
    bytes: int
    cache_hit: bool = False


@dataclass
class StolenParcel:
    """One shard slice ceded by a straggler to an idle peer.

    In-process fleets pass the shard as an object reference; over the
    wire it travels as serialized bytes and :meth:`resolve` decodes it
    lazily on whichever side ends up summarizing (the thief daemon, or
    the root as a last-resort fallback).
    """

    global_index: int
    table: Table | None = None
    payload: bytes | None = None
    shard_id: str | None = None

    def resolve(self) -> Table:
        if self.table is None:
            if self.payload is None:
                raise EngineError(
                    f"stolen shard {self.global_index} carries no data"
                )
            from repro.storage.columnar import table_from_bytes

            self.table = table_from_bytes(
                self.payload,
                shard_id=self.shard_id or f"stolen-{self.global_index}",
            )
        return self.table


class StealLedger:
    """A claim handle onto one in-flight :meth:`Worker.sketch_partials`.

    The leaf pool starts micropartitions in submission order, so the
    started set is always a *prefix* of the shard list and the
    cancellable set a contiguous *suffix*.  :meth:`cede` cancels from
    the tail toward the front — a ``Future.cancel()`` that returns True
    guarantees the leaf never ran — so the victim's final cumulative
    partial stays a left fold over an uninterrupted prefix, and the
    stolen suffix can be folded on top of it in global shard order to
    reproduce the uninterrupted run byte for byte.
    """

    def __init__(
        self,
        worker: "Worker",
        futures: "list[concurrent.futures.Future]",
        shards: "list[Table]",
    ):
        self._worker = worker
        self._futures = futures
        self._shards = shards
        # Serializes concurrent claims: cancel() on an already-cancelled
        # future also returns True, so two unlocked thieves could both
        # believe they own one position.
        self._lock = threading.Lock()

    def cede(self, budget: int) -> "list[StolenParcel]":
        """Cancel up to ``budget`` unstarted trailing shards; returns
        their parcels in ascending position order (possibly empty)."""
        taken: list[int] = []
        with self._lock:
            for position in range(len(self._futures) - 1, -1, -1):
                if len(taken) >= budget:
                    break
                future = self._futures[position]
                if future.cancelled():
                    continue  # ceded to an earlier claim
                if not future.cancel():
                    break  # started (or done) — so is everything earlier
                taken.append(position)
        taken.reverse()
        self._worker.slices_donated += len(taken)
        worker = self._worker
        return [
            StolenParcel(
                global_index=worker.index + position * worker.count,
                table=self._shards[position],
            )
            for position in taken
        ]


class WorkerProtocol(ABC):
    """One server of the cluster, local or remote (§5.2).

    ``lineage`` arguments carry the dataset's redo-log chain (LoadOp then
    MapOps, in application order) so the worker can rebuild any soft state
    it lost without calling back into the root (§5.7).
    """

    name: str
    cores: int

    @abstractmethod
    def configure(
        self, index: int, count: int, aggregation_interval: float
    ) -> None:
        """Assign this worker its shard slice (index of count) and cadence."""

    @abstractmethod
    def load_source(self, dataset_id: str, source: DataSource) -> int:
        """Load the source and keep this worker's slice; returns shard count."""

    @abstractmethod
    def ensure(self, dataset_id: str, lineage: list) -> int:
        """Materialize the dataset (replaying lineage); returns shard count."""

    @abstractmethod
    def shard_rows(self, dataset_id: str, lineage: list) -> int:
        """Total rows across this worker's shards of the dataset."""

    @abstractmethod
    def shard_schema(self, dataset_id: str, lineage: list) -> Schema | None:
        """The dataset's schema, or None when this worker holds no shards."""

    @abstractmethod
    def sketch_partials(
        self,
        dataset_id: str,
        sketch: Sketch,
        lineage: list,
        token: CancellationToken | None = None,
        on_ledger=None,
    ) -> Iterator[WorkerEmission]:
        """Run the sketch over this worker's shards, yielding cumulative
        partials at the aggregation cadence; the final emission reflects
        every shard the worker summarized itself.

        ``on_ledger``, when given, receives a :class:`StealLedger`-like
        handle (``cede(budget) -> list[StolenParcel]``) as soon as the
        run's leaf tasks are queued, letting the root reassign unstarted
        trailing shards to an idle peer mid-sketch.  Implementations
        that cannot be stolen from simply never call it.
        """

    @abstractmethod
    def evict(self, dataset_id: str) -> None:
        """Drop this worker's shards of one dataset (soft state)."""

    @abstractmethod
    def crash(self) -> None:
        """Lose all soft state, as after a process restart (§5.8)."""

    def summarize_stolen(
        self, sketch: Sketch, parcels: "list[StolenParcel]"
    ) -> "list[tuple[int, object]] | None":
        """Summarize shard slices stolen from a straggling peer.

        Returns ``[(global_index, summary)]`` in parcel order, or None
        when this worker cannot act as a thief (the root then
        summarizes the parcels itself).
        """
        return None

    def export_hot_entries(self, budget_bytes: int) -> list[dict]:
        """Hot memo *recipes* (dataset + sketch + lineage JSON), most-hit
        first, cut off at roughly ``budget_bytes`` of summary payload.

        Recipes, not entries: memo keys embed the worker's shard slice,
        so a joiner on a resized fleet recomputes each recipe over its
        *own* slice instead of adopting another slice's bytes.
        """
        return []

    def import_entries(self, entries: list[dict]) -> int:
        """Eagerly recompute and memoize exported recipes (prewarming);
        returns how many entries were warmed.  Best-effort."""
        return 0

    def cache_stats(self) -> dict:
        """This worker's cache counters (shard store + sketch memo)."""
        return {"name": self.name}

    def metrics_snapshot(self) -> dict:
        """This worker's live metrics (queue depth, cache hit rates...)."""
        return {"name": self.name}

    def trace_dump(self, trace_id: str | None = None) -> list[dict]:
        """Spans recorded on this worker's side of the wire.

        In-process workers share the root's recorder (their spans are
        already in the root's buffer), so the default is empty; remote
        proxies fetch the daemon's ring buffer over the wire.
        """
        return []

    def inventory(self) -> dict[str, dict]:
        """Resident datasets: ``{id: {"shards": n, "loaded": bool}}``.

        Fleet rebalancing reads this to plan which shard slices move.
        ``loaded`` marks datasets materialized straight from a data
        source (dense tables): only those are safe to stream as bytes —
        derived datasets are views and replay instead.  The marking
        lives at the worker so a rebalance driven by an *administrative*
        root (whose redo log is empty) can still classify another root's
        datasets.  Workers that cannot report return ``{}`` and their
        datasets fall back to redo-log replay on the new slicing.
        """
        return {}

    def sweep_caches(self) -> int:
        """Purge TTL-expired cache entries; returns how many were dropped.

        Remote workers sweep themselves on their own daemon-side timer,
        so the proxy default is a no-op.
        """
        return 0

    def close(self) -> None:
        """Release resources (sockets, subprocesses); local workers no-op."""


class Worker(WorkerProtocol):
    """One in-process server: a soft object store plus a leaf pool (§5.2)."""

    def __init__(
        self,
        name: str,
        cores: int = 4,
        cache_entries: int = 64,
        cache_ttl_seconds: float = 2 * 3600.0,
        memo_entries: int = 4096,
        memo_bytes: int = 32 * 1024 * 1024,
        clock=time.monotonic,
    ):
        if cores < 1:
            raise ValueError("a worker needs at least one core")
        self.name = name
        self.cores = cores
        # The data cache: dataset id -> this worker's micropartitions.
        self.store: DataCache[list[Table]] = DataCache(
            max_entries=cache_entries,
            ttl_seconds=cache_ttl_seconds,
            clock=clock,
            name=f"{name}-store",
        )
        #: The worker tier of the computation cache (§5.4): cumulative
        #: *partial* sketch results keyed by (content-addressed dataset id,
        #: sketch cache key, this worker's shard slice).  On a shared
        #: fleet, a deterministic sketch computed for one root is served
        #: from here to every other root — zero shard scans.
        self.memo: MemoCache[tuple[object, int]] = MemoCache(
            max_entries=memo_entries,
            max_bytes=memo_bytes,
            ttl_seconds=cache_ttl_seconds,
            clock=clock,
            sizer=lambda entry: summary_size(entry[0]),
            name=f"{name}-memo",
            disableable=True,
        )
        #: Dataset ids whose resident shards came straight from a data
        #: source (LoadOp materializations — dense tables).  Rebalances
        #: stream only these as bytes; derived datasets are views whose
        #: serialization would flatten membership, so they replay.
        self._loaded: set[str] = set()
        self.crashes = 0
        self.shards_summarized = 0
        #: Work-stealing traffic: slices this worker summarized for a
        #: straggling peer, and slices it ceded to idle peers.
        self.slices_stolen = 0
        self.slices_donated = 0
        #: Memo entries eagerly recomputed from another worker's hot
        #: list when this worker joined or was restriped (prewarming).
        self.entries_warmed = 0
        #: Recipes behind live memo entries: memo key -> {dataset,
        #: sketch, lineage, hits}.  A recipe (not the summary bytes) is
        #: what prewarming exports — the importer's memo key embeds a
        #: different shard slice, so it recomputes rather than copies.
        self._recipes: dict[str, dict] = {}
        self._recipes_lock = threading.Lock()
        self.index = 0
        self.count = 1
        self.aggregation_interval = 0.1

    # -- configuration --------------------------------------------------
    def configure(
        self, index: int, count: int, aggregation_interval: float
    ) -> None:
        self.index = index
        self.count = count
        self.aggregation_interval = aggregation_interval

    # -- soft object store ----------------------------------------------
    def fetch(self, dataset_id: str) -> list[Table]:
        """This worker's shards of ``dataset_id``; raises if evicted."""
        shards = self.store.get(dataset_id)
        if shards is None:
            raise DatasetMissingError(dataset_id, self.name)
        return shards

    def put(
        self, dataset_id: str, shards: list[Table], loaded: bool = False
    ) -> None:
        self.store.put(dataset_id, shards)
        if loaded:
            self._loaded.add(dataset_id)
        else:
            self._loaded.discard(dataset_id)

    def evict(self, dataset_id: str) -> None:
        self.store.evict(dataset_id)
        self._loaded.discard(dataset_id)
        # The invalidation invariant: evicting a dataset drops every
        # dependent memoized partial at this tier too.
        self.memo.invalidate_prefix(dataset_id + KEY_SEP)

    def crash(self) -> None:
        """Lose all soft state, as after a process restart (§5.8)."""
        self.store.clear()
        self.memo.clear()
        self._loaded.clear()
        with self._recipes_lock:
            self._recipes.clear()
        self.crashes += 1

    def cache_stats(self) -> dict:
        return {
            "name": self.name,
            "store": self.store.stats().to_json(),
            "memo": self.memo.stats().to_json(),
            "shardsSummarized": self.shards_summarized,
        }

    def metrics_snapshot(self) -> dict:
        store = self.store.stats()
        memo = self.memo.stats()
        return {
            "name": self.name,
            "cores": self.cores,
            "shardsSummarized": self.shards_summarized,
            "crashes": self.crashes,
            "datasets": store.entries,
            "storeHitRate": round(store.hit_rate, 4),
            "memoHitRate": round(memo.hit_rate, 4),
            "memoBytes": memo.bytes,
            "slicesStolen": self.slices_stolen,
            "slicesDonated": self.slices_donated,
            "entriesWarmed": self.entries_warmed,
        }

    def inventory(self) -> dict[str, dict]:
        # peek, not get: a monitoring loop polling `fleet status` must
        # not refresh recency/TTL or inflate hit counters.
        return {
            dataset_id: {
                "shards": len(shards),
                "loaded": dataset_id in self._loaded,
            }
            for dataset_id in self.store.keys()
            if (shards := self.store.peek(dataset_id)) is not None
        }

    def rebalance_store(
        self,
        new_index: int,
        new_count: int,
        totals: dict[str, int],
        adopted: "dict[str, dict[int, Table]] | None" = None,
    ) -> dict[str, int]:
        """Re-key this worker's shard store for a new slice assignment.

        The caller must :meth:`configure` the new slice afterwards —
        this method reads ``self.index``/``self.count`` as the *old*
        assignment to locate kept shards.  ``totals`` maps each
        *transferred* dataset to its global shard count; ``adopted``
        holds shards streamed in from other workers, keyed by global
        index.  For each transferred dataset the worker
        keeps its still-owned shards (global index ≡ new slice), merges
        the adopted ones, and stores the result in ascending global
        order — byte-identical to what ``load_slice(new_index,
        new_count)`` would have produced.  A dataset that ends up
        incomplete (a transfer failed, a source worker had gone cold) is
        dropped instead: redo-log replay rebuilds it on first use
        (§5.7), which is always correct and merely slower.  Datasets not
        listed in ``totals`` (derived datasets, another root's datasets
        this root cannot classify) are evicted for the same replay
        fallback.  Returns ``{dataset_id: resident shard count}`` after
        the re-key.
        """
        adopted = adopted or {}
        old_index, old_count = self.index, self.count
        kept: dict[str, int] = {}
        for dataset_id in self.store.keys():
            if dataset_id not in totals:
                self.evict(dataset_id)
        for dataset_id, total in totals.items():
            by_global: dict[int, Table] = dict(adopted.get(dataset_id, {}))
            resident = self.store.get(dataset_id)
            if resident is not None:
                for position, shard in enumerate(resident):
                    g = old_index + position * old_count
                    if g % new_count == new_index:
                        by_global.setdefault(g, shard)
            expected = list(range(new_index, total, new_count))
            if sorted(by_global) != expected:
                # Incomplete slice: drop it, lineage replay rebuilds.
                self.evict(dataset_id)
                continue
            # Transferred datasets are loads by construction (only dense
            # LoadOp materializations qualify for transfer), and must
            # stay marked so the *next* rebalance can move them again.
            self.put(
                dataset_id, [by_global[g] for g in expected], loaded=True
            )
            kept[dataset_id] = len(expected)
        return kept

    def sweep_caches(self) -> int:
        """The paper's "unused for 2 hours → purged" behavior, for real:
        drop TTL-expired shards and memoized partials."""
        return self.store.purge_stale() + self.memo.purge_stale()

    # -- materialization (replay, §5.7) ---------------------------------
    def shards(self, dataset_id: str, lineage: list) -> list[Table]:
        """This worker's shards, replaying redo-log lineage when evicted.

        Replay walks the lineage from the load op forward, re-applying maps
        (§5.7: "the recursion ends when data is read from disk").
        """
        try:
            return self.fetch(dataset_id)
        except DatasetMissingError:
            pass
        shards: list[Table] | None = None
        for op in lineage:
            if isinstance(op, LoadOp):
                try:
                    shards = self.fetch(op.dataset_id)
                    continue
                except DatasetMissingError:
                    shards = op.source.load_slice(self.index, self.count)
            elif isinstance(op, MapOp):
                assert shards is not None
                try:
                    shards = self.fetch(op.dataset_id)
                    continue
                except DatasetMissingError:
                    shards = [op.table_map.apply(shard) for shard in shards]
            self.put(op.dataset_id, shards, loaded=isinstance(op, LoadOp))
        if shards is None:
            raise DatasetMissingError(dataset_id, self.name)
        return shards

    def load_source(self, dataset_id: str, source: DataSource) -> int:
        # Content-addressed ids make this idempotent: when another root of
        # a shared fleet (or an earlier session) already loaded the same
        # source, the resident shards are byte-identical by construction.
        resident = self.store.get(dataset_id)
        if resident is not None:
            return len(resident)
        shards = source.load_slice(self.index, self.count)
        self.put(dataset_id, shards, loaded=True)
        return len(shards)

    def ensure(self, dataset_id: str, lineage: list) -> int:
        return len(self.shards(dataset_id, lineage))

    def shard_rows(self, dataset_id: str, lineage: list) -> int:
        return sum(s.num_rows for s in self.shards(dataset_id, lineage))

    def shard_schema(self, dataset_id: str, lineage: list) -> Schema | None:
        shards = self.shards(dataset_id, lineage)
        return shards[0].schema if shards else None

    # -- sketch execution (leaf pool + aggregation cadence) --------------
    def _memo_key(self, dataset_id: str, cache_key: str) -> str:
        """Keyed by (dataset, sketch, shard slice): a reconfigured worker
        must never serve partials computed over a different slice."""
        return (
            f"{dataset_id}{KEY_SEP}{cache_key}{KEY_SEP}"
            f"{self.index}/{self.count}"
        )

    def sketch_partials(
        self,
        dataset_id: str,
        sketch: Sketch,
        lineage: list,
        token: CancellationToken | None = None,
        on_ledger=None,
    ) -> Iterator[WorkerEmission]:
        memo_key = None
        cache_key = sketch.cache_key()
        if cache_key is not None:
            memo_key = self._memo_key(dataset_id, cache_key)
            memoized = self.memo.get(memo_key)
            if memoized is not None:
                with self._recipes_lock:
                    recipe = self._recipes.get(memo_key)
                    if recipe is not None:
                        recipe["hits"] += 1
                summary, shard_count = memoized
                yield WorkerEmission(
                    summary,
                    shard_count,
                    summary.serialized_size()
                    if hasattr(summary, "serialized_size")
                    else 0,
                    cache_hit=True,
                )
                return
        shards = self.shards(dataset_id, lineage)
        interval = self.aggregation_interval
        leaf_ctx = current_context()

        def leaf(shard: Table) -> object | None:
            # Cancellation removes queued micropartitions only (§5.3).
            if token is not None and token.cancelled:
                return None
            self.shards_summarized += 1
            # Pool threads see no thread-local trace context; restore the
            # spawning thread's so leaf-side log records correlate.
            with use_context(leaf_ctx):
                return sketch.summarize(shard)

        accumulated = sketch.zero()
        done = 0
        pending_since_emit = 0
        last_emit = time.monotonic()
        failure: BaseException | None = None
        ceded = False
        with concurrent.futures.ThreadPoolExecutor(self.cores) as pool:
            futures = [pool.submit(leaf, shard) for shard in shards]
            if on_ledger is not None and len(shards) > 1:
                on_ledger(StealLedger(self, futures, shards))
            # Merge in *shard* order, not completion order: Misra-Gries
            # (and any non-commutative merge) must produce the same bytes
            # no matter which leaf thread finishes first — the memo and
            # the cross-root computation cache both rely on it.
            for future in futures:
                try:
                    summary = future.result()
                except concurrent.futures.CancelledError:
                    # This position (and, because cedes take contiguous
                    # suffixes, every later one) went to an idle peer:
                    # the cumulative partial so far covers exactly the
                    # prefix this worker kept.
                    ceded = True
                    break
                except Exception as exc:  # repro: ignore[B001] — not swallowed: re-raised after the pool drains
                    # A leaf failed (bad column, broken expression...):
                    # drop this worker's remaining shards and surface
                    # the failure at the root instead of dying silently.
                    failure = exc
                    for pending in futures:
                        pending.cancel()
                    break
                done += 1
                if summary is not None:
                    accumulated = sketch.merge(accumulated, summary)
                    pending_since_emit += 1
                now = time.monotonic()
                finished = done == len(shards)
                if pending_since_emit and (
                    now - last_emit >= interval or finished
                ):
                    yield WorkerEmission(
                        accumulated,
                        done,
                        accumulated.serialized_size()
                        if hasattr(accumulated, "serialized_size")
                        else 0,
                    )
                    pending_since_emit = 0
                    last_emit = now
        if failure is not None:
            raise failure
        if ceded and pending_since_emit:
            # Shards folded since the last cadence emission must still
            # reach the root — its slice fold resumes from this exact
            # prefix partial before appending the stolen summaries.
            yield WorkerEmission(
                accumulated,
                done,
                accumulated.serialized_size()
                if hasattr(accumulated, "serialized_size")
                else 0,
            )
        if (
            memo_key is not None
            and shards
            and done == len(shards)
            and not (token is not None and token.cancelled)
        ):
            # Every shard was summarized into the cumulative partial:
            # memoize it for the next root (or session) asking for the
            # same deterministic sketch over the same dataset slice.
            self.memo.put(memo_key, (accumulated, len(shards)))
            if memo_key in self.memo:  # dropped when caches are disabled
                with self._recipes_lock:
                    hits = self._recipes.get(memo_key, {}).get("hits", 0)
                    self._recipes[memo_key] = {
                        "dataset": dataset_id,
                        "sketch": sketch,
                        "lineage": lineage,
                        "hits": hits,
                    }

    def summarize_stolen(
        self, sketch: Sketch, parcels: "list[StolenParcel]"
    ) -> "list[tuple[int, object]]":
        """Act as the thief: summarize another worker's ceded slices.

        Per-shard summaries come back individually (never pre-merged) —
        the root appends them to the victim's prefix fold in global
        shard order, which keeps the fold tree identical to an
        uninterrupted run.  Nothing here touches this worker's memo:
        memoized partials are keyed by *its own* slice.
        """
        if not parcels:
            return []
        ctx = current_context()

        def leaf(parcel: StolenParcel) -> object:
            self.shards_summarized += 1
            with use_context(ctx):
                return sketch.summarize(parcel.resolve())

        with concurrent.futures.ThreadPoolExecutor(self.cores) as pool:
            summaries = list(pool.map(leaf, parcels))
        self.slices_stolen += len(parcels)
        return [
            (parcel.global_index, summary)
            for parcel, summary in zip(parcels, summaries)
        ]

    # -- memo prewarming (elastic fleets) --------------------------------
    def export_hot_entries(self, budget_bytes: int) -> list[dict]:
        """The hottest live memo recipes, as wire-ready JSON dicts.

        Ranked by hit count (ties broken by key for determinism) and cut
        off once the *summaries* behind them exceed ``budget_bytes`` —
        the recipes themselves are a few hundred bytes of JSON; the
        budget bounds the recompute a joiner signs up for in terms of
        the result bytes it ends up caching.
        """
        from repro.engine.rpc import lineage_to_json, sketch_to_json

        with self._recipes_lock:
            recipes = dict(self._recipes)
        ranked: "list[tuple[int, str, dict, int]]" = []
        for memo_key, recipe in recipes.items():
            entry = self.memo.peek(memo_key)
            if entry is None:
                with self._recipes_lock:
                    self._recipes.pop(memo_key, None)
                continue
            summary, _ = entry
            ranked.append(
                (recipe["hits"], memo_key, recipe, summary_size(summary))
            )
        ranked.sort(key=lambda item: (-item[0], item[1]))
        exported: list[dict] = []
        spent = 0
        for hits, _, recipe, size in ranked:
            if exported and spent + size > budget_bytes:
                break
            spent += size
            exported.append(
                {
                    "dataset": recipe["dataset"],
                    "sketch": sketch_to_json(recipe["sketch"]),
                    "lineage": lineage_to_json(recipe["lineage"]),
                    "hits": hits,
                    "bytes": size,
                }
            )
        return exported

    def import_entries(self, entries: list[dict]) -> int:
        """Prewarm: recompute each exported recipe over this worker's own
        shard slice, memoizing the partial so the first real query hits.

        Best-effort by design — a recipe whose dataset cannot be
        replayed here (source gone, sketch type unknown) is skipped, not
        fatal: prewarming is an optimization, never a correctness step.
        """
        from repro.engine.rpc import lineage_from_json, sketch_from_json

        warmed = 0
        for entry in entries:
            try:
                sketch = sketch_from_json(entry["sketch"])
                lineage = lineage_from_json(entry["lineage"])
                dataset_id = str(entry["dataset"])
                for _ in self.sketch_partials(dataset_id, sketch, lineage):
                    pass
            except (HillviewError, KeyError, TypeError, ValueError):
                # Prewarm is best-effort; a failed recipe (source gone,
                # unknown sketch, malformed entry) only means a cold
                # first query on this worker.
                continue
            warmed += 1
        self.entries_warmed += warmed
        return warmed

    def __repr__(self) -> str:
        return f"<Worker {self.name} cores={self.cores}>"


@dataclass
class _Emission:
    """One message on the root's single merge queue.

    ``kind`` discriminates: ``partial``/``done`` are the classic worker
    stream (``summary is None`` still marks completion), ``ledger``
    hands the root a steal handle for the attempt that just started,
    ``restart`` announces a revived worker re-running from scratch (its
    stolen results must be discarded — the fresh run recomputes every
    shard), and ``stolen`` delivers a thief's per-shard summaries.
    Routing them all through one queue gives the root a total order per
    worker: a ledger can never be observed before its run's restart
    marker.
    """

    worker_index: int
    summary: object | None  # None marks worker completion
    shards_done: int
    bytes: int
    error: BaseException | None = None  # a leaf failure, reported at the root
    cache_hit: bool = False  # served from the worker's memo cache
    kind: str = "partial"
    ledger: object | None = None  # kind="ledger": the steal handle
    stolen: "list[tuple[int, object]] | None" = None  # kind="stolen"
    epoch: int = 0  # steal epoch the stolen summaries belong to
    thief: int | None = None  # kind="stolen": the slot that did the work


class Cluster:
    """A set of workers, the root's redo log, and the computation cache."""

    def __init__(
        self,
        num_workers: int = 4,
        cores_per_worker: int = 4,
        aggregation_interval: float = 0.1,
        cache_entries: int = 64,
        cache_ttl_seconds: float = 2 * 3600.0,
        workers: Sequence[WorkerProtocol] | None = None,
    ):
        if workers is not None:
            self.workers: list[WorkerProtocol] = list(workers)
        else:
            if num_workers < 1:
                raise ValueError("a cluster needs at least one worker")
            self.workers = [
                Worker(
                    f"worker-{i}",
                    cores=cores_per_worker,
                    cache_entries=cache_entries,
                    cache_ttl_seconds=cache_ttl_seconds,
                )
                for i in range(num_workers)
            ]
        if not self.workers:
            raise ValueError("a cluster needs at least one worker")
        self.aggregation_interval = aggregation_interval
        #: Bumped by every grow/shrink; remote proxies stamp it onto each
        #: dataset RPC so workers can reject requests from a root that
        #: has not yet adopted the current assignment.
        if not hasattr(self, "placement_version"):
            self.placement_version = 0
        #: The rebalance barrier: a grow/shrink waits for in-flight
        #: sketch streams to drain on the old placement, and blocks new
        #: streams for the (brief) duration of the re-key, so no stream
        #: ever observes a half-moved fleet.
        self._stream_gate = threading.Condition()
        self._active_streams = 0
        self._rebalancing = False
        self.rebalances = 0
        for index, worker in enumerate(self.workers):
            worker.configure(index, len(self.workers), aggregation_interval)
        self.redo_log = RedoLog()
        self.computation_cache = ComputationCache()
        #: dataset id -> total row count, behind the same cache interface
        #: as every other memo tier (stats-bearing, evictable, honors the
        #: disable switch).  Datasets are immutable once created, so a
        #: counted total stays valid across crash and redo-log replay;
        #: repeated rowCount queries skip the shard walk.  An explicit
        #: dataset eviction still invalidates the entry — the invariant
        #: "evicting a dataset drops its cache entries at every tier" is
        #: worth more than the saved recount.
        self.row_count_cache: MemoCache[int] = MemoCache(
            max_entries=65536,
            sizer=lambda _: 32,
            name="row-counts",
            disableable=True,
        )
        self.total_bytes_to_root = 0
        self._ids = itertools.count()
        #: Distinguishes this root's counter-minted ids from another
        #: root's on a shared worker fleet (content-addressed ids need no
        #: such qualifier: equal id means equal content by construction).
        self._root_nonce = uuid.uuid4().hex[:8]
        self._lock = threading.Lock()
        # Live gauges read the cluster; a later cluster in the same
        # process takes the callbacks over (one serving cluster per
        # daemon), mirroring the scheduler's depth gauges.
        REGISTRY.gauge(
            "cluster.workers",
            "workers in the current placement",
            callback=lambda: len(self.workers),
        )
        REGISTRY.gauge(
            "cluster.placement_version",
            "bumped by every grow/shrink",
            callback=lambda: self.placement_version,
        )
        REGISTRY.gauge(
            "cluster.rebalances",
            "completed grow/shrink operations",
            callback=lambda: self.rebalances,
        )

    def cached_row_count(self, dataset_id: str) -> int | None:
        return self.row_count_cache.get(dataset_id)

    def cache_row_count(self, dataset_id: str, rows: int) -> None:
        self.row_count_cache.put(dataset_id, rows)

    def cache_stats(self) -> dict:
        """Every cache tier's counters, for the ``cache_stats`` RPC."""
        workers = []
        for worker in self.workers:
            try:
                workers.append(worker.cache_stats())
            except (WorkerUnavailableError, EngineError) as exc:
                workers.append({"name": worker.name, "error": str(exc)})
        return {
            "disabled": caches_disabled(),
            "root": {
                "computation": self.computation_cache.stats().to_json(),
                "rowCounts": self.row_count_cache.stats().to_json(),
            },
            "workers": workers,
        }

    def metrics_snapshot(self) -> dict:
        """Fleet metrics for the ``metricsSnapshot`` RPC: root-side
        counters plus every worker's live snapshot (remote workers
        report their daemon's queue depth and registry; unreachable
        ones degrade to an error entry, like :meth:`cache_stats`)."""
        workers = []
        for worker in self.workers:
            try:
                workers.append(worker.metrics_snapshot())
            except (WorkerUnavailableError, EngineError) as exc:
                workers.append({"name": worker.name, "error": str(exc)})
        computation = self.computation_cache.stats()
        return {
            "placementVersion": self.placement_version,
            "rebalances": self.rebalances,
            "bytesToRoot": self.total_bytes_to_root,
            "computationHitRate": round(computation.hit_rate, 4),
            "workers": workers,
        }

    def trace_dump(self, trace_id: str | None = None) -> list[dict]:
        """Collect span records from every worker daemon's ring buffer.

        The root's own recorder is merged in at the service layer —
        in-process workers share it, so pulling it here would
        double-count their spans.
        """
        spans: list[dict] = []
        for worker in self.workers:
            try:
                spans.extend(worker.trace_dump(trace_id))
            except (WorkerUnavailableError, EngineError):
                continue
        return spans

    def sweep_caches(self) -> int:
        """Purge TTL-expired entries at every local tier; remote workers
        run their own daemon-side sweep.  Returns entries dropped."""
        purged = (
            self.computation_cache.purge_stale()
            + self.row_count_cache.purge_stale()
        )
        for worker in self.workers:
            try:
                purged += worker.sweep_caches()
            except (WorkerUnavailableError, EngineError):
                continue
        return purged

    # ------------------------------------------------------------------
    # Fleet elasticity: grow/shrink with shard re-balancing
    # ------------------------------------------------------------------
    def _enter_stream(self) -> None:
        """Register an in-flight sketch stream; blocks during a rebalance."""
        with self._stream_gate:
            while self._rebalancing:
                self._stream_gate.wait()
            self._active_streams += 1

    def _exit_stream(self) -> None:
        with self._stream_gate:
            self._active_streams -= 1
            self._stream_gate.notify_all()

    @contextlib.contextmanager
    def _stream_guard(self):
        """Gate for every whole-fleet operation (load, map, row counts,
        sketch fan-outs): counted so a rebalance can drain them, blocked
        while one is re-keying the fleet.  Must never nest on one thread
        — the rebalance waits for the count to reach zero."""
        self._enter_stream()
        try:
            yield
        finally:
            self._exit_stream()

    def _begin_rebalance(self, drain_timeout: float = 300.0) -> None:
        """Block new sketch streams and wait for in-flight ones to drain
        on the old placement — the barrier that keeps every stream's
        merge consistent with exactly one slice assignment."""
        with self._stream_gate:
            if self._rebalancing:
                raise PlacementError("a rebalance is already in progress")
            self._rebalancing = True
            deadline = time.monotonic() + drain_timeout
            while self._active_streams:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._rebalancing = False
                    self._stream_gate.notify_all()
                    raise PlacementError(
                        f"{self._active_streams} sketch stream(s) did not "
                        f"drain within {drain_timeout:.0f}s; rebalance aborted"
                    )
                self._stream_gate.wait(timeout=min(remaining, 0.5))

    def _end_rebalance(self) -> None:
        with self._stream_gate:
            self._rebalancing = False
            self._stream_gate.notify_all()

    def grow(self, workers: "int | Sequence[WorkerProtocol]") -> int:
        """Add workers to a live cluster, re-balancing resident shards.

        ``workers`` is a count of fresh in-process workers to mint, or
        concrete :class:`WorkerProtocol` instances.  Existing workers
        keep their slice indices (minimizing shard movement); the new
        ones take indices ``n..m-1``.  Returns the new worker count.
        """
        if isinstance(workers, int):
            if workers < 1:
                raise ValueError("grow needs at least one new worker")
            template = self.workers[0]
            # Mint names no current worker holds: after a shrink the
            # low indices may be gone but the high names survive, and a
            # duplicate name would break shrink-by-name later.
            taken = {w.name for w in self.workers}
            added: list[WorkerProtocol] = []
            candidate = len(self.workers)
            while len(added) < workers:
                name = f"worker-{candidate}"
                candidate += 1
                if name in taken:
                    continue
                taken.add(name)
                added.append(
                    Worker(
                        name,
                        cores=template.cores,
                        cache_entries=getattr(
                            getattr(template, "store", None), "max_entries", 64
                        ),
                    )
                )
        else:
            added = list(workers)
            if not added:
                raise ValueError("grow needs at least one new worker")
        old = list(self.workers)
        new_indices: "list[int | None]" = list(range(len(old)))
        self._rebalance(old, new_indices, old + added)
        self._prewarm_joiners(old, added)
        return len(self.workers)

    def _prewarm_joiners(
        self,
        donors: "Sequence[WorkerProtocol]",
        joiners: "Sequence[WorkerProtocol]",
    ) -> None:
        """Replicate hot memo entries onto workers that just joined.

        Donors export their most-hit memo *recipes* (byte-budgeted);
        each joiner recomputes them over its own new shard slice so its
        first real query is served from the memo instead of a cold scan.
        Runs after the placement commit (recipes key on the new slice)
        and entirely best-effort: an unreachable donor or joiner costs
        warmth, never correctness.  ``REPRO_PREWARM_BYTES=0`` disables.
        """
        budget = prewarm_budget_bytes()
        if not budget or not donors or not joiners:
            return
        entries: list[dict] = []
        seen: set[str] = set()
        for donor in donors:
            try:
                exported = donor.export_hot_entries(budget)
            except (WorkerUnavailableError, EngineError):
                continue
            for entry in exported:
                key = json.dumps(
                    {"d": entry.get("dataset"), "s": entry.get("sketch")},
                    sort_keys=True,
                )
                if key in seen:
                    continue
                seen.add(key)
                entries.append(entry)
        if not entries:
            return
        warmed_counter = REGISTRY.counter(
            "cluster.prewarm.entries",
            "memo entries eagerly recomputed on joining workers",
        )
        for joiner in joiners:
            try:
                warmed_counter.inc(joiner.import_entries(entries))
            except (WorkerUnavailableError, EngineError):
                continue

    def shrink(self, selectors: "Sequence[int | str]") -> int:
        """Remove workers, re-balancing their shards onto the survivors.

        ``selectors`` name workers by index or by name.  At least one
        worker must survive.  Returns the new worker count.
        """
        removed = set()
        for selector in selectors:
            removed.add(self._find_worker(selector))
        if not removed:
            raise ValueError("shrink needs at least one worker to remove")
        if len(removed) >= len(self.workers):
            raise PlacementError("cannot shrink a cluster to zero workers")
        old = list(self.workers)
        survivors = [w for i, w in enumerate(old) if i not in removed]
        new_indices: "list[int | None]" = []
        next_index = 0
        for i in range(len(old)):
            if i in removed:
                new_indices.append(None)
            else:
                new_indices.append(next_index)
                next_index += 1
        self._rebalance(old, new_indices, survivors)
        return len(self.workers)

    def _find_worker(self, selector: "int | str") -> int:
        if isinstance(selector, int):
            if not 0 <= selector < len(self.workers):
                raise PlacementError(f"no worker at index {selector}")
            return selector
        for index, worker in enumerate(self.workers):
            if worker.name == selector:
                return index
        raise PlacementError(f"no worker named {selector!r}")

    @staticmethod
    def _inventory_shards(inventory: dict, dataset_id: str) -> int:
        entry = inventory.get(dataset_id) or {}
        return int(entry.get("shards", 0))

    def _transferable_datasets(
        self, inventories: "list[dict[str, dict]]"
    ) -> dict[str, int]:
        """Datasets whose shards move as bytes during a rebalance.

        Only *loaded* datasets (every worker marks them as materialized
        straight from a data source) that are fully resident on every
        worker qualify: their shards are exactly the dense tables
        ``load_slice`` produces, so streaming them is byte-identical to
        reloading.  The marker is worker-resident, so an administrative
        root whose redo log never saw the dataset still transfers it.
        Derived datasets are dropped and replayed from their (moved)
        parents — re-applying a map in memory is cheap next to
        re-reading a source, and replay is the §5.7-correct fallback for
        everything else.  Returns ``{dataset_id: total shard count}``.
        """
        if not inventories:
            return {}
        candidates = set(inventories[0])
        for inventory in inventories[1:]:
            candidates &= set(inventory)
        totals: dict[str, int] = {}
        for dataset_id in candidates:
            if not all(
                (inv.get(dataset_id) or {}).get("loaded")
                for inv in inventories
            ):
                continue  # derived or unclassifiable; replay on demand
            totals[dataset_id] = sum(
                self._inventory_shards(inv, dataset_id) for inv in inventories
            )
        return totals

    def _collect_inventories(
        self, old: "list[WorkerProtocol]"
    ) -> "list[dict[str, dict]]":
        inventories = []
        for worker in old:
            try:
                inventories.append(dict(worker.inventory()))
            except (WorkerUnavailableError, EngineError):
                inventories.append({})
        return inventories

    def _rebalance(
        self,
        old: "list[WorkerProtocol]",
        new_indices: "list[int | None]",
        new_workers: "list[WorkerProtocol]",
    ) -> None:
        """The in-process rebalance: move shard references directly.

        :class:`~repro.engine.remote.ProcessCluster` overrides this with
        the wire protocol (``transferShards``/``adoptShards``/
        ``rebalanceCommit``); the plan computation and the barrier are
        shared.
        """
        self._begin_rebalance()
        try:
            new_count = len(new_workers)
            inventories = self._collect_inventories(old)
            totals = self._transferable_datasets(inventories)
            # Stage every moving shard (references; this is one process)
            # before mutating any store, then commit worker by worker.
            staged: "list[dict[str, dict[int, Table]]]" = [
                {} for _ in range(new_count)
            ]
            for dataset_id, total in totals.items():
                resident: "list[list[int]]" = []
                for position, worker in enumerate(old):
                    count = self._inventory_shards(
                        inventories[position], dataset_id
                    )
                    resident.append(
                        [worker.index + p * worker.count for p in range(count)]
                    )
                moves = plan_moves(resident, new_indices, new_count)
                for (position, owner), globals_moved in moves.items():
                    worker = old[position]
                    assert isinstance(worker, Worker)
                    shards = worker.store.get(dataset_id) or []
                    bucket = staged[owner].setdefault(dataset_id, {})
                    for g in globals_moved:
                        local = (g - worker.index) // worker.count
                        if 0 <= local < len(shards):
                            bucket[g] = shards[local]
            for index, worker in enumerate(new_workers):
                assert isinstance(worker, Worker)
                worker.rebalance_store(
                    index, new_count, totals, staged[index]
                )
                worker.configure(index, new_count, self.aggregation_interval)
            for position, new_index in enumerate(new_indices):
                if new_index is None:
                    old[position].crash()  # drop the removed worker's state
            self.workers = list(new_workers)
            self.placement_version += 1
            self.rebalances += 1
        finally:
            self._end_rebalance()

    def resync_placement(self, observed_version: int | None = None) -> bool:
        """Adopt the fleet's current placement after a stale rejection.

        ``observed_version`` is the placement version the caller was at
        when its request failed: if another thread already adopted a
        newer placement in the meantime, the retry is immediately
        worthwhile — without the witness, the second of two concurrent
        resyncs would wait for a version the fleet never reaches.

        In-process clusters are always in sync (the placement only
        changes through this object), so the base implementation
        reports "nothing to adopt"; :class:`ProcessCluster` re-reads
        the fleet.
        """
        return False

    def _with_placement_retries(self, fn):
        """Run ``fn`` (a whole-fleet operation), re-syncing placement and
        retrying when the fleet rebalanced underneath it."""
        attempts = 0
        while True:
            observed = self.placement_version
            try:
                return fn()
            except StalePlacementError:
                attempts += 1
                if attempts > MAX_PLACEMENT_RETRIES or not self.resync_placement(
                    observed
                ):
                    raise
                time.sleep(min(0.05 * attempts, 0.5))

    # ------------------------------------------------------------------
    # Dataset lifecycle
    # ------------------------------------------------------------------
    def _new_dataset_id(self, prefix: str) -> str:
        return f"{prefix}-{self._root_nonce}-{next(self._ids)}"

    @staticmethod
    def _content_id(description: str) -> str:
        return "ds-" + hashlib.sha1(description.encode("utf-8")).hexdigest()[:12]

    def _load_dataset_id(self, source: DataSource) -> str:
        """A content-addressed id for a loaded source.

        Dataset ids name *content*, not creation events: every root (and
        every session on every root) loading the same source derives the
        same id, so workers of a shared fleet hold one copy of the shards
        and the redo logs of independent roots agree byte-for-byte.  The
        hash covers the source's stable ``spec()`` — the same string the
        redo log and the session dataset pool already key on.
        """
        try:
            spec = source.spec()
        except Exception:  # repro: ignore[B001] — exotic sources fall back safely
            return self._new_dataset_id("ds")
        return self._content_id(f"load|{spec}")

    def _map_dataset_id(self, parent_id: str, table_map: TableMap) -> str:
        """A content-addressed id for a derived dataset.

        Only *declarative* maps (the ones that can cross the worker wire)
        are content-addressed: their JSON encoding is the content.  Maps
        carrying Python callables get a per-root unique id instead — two
        different lambdas can share a ``spec()`` string, and colliding
        their ids would silently serve one map's shards for the other.
        """
        from repro.engine.rpc import ProtocolError, table_map_to_json

        try:
            import json as json_mod

            encoded = json_mod.dumps(table_map_to_json(table_map), sort_keys=True)
        except ProtocolError:
            return self._new_dataset_id("ds")
        return self._content_id(f"map|{parent_id}|{encoded}")

    def lineage(self, dataset_id: str) -> list:
        """The redo-log chain workers replay to rebuild ``dataset_id``."""
        return self.redo_log.lineage(dataset_id)

    def load(self, source: DataSource) -> "ClusterDataSet":
        """Load a data source, distributing partitions over workers."""
        dataset_id = self._load_dataset_id(source)
        self.redo_log.record_load(dataset_id, source)
        with self._stream_guard():
            self._load_shards(dataset_id, source)
        return ClusterDataSet(self, dataset_id)

    def _load_shards(self, dataset_id: str, source: DataSource) -> None:
        if all(isinstance(w, Worker) for w in self.workers):
            # In-process fast path: load once at the root, hand each
            # worker its slice (identical to the slice it would compute).
            # Content-addressed ids make a repeat load of the same source
            # a no-op when every worker still holds its shards.  The
            # TTL-aware get() matters: a stale entry must trigger one
            # shared reload here, not N per-worker replays later.
            if not all(
                w.store.get(dataset_id) is not None for w in self.workers  # type: ignore[union-attr]
            ):
                shards = source.load()
                for index, worker in enumerate(self.workers):
                    worker.put(  # type: ignore[union-attr]
                        dataset_id,
                        self._assigned(shards, index),
                        loaded=True,
                    )
        else:
            # Remote workers load the source themselves, in parallel: a
            # table cannot cross the process boundary, a description can.
            self._with_placement_retries(
                lambda: self._for_all_workers(
                    lambda i, w: w.load_source(dataset_id, source)
                )
            )

    def _assigned(self, shards: list[Table], worker_index: int) -> list[Table]:
        """Round-robin shard placement; deterministic, so replay agrees."""
        return shards[worker_index :: len(self.workers)]

    def _for_all_workers(self, fn) -> list:
        """Run ``fn(index, worker)`` for every worker in parallel, reviving
        and retrying a worker whose process died (§5.8).  A placement
        adopted meanwhile by another thread's resync would mix two fleets'
        results: that raises :class:`StalePlacementError` instead."""
        ctx = current_context()
        version = self.placement_version
        count = len(self.workers)
        with concurrent.futures.ThreadPoolExecutor(count) as pool:
            results = list(
                pool.map(
                    # Carry the caller's trace context onto the pool
                    # threads so worker RPCs parent under it.
                    lambda i: self._with_revival_in_context(ctx, i, fn),
                    range(count),
                )
            )
        if self.placement_version != version:
            raise StalePlacementError(
                f"the fleet moved to placement version "
                f"{self.placement_version} mid-request"
            )
        return results

    def _with_revival_in_context(self, ctx, index: int, fn):
        with use_context(ctx):
            return self._with_revival(index, fn)

    def _with_revival(self, index: int, fn):
        attempts = 0
        while True:
            workers = self.workers
            if index >= len(workers):
                raise StalePlacementError(
                    f"the fleet shrank to {len(workers)} workers mid-request"
                )
            try:
                return fn(index, workers[index])
            except WorkerUnavailableError:
                attempts += 1
                if attempts > MAX_WORKER_RETRIES or not self.revive_worker(index):
                    raise

    def materialize(self, worker_index: int, dataset_id: str) -> list[Table]:
        """The worker's shards, replaying redo-log lineage when evicted.

        Only meaningful for in-process workers — a remote worker's shards
        live in another process and cannot be handed out as objects.
        """
        worker = self.workers[worker_index]
        if not isinstance(worker, Worker):
            raise EngineError(
                f"worker {worker.name} is remote; its shards cannot be "
                "materialized in the root process"
            )
        return worker.shards(dataset_id, self.lineage(dataset_id))

    # ------------------------------------------------------------------
    # Fault injection and recovery
    # ------------------------------------------------------------------
    def kill_worker(self, index: int) -> None:
        """Crash-restart one worker: all its soft state is lost."""
        self.workers[index].crash()

    def revive_worker(self, index: int) -> bool:
        """Bring a dead worker back; in-process workers never die."""
        return False

    def evict_dataset(self, dataset_id: str, worker_index: int | None = None) -> None:
        """Evict a dataset's shards (memory pressure / TTL expiry).

        A full eviction also invalidates every dependent cache entry at
        the root tier (computation cache, row count); each worker drops
        its own memoized partials inside :meth:`WorkerProtocol.evict`.
        """
        if worker_index is not None:
            self.workers[worker_index].evict(dataset_id)
            return

        def evict_everywhere() -> None:
            for worker in self.workers:
                worker.evict(dataset_id)

        # Same rebalance discipline as every other whole-fleet op: the
        # stream guard keeps an in-process rebalance from re-planting
        # staged copies of the dataset being evicted, and the placement
        # retries keep an external rebalance from leaving some workers
        # holding shards while the root-tier caches are dropped below.
        with self._stream_guard():
            self._with_placement_retries(evict_everywhere)
        self.computation_cache.invalidate_dataset(dataset_id)
        self.row_count_cache.evict(dataset_id)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker resources (no-op for in-process workers)."""
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} workers={len(self.workers)} "
            f"cores={self.workers[0].cores} log={len(self.redo_log)} ops>"
        )


class ClusterDataSet(IDataSet):
    """A dataset resident (softly) on a cluster's workers."""

    def __init__(self, cluster: Cluster, dataset_id: str):
        self.cluster = cluster
        self.dataset_id = dataset_id

    @property
    def total_rows(self) -> int:
        cached = self.cluster.cached_row_count(self.dataset_id)
        if cached is not None:
            return cached
        lineage = self.cluster.lineage(self.dataset_id)
        with self.cluster._stream_guard():
            total = sum(
                self.cluster._with_placement_retries(
                    lambda: self.cluster._for_all_workers(
                        lambda i, w: w.shard_rows(self.dataset_id, lineage)
                    )
                )
            )
        self.cluster.cache_row_count(self.dataset_id, total)
        return total

    @property
    def schema(self):
        # Lazily walk workers in order: the schema needs only one shard,
        # so materializing every worker (replay included) would be waste.
        with self.cluster._stream_guard():
            return self.cluster._with_placement_retries(self._schema_once)

    def _schema_once(self):
        lineage = self.cluster.lineage(self.dataset_id)
        for index in range(len(self.cluster.workers)):
            schema = self.cluster._with_revival(
                index, lambda i, w: w.shard_schema(self.dataset_id, lineage)
            )
            if schema is not None:
                return schema
        raise EngineError(f"dataset {self.dataset_id!r} has no shards")

    def map(self, table_map: TableMap) -> "ClusterDataSet":
        new_id = self.cluster._map_dataset_id(self.dataset_id, table_map)
        self.cluster.redo_log.record_map(new_id, self.dataset_id, table_map)
        # The new dataset's lineage ends with the map op just recorded, so
        # "ensure" both applies the map and registers the result (§5.7).
        lineage = self.cluster.lineage(new_id)
        with self.cluster._stream_guard():
            self.cluster._with_placement_retries(
                lambda: self.cluster._for_all_workers(
                    lambda i, w: w.ensure(new_id, lineage)
                )
            )
        return ClusterDataSet(self.cluster, new_id)

    # ------------------------------------------------------------------
    # Sketch execution
    # ------------------------------------------------------------------
    def _worker_stream(
        self,
        worker_index: int,
        sketch: Sketch[R],
        lineage: list,
        token: CancellationToken | None,
        emissions: "queue.Queue[_Emission]",
        workers: "list[WorkerProtocol]",
        parent: "TraceContext | None" = None,
        stat: dict | None = None,
    ) -> None:
        """Drive one worker's partial stream, reviving it if it dies.

        Because partials are cumulative, a retry after revival simply
        *replaces* this worker's contribution at the root — no double
        counting (§5.8).  ``workers`` is this attempt's placement
        snapshot: if the cluster's live list diverges from it (the fleet
        rebalanced under a concurrent stream), revival is abandoned and
        the whole fan-out restarts on the new placement.

        ``parent`` is the fan-out's trace context, carried across the
        thread boundary so each attempt records its own span (revival
        retries show up as sibling spans under one fan-out); ``stat`` is
        this worker's slot in the query profile, updated in place.
        """
        cluster = self.cluster
        done = 0
        failure: BaseException | None = None
        attempts = 0
        tries = 0

        def post_ledger(ledger: object) -> None:
            # Rides the same queue as the partials so the root observes
            # it strictly after this attempt's restart marker (if any).
            emissions.put(
                _Emission(
                    worker_index, None, 0, 0, kind="ledger", ledger=ledger
                )
            )

        try:
            with use_context(parent):
                while True:
                    tries += 1
                    worker = workers[worker_index]
                    try:
                        with span(
                            "worker.stream",
                            worker=worker.name,
                            attempt=tries,
                        ):
                            for emission in worker.sketch_partials(
                                self.dataset_id,
                                sketch,
                                lineage,
                                token,
                                on_ledger=post_ledger,
                            ):
                                done = emission.shards_done
                                emissions.put(
                                    _Emission(
                                        worker_index,
                                        emission.summary,
                                        emission.shards_done,
                                        emission.bytes,
                                        cache_hit=emission.cache_hit,
                                    )
                                )
                    except WorkerUnavailableError as exc:
                        attempts += 1
                        cancelled = token is not None and token.cancelled
                        in_sync = (
                            worker_index < len(cluster.workers)
                            and cluster.workers[worker_index]
                            is workers[worker_index]
                        )
                        if (
                            not cancelled
                            and attempts <= MAX_WORKER_RETRIES
                            and in_sync
                            and cluster.revive_worker(worker_index)
                        ):
                            workers[worker_index] = cluster.workers[worker_index]
                            done = 0
                            # The fresh run recomputes *every* shard, so
                            # summaries stolen from the dead run must be
                            # dropped at the root or they double-count.
                            emissions.put(
                                _Emission(
                                    worker_index, None, 0, 0, kind="restart"
                                )
                            )
                            continue  # re-run against the revived worker
                        if not in_sync:
                            failure = StalePlacementError(
                                f"worker {worker.name} left the placement "
                                "while streaming; re-running on the new fleet"
                            )
                        else:
                            failure = exc
                    except Exception as exc:  # repro: ignore[B001] — surfaced at the root
                        failure = exc
                    break
        except BaseException as exc:  # repro: ignore[B001] — sentinel must still post
            failure = failure if failure is not None else exc
        finally:
            if stat is not None:
                stat["attempts"] = tries
            # The done sentinel is unconditional: without it the root's
            # merge loop would wait on this worker forever.
            emissions.put(_Emission(worker_index, None, done, 0, error=failure))

    def _steal_claim(
        self,
        thief_slot: int,
        victim_slot: int,
        ledger,
        epoch: int,
        budget: int,
        sketch: Sketch,
        snapshot: "list[WorkerProtocol]",
        emissions: "queue.Queue[_Emission]",
        parent: "TraceContext | None" = None,
    ) -> None:
        """One claim: cede unstarted slices from the victim, summarize
        them on the thief (root fallback if the thief cannot), post the
        per-shard summaries back onto the merge queue.

        Once :meth:`StealLedger.cede` returns parcels, the victim has
        irrevocably skipped those shards — so every path below must
        either produce their summaries or report an error that fails
        the query; quietly dropping parcels would corrupt the merge.
        """
        stolen: "list[tuple[int, object]] | None" = []
        error: BaseException | None = None
        try:
            with use_context(parent):
                with span(
                    "cluster.steal",
                    victim=snapshot[victim_slot].name,
                    thief=snapshot[thief_slot].name,
                    budget=budget,
                ):
                    parcels = ledger.cede(budget)
                    if parcels:
                        results = None
                        try:
                            results = snapshot[thief_slot].summarize_stolen(
                                sketch, parcels
                            )
                        except (WorkerUnavailableError, EngineError):
                            results = None
                        if results is None:
                            # The thief died (or cannot help) after the
                            # cede: the root summarizes the parcels
                            # itself — it holds the sketch and the
                            # shard bytes, so no slice goes missing.
                            REGISTRY.counter(
                                "cluster.steal.fallbacks",
                                "ceded slices summarized by the root after "
                                "a thief failure",
                            ).inc(len(parcels))
                            results = [
                                (
                                    parcel.global_index,
                                    sketch.summarize(parcel.resolve()),
                                )
                                for parcel in parcels
                            ]
                        stolen = results
        except BaseException as exc:
            stolen = None
            error = exc
            # The finally below posts the error emission *before* this
            # re-raise unwinds; the query fails loudly at the root and
            # the thread's traceback marks the unexpected path.
            raise
        finally:
            emissions.put(
                _Emission(
                    victim_slot,
                    None,
                    0,
                    0,
                    error=error,
                    kind="stolen",
                    stolen=stolen,
                    epoch=epoch,
                    thief=thief_slot,
                )
            )

    @staticmethod
    def _verify_steal_coverage(
        stolen_acc: "dict[int, dict[int, object]]",
        done_counts: "dict[int, int]",
        slot_totals: "list[int]",
        count: int,
        worker_stats: "list[dict]",
    ) -> None:
        """The stolen set must be exactly the victim's unfolded suffix.

        The shards the victim folded plus the stolen global indices
        must tile ``range(slot_totals[v])`` — anything else means a
        slice was double-summarized or silently dropped, and a loud
        failure beats byte-divergent results.
        """
        for victim, extras in stolen_acc.items():
            if not extras or worker_stats[victim].get("error"):
                continue
            positions = {(g - victim) // count for g in extras}
            expected = set(range(done_counts[victim], slot_totals[victim]))
            if positions != expected:
                raise EngineError(
                    f"work stealing left slot {victim} with shard coverage "
                    f"{sorted(positions)} over prefix {done_counts[victim]} "
                    f"of {slot_totals[victim]} shards"
                )

    def sketch_stream(
        self,
        sketch: Sketch[R],
        token: CancellationToken | None = None,
    ) -> Iterator[PartialResult[R]]:
        cluster = self.cluster
        cluster.redo_log.record_sketch(
            self.dataset_id, sketch.name, getattr(sketch, "seed", None)
        )
        cache_key = sketch.cache_key()
        if cache_key is not None:
            cached = cluster.computation_cache.get(self.dataset_id, cache_key)
            if cached is not None:
                yield PartialResult(1.0, cached, received_bytes=0, cache_hit=True)
                return

        # The whole fan-out restarts from scratch when the fleet
        # rebalances underneath it (a worker rejects our stale placement
        # version): partials already streamed remain valid progressive
        # approximations, and the retry's cumulative partials simply
        # replace them — the final merge is computed entirely on one
        # placement, so bytes stay identical across rebalances.
        attempts = 0
        final: R | None = None
        while True:
            observed = cluster.placement_version
            try:
                final = yield from self._sketch_attempt(sketch, token)
                break
            except StalePlacementError:
                attempts += 1
                if attempts > MAX_PLACEMENT_RETRIES or not cluster.resync_placement(
                    observed
                ):
                    raise
                time.sleep(min(0.05 * attempts, 0.5))

        if (
            cache_key is not None
            and final is not None
            and not (token is not None and token.cancelled)
        ):
            cluster.computation_cache.put(self.dataset_id, cache_key, final)

    def _sketch_attempt(
        self,
        sketch: Sketch[R],
        token: CancellationToken | None,
    ):
        """One fan-out over the current placement; returns the final
        merge (via StopIteration value) or raises
        :class:`StalePlacementError` if the fleet moved mid-flight."""
        cluster = self.cluster
        cluster._enter_stream()
        try:
            # The profile is collected unconditionally — a handful of
            # perf_counter reads per emission — so `profile: true`
            # replies work with tracing off; it is attached (and updated
            # in place) on every yielded partial and finalized before
            # the stream's StopIteration, i.e. before any drain loop
            # over this generator returns.
            attempt_started = time.perf_counter()
            profile: dict = {}
            bytes_counter = REGISTRY.counter(
                "cluster.bytes_to_root",
                "serialized summary bytes received by the root",
            )

            # Phase 1 (request broadcast + data materialization): every
            # worker resolves its shards, replaying the redo log if its
            # state was lost.
            lineage = cluster.lineage(self.dataset_id)
            ensure_started = time.perf_counter()
            with span("cluster.ensure", dataset=self.dataset_id) as ensure_ctx:

                def ensure_one(i, w):
                    # Explicit capture: _for_all_workers runs this on
                    # its own threads, which see no thread-local context.
                    with use_context(ensure_ctx):
                        return w.ensure(self.dataset_id, lineage)

                shard_counts = cluster._for_all_workers(ensure_one)
            profile["ensureSeconds"] = round(
                time.perf_counter() - ensure_started, 6
            )
            total_shards = sum(shard_counts) or 1

            # Phase 2: leaves summarize; aggregation nodes emit partials.
            snapshot = list(cluster.workers)
            if len(snapshot) != len(shard_counts):
                raise StalePlacementError(
                    "the fleet was resized between ensure and fan-out"
                )
            workers = range(len(snapshot))
            slot_totals = list(shard_counts)
            worker_stats: list[dict] = [
                {
                    "name": w.name,
                    "shards": 0,
                    "bytes": 0,
                    "emissions": 0,
                    "cacheHit": False,
                    "attempts": 0,
                }
                for w in snapshot
            ]
            profile["workers"] = worker_stats
            emissions: "queue.Queue[_Emission]" = queue.Queue()
            merge_seconds = 0.0
            fanout_started = time.perf_counter()
            with span(
                "cluster.fanout",
                dataset=self.dataset_id,
                sketch=sketch.name,
                workers=len(snapshot),
            ) as fan_ctx:
                threads = [
                    threading.Thread(
                        target=self._worker_stream,
                        args=(
                            i,
                            sketch,
                            lineage,
                            token,
                            emissions,
                            snapshot,
                            fan_ctx,
                            worker_stats[i],
                        ),
                        daemon=True,
                    )
                    for i in workers
                ]
                for thread in threads:
                    thread.start()

                latest: dict[int, R] = {}
                done_counts = dict.fromkeys(workers, 0)
                hit_workers: set[int] = set()
                finished = 0
                final: R | None = None
                leaf_error: BaseException | None = None

                # -- work stealing (straggler suppression) -------------
                # A slot whose stream finished is an idle thief; a slot
                # with a live ledger and enough unstarted shards is a
                # victim.  Claims run on their own threads and deliver
                # per-shard summaries through the same queue; the
                # restart marker bumps the victim's epoch so summaries
                # stolen from a dead run are discarded, never merged.
                steal_on = steal_enabled() and len(snapshot) > 1
                steal_after = steal_after_seconds(
                    cluster.aggregation_interval
                )
                ledgers: "dict[int, tuple[object, int]]" = {}
                epochs = dict.fromkeys(workers, 0)
                stolen_acc: "dict[int, dict[int, object]]" = {
                    i: {} for i in workers
                }
                finished_slots: set[int] = set()
                claims_in_flight: set[int] = set()
                idle_thieves: list[int] = []
                steal_threads: list[threading.Thread] = []
                outstanding = 0
                claims_counter = REGISTRY.counter(
                    "cluster.steal.claims",
                    "work-steal claims dispatched by roots",
                )
                slices_counter = REGISTRY.counter(
                    "cluster.steal.slices",
                    "shard slices reassigned to idle workers mid-sketch",
                )

                def pending_of(victim: int) -> int:
                    return (
                        slot_totals[victim]
                        - done_counts[victim]
                        - len(stolen_acc[victim])
                    )

                def maybe_steal() -> None:
                    nonlocal outstanding
                    if not steal_on or (token is not None and token.cancelled):
                        return
                    if time.perf_counter() - fanout_started < steal_after:
                        # Not a straggler yet: claims this early cost
                        # more than they save and break the victim's
                        # slice memoization.  The next emission (cadence
                        # partial or completion) re-evaluates.
                        return
                    while idle_thieves:
                        candidates = [
                            v
                            for v in workers
                            if v not in finished_slots
                            and v not in claims_in_flight
                            and v in ledgers
                            and pending_of(v) >= STEAL_MIN_PENDING
                        ]
                        if not candidates:
                            return
                        victim = max(candidates, key=pending_of)
                        thief = idle_thieves.pop()
                        ledger, epoch = ledgers[victim]
                        budget = max(
                            1,
                            min(STEAL_MAX_BUDGET, pending_of(victim) // 2),
                        )
                        claims_in_flight.add(victim)
                        outstanding += 1
                        claims_counter.inc()
                        thread = threading.Thread(
                            target=self._steal_claim,
                            args=(
                                thief,
                                victim,
                                ledger,
                                epoch,
                                budget,
                                sketch,
                                snapshot,
                                emissions,
                                fan_ctx,
                            ),
                            daemon=True,
                        )
                        steal_threads.append(thread)
                        thread.start()

                def merged_now() -> R:
                    # Worker-index order, not arrival order, and stolen
                    # summaries appended to their victim's prefix fold
                    # in global shard order: the final bytes must not
                    # depend on which worker emitted (or stole) first.
                    slots = set(latest) | {
                        v for v, extras in stolen_acc.items() if extras
                    }
                    values = []
                    for i in sorted(slots):
                        value = latest.get(i, sketch.zero())
                        extras = stolen_acc[i]
                        for g in sorted(extras):
                            value = sketch.merge(value, extras[g])
                        values.append(value)
                    return sketch.merge_all(values)

                def progress() -> float:
                    covered = sum(done_counts.values()) + sum(
                        len(extras) for extras in stolen_acc.values()
                    )
                    return covered / total_shards

                while finished < len(threads) or outstanding:
                    emission = emissions.get()
                    slot = emission.worker_index
                    if emission.kind == "ledger":
                        ledgers[slot] = (emission.ledger, epochs[slot])
                        maybe_steal()
                        continue
                    if emission.kind == "restart":
                        epochs[slot] += 1
                        ledgers.pop(slot, None)
                        stolen_acc[slot].clear()
                        done_counts[slot] = 0
                        continue
                    if emission.kind == "stolen":
                        outstanding -= 1
                        claims_in_flight.discard(slot)
                        if emission.thief is not None:
                            idle_thieves.append(emission.thief)
                        if emission.stolen is None:
                            # Ceded parcels exist but nobody could
                            # summarize them: surface instead of
                            # returning a silently incomplete merge.
                            if emission.error is not None and leaf_error is None:
                                leaf_error = emission.error
                        elif emission.stolen and emission.epoch == epochs[slot]:
                            stolen_acc[slot].update(dict(emission.stolen))
                            slices_counter.inc(len(emission.stolen))
                            worker_stats[slot]["ceded"] = len(stolen_acc[slot])
                            merge_started = time.perf_counter()
                            merged = merged_now()
                            merge_seconds += (
                                time.perf_counter() - merge_started
                            )
                            final = merged
                            yield PartialResult(
                                progress(),
                                merged,
                                received_bytes=0,
                                worker_cache_hits=len(hit_workers),
                                profile=profile,
                            )
                        maybe_steal()
                        continue
                    stat = worker_stats[slot]
                    done_counts[slot] = emission.shards_done
                    stat["shards"] = emission.shards_done
                    if emission.summary is None:
                        finished += 1
                        finished_slots.add(slot)
                        if emission.error is not None:
                            stat["error"] = str(emission.error)
                            if leaf_error is None:
                                leaf_error = emission.error
                        else:
                            idle_thieves.append(slot)
                            maybe_steal()
                        continue
                    offset = time.perf_counter() - fanout_started
                    stat.setdefault("firstEmitSeconds", round(offset, 6))
                    stat["lastEmitSeconds"] = round(offset, 6)
                    stat["bytes"] += emission.bytes
                    stat["emissions"] += 1
                    if emission.cache_hit:
                        stat["cacheHit"] = True
                        hit_workers.add(emission.worker_index)
                    latest[emission.worker_index] = emission.summary  # type: ignore[assignment]
                    with cluster._lock:
                        cluster.total_bytes_to_root += emission.bytes
                    bytes_counter.inc(emission.bytes)
                    merge_started = time.perf_counter()
                    merged = merged_now()
                    merge_seconds += time.perf_counter() - merge_started
                    final = merged
                    yield PartialResult(
                        progress(),
                        merged,
                        received_bytes=emission.bytes,
                        worker_cache_hits=len(hit_workers),
                        profile=profile,
                    )
                    # Cadence partials re-evaluate the straggler gate:
                    # thieves idle since before the gate opened would
                    # otherwise never fire.
                    maybe_steal()
                for thread in threads:
                    thread.join()
                for thread in steal_threads:
                    thread.join()
                if leaf_error is None:
                    self._verify_steal_coverage(
                        stolen_acc,
                        done_counts,
                        slot_totals,
                        len(snapshot),
                        worker_stats,
                    )
            last_emits = [
                s["lastEmitSeconds"]
                for s in worker_stats
                if s.get("lastEmitSeconds") is not None
            ]
            straggler = max(last_emits) if last_emits else 0.0
            fanout = time.perf_counter() - fanout_started
            profile["mergeSeconds"] = round(merge_seconds, 6)
            profile["stragglerSeconds"] = round(straggler, 6)
            # The last summary is in; what remains is each stream's
            # terminal frame crossing the wire (plus thread joins).
            profile["wireTailSeconds"] = round(fanout - straggler, 6)
            profile["fanoutSeconds"] = round(fanout, 6)
            profile["engineSeconds"] = round(
                time.perf_counter() - attempt_started, 6
            )
            profile["totalShards"] = total_shards
            profile["stolenSlices"] = sum(
                len(extras) for extras in stolen_acc.values()
            )
            if leaf_error is not None:
                raise leaf_error
            return final
        finally:
            cluster._exit_stream()

    def run(
        self, sketch: Sketch[R], token: CancellationToken | None = None
    ) -> SketchRun[R]:
        """Execute with statistics; cache hits are flagged by the stream
        itself (``drain`` copies them off the partials), so the cache is
        probed exactly once per execution and stats stay honest."""
        run = super().run(sketch, token)
        run.cancelled = token is not None and token.cancelled
        if run.value is None:
            raise EngineError("sketch execution produced no result")
        return run
