"""Seeded input data and the in-process reference the benchmark checks against.

Each workload reads a partitioned ``.hvc`` flights dataset.  The files
are generated from the run's seed once and reused by later runs with the
same seed after their sizes are checked against the dataset's
``_snapshot.json`` manifest; a run with another seed replaces them, so a
checkout holds at most one dataset per workload.

:class:`Reference` loads the same shards into the benchmark process and
computes every expected result the way the tier does: ``summarize`` per
shard, each worker folding its round-robin share in shard order, then the
root folding the workers in index order (``merge_all`` at both levels).
Misra-Gries merges are only associative up to ties at capacity, so the
reference must fold in exactly the engine's order to be byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np

from repro.data.flights import generate_flights
from repro.engine.rpc import summary_to_json
from repro.errors import HillviewError
from repro.storage import columnar


def canonical(payload: object) -> str:
    """The comparison form of a result payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dataset_dir(root: str, workload: str, rows: int, partitions: int, seed: int) -> str:
    """Generate (or reuse) the workload's dataset; returns its directory."""
    base = os.path.join(root, ".perfbench_data", workload)
    stamp = {"rows": rows, "partitions": partitions, "seed": seed}
    stamp_path = os.path.join(base, "stamp.json")
    directory = os.path.join(base, "hvc")
    try:
        with open(stamp_path) as f:
            if json.load(f) == stamp:
                manifest = columnar.dataset_manifest(directory)
                for filename in manifest:
                    columnar.verify_partition(directory, filename, manifest)
                return directory
    except (OSError, ValueError, HillviewError):
        pass
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(directory)
    per_part, extra = divmod(rows, partitions)
    for i in range(partitions):
        table = generate_flights(
            per_part + (1 if i < extra else 0), seed=seed, shard_id=f"flights-{i:04d}"
        )
        columnar.write_table(table, os.path.join(directory, f"part-{i:05d}.hvc"))
        if i == 0:
            with open(os.path.join(directory, "_schema.json"), "w") as f:
                f.write(table.schema.to_json_string())
    columnar.write_manifest(directory)
    with open(stamp_path, "w") as f:
        json.dump(stamp, f)
    # Flush now, so writeback of the new files does not run during setup
    # or the timed window.
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as f:
            os.fsync(f.fileno())
    return directory


class Reference:
    """Expected results computed in process from the dataset's shards."""

    def __init__(self, directory: str, workers: int):
        manifest = columnar.dataset_manifest(directory)
        self.files = [os.path.join(directory, name) for name in sorted(manifest)]
        self.bytes = sum(manifest.values())
        self.workers = workers
        self.read_seconds = []
        self.shards = []
        for path in self.files:
            started = time.perf_counter()
            self.shards.append(columnar.read_table(path))
            self.read_seconds.append(time.perf_counter() - started)
        self.rows = sum(shard.num_rows for shard in self.shards)
        self._distinct: dict[str, np.ndarray] = {}

    def selection_key(self, predicate: dict) -> str:
        """Predicates that select the same rows share a key.

        A threshold comparison is keyed by how many distinct column values
        lie below its threshold rather than by the threshold itself, so
        filters whose thresholds differ only between two data values reuse
        one reference computation.
        """
        side = {">": "right", "<=": "right", ">=": "left", "<": "left"}.get(
            predicate.get("op")
        )
        if predicate.get("type") != "column" or side is None:
            return canonical(predicate)
        column = predicate["column"]
        if column not in self._distinct:
            self._distinct[column] = np.unique(
                np.concatenate(
                    [
                        shard.column(column).numeric_values(shard.members.indices())
                        for shard in self.shards
                    ]
                )
            )
        cut = np.searchsorted(self._distinct[column], float(predicate["value"]), side)
        return canonical([column, predicate["op"], int(cut)])

    def compute(self, sketch, table_map=None) -> "Computed":
        """Summarize every shard and fold them in the engine's order."""
        shards = self.shards
        if table_map is not None:
            shards = [table_map.apply(shard) for shard in shards]
        summaries, seconds = [], []
        for shard in shards:
            started = time.perf_counter()
            summaries.append(sketch.summarize(shard))
            seconds.append(time.perf_counter() - started)
        started = time.perf_counter()
        per_worker = [
            sketch.merge_all(summaries[w :: self.workers]) for w in range(self.workers)
        ]
        result = sketch.merge_all(per_worker)
        merge_seconds = time.perf_counter() - started
        critical = max(sum(seconds[w :: self.workers]) for w in range(self.workers))
        return Computed(
            canonical(summary_to_json(result)),
            result,
            sum(seconds),
            critical,
            merge_seconds,
        )


class Computed:
    """One reference result plus the leaf and merge time it took."""

    def __init__(self, text, summary, leaf_s, critical_s, merge_s):
        self.text = text
        self.summary = summary
        self.leaf_s = leaf_s
        self.critical_s = critical_s
        self.merge_s = merge_s
