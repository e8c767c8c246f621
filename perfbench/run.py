"""Benchmark of the spawned-worker Hillview tier.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_scan --seed 1 --seconds 20 --trace 0

The root tier (two spawned ``repro worker`` daemons of one core each
behind a ``ServiceServer`` and a ``GatewayServer``) runs in a child
process, ``perfbench/tier.py``; this process is the load generator: one
closed-loop client, at most two connections.  Workloads, their sizes and
every metric's unit and layer are declared in ``perfbench/catalog.json``.

With ``--trace 0`` the run launches the tier three times (``setup_s`` is
the median launch), measures a third of ``--seconds`` on each launch and
reports the end-to-end metrics.  With ``--trace 1`` it measures, on the
last launch, half the time untraced and half traced (``profile: true``
and a trace context on every query, spans recorded around every call),
then runs the layer ladder (``ladder.py``) and reports the per-layer
metrics; spans are written to ``.perfbench_out/``.  Latency and
throughput come from the calm slices of the window (``session.Window``).
Every result is checked byte for byte against a reference computed in
process from the same shards.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Tier launches per run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops: list, seconds: float) -> dict:
    good = [op for op in ops if op.error is None]
    if not good:
        return {}
    first = [op.first_s * 1000.0 for op in good]
    done = [op.done_s * 1000.0 for op in good]
    return {
        "first_p50_ms": percentile(first, 50),
        "first_p95_ms": percentile(first, 95),
        "done_p50_ms": percentile(done, 50),
        "done_p95_ms": percentile(done, 95),
        "ops_per_s": len(good) / seconds,
    }


def describe(label: str, window) -> str:
    """One line comparing the calm slices with the whole window."""
    calm, seconds, steal = window.calm()
    whole = end_to_end(window.ops, sum(s for _, s, _ in window.slices))
    return (
        f"{label}: {len(window.ops)} ops in {len(window.slices)} slices, "
        f"{window.steal():.1%} of CPU time stolen; metrics use the "
        f"{len(calm)} ops of the calm slices ({steal:.1%} stolen); whole "
        f"window: done p50 {whole.get('done_p50_ms', 0):.3f} ms, "
        f"p95 {whole.get('done_p95_ms', 0):.3f} ms"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"no Hillview sources under {SRC}; run from a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    from data import dataset_dir
    from session import Session, Window

    with open(os.path.join(HERE, "catalog.json")) as f:
        catalog = json.load(f)
    if args.workload not in catalog["workloads"]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = catalog["workloads"][args.workload]
    directory = dataset_dir(
        ROOT, args.workload, spec["rows"], spec["partitions"], args.seed
    )
    run = Session(catalog, args.workload, args.seed, directory)
    try:
        setups, rss = [], []
        if args.trace:
            setups = [run.setup() for _ in range(SETUPS)]
            run.connect_gateway()
            run.prime()
            from ladder import Meter, Spans, per_layer, write_trace

            run.spans = Spans()
            untraced = run.window(args.seconds / 2)
            meter = Meter(run.tcp.client)
            traced = run.window(args.seconds / 2, traced=True)
            counts = meter.stop()
            windows = {"untraced": untraced, "traced": traced}
        else:
            # Each launch measures its share of the window, so a tier
            # instance that happens to run slow or hold more memory is
            # one of three samples rather than the whole run.
            shares = []
            for _ in range(SETUPS):
                setups.append(run.setup())
                run.connect_gateway()
                run.prime()
                shares.append(run.window(args.seconds / SETUPS))
                rss.append(run.tier.rss_mb())
            windows = {"window": Window.joined(shares)}
        ops = [op for window in windows.values() for op in window.ops]
        executed = run.primed + ops
        verdicts = [run.checker.check(op) for op in executed]
        failed = verdicts.count(False)
        if args.trace and not failed:
            metrics = per_layer(run, traced, untraced, counts, args.seed)
            units = catalog["per_layer"]
        elif not args.trace:
            calm, seconds, _ = windows["window"].calm()
            metrics = end_to_end(calm, seconds)
            metrics["setup_s"] = statistics.median(setups)
            metrics["rss_mb"] = statistics.mean(rss)
            units = catalog["end_to_end"]
        else:
            metrics, units = {}, {}
        if args.trace:
            out = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, f"{args.workload}-seed{args.seed}.trace.json")
            write_trace(
                path, run.spans, traced.ops, run.tcp.client.trace_dump(), metrics
            )
            run.notes.append(f"spans written to {os.path.relpath(path, ROOT)}")
    finally:
        run.close()

    for op in executed:
        if op.error is not None:
            print(f"FAILED op: {op.error}")
    print(
        f"{args.workload} seed={args.seed}: {len(executed)} ops attempted, "
        f"{failed} failed (failed_frac {failed / len(executed):.4f})"
    )
    for label, window in windows.items():
        print(describe(label, window))
    for note in run.notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.4f} {units[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(executed),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]["unit"]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
