#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rest-mixed --seed 1 --seconds 20 --trace 0

A run repeats whole rounds of the seeded workload until ``--seconds``
have passed.  Each round builds the stack, drives the workload, checks
the outcome and digests the final state; every round of a run must give
the same digest.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Details (host record, per-round figures, spans, the per-layer self-time
table) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: rounds a run always makes, whatever ``--seconds`` says
MIN_ROUNDS = 3
#: no new round starts after this much wall time (the run must end < 180 s)
HARD_STOP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "submit_p50_ms": "ms",
    "submit_p90_ms": "ms",
    "list_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _jobs_per_s(rounds: list) -> float:
    """Jobs done over the measured wall time of all the rounds."""
    return sum(r.jobs_done for r in rounds) / sum(r.wall_s for r in rounds)


def end_to_end(rounds: list) -> dict:
    """Medians pool the samples of every round.  The p90 is the median
    over rounds of each round's p90 (at least ten submits beyond it), so
    one round hit by a host stall does not move the tail.

    Set-up is the mean over rounds of each round's median set-up: the
    host runs a whole round's set-ups at one of two speeds, and a median
    over rounds jumps between them with the share of slow rounds, where
    a mean moves in proportion to it."""
    return {
        "setup_s": statistics.mean(r.setup_s for r in rounds),
        "jobs_per_s": _jobs_per_s(rounds),
        "submit_p50_ms": statistics.median(ms for r in rounds for ms in r.submit_ms),
        "submit_p90_ms": statistics.median(_percentile(r.submit_ms, 0.9) for r in rounds),
        "list_p50_ms": statistics.median(ms for r in rounds for ms in r.list_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, result, client: int) -> dict:
    """One traced round's per-layer figures."""
    from perfbench.trace import LAYER_NAMES, layer_table, unaccounted_s

    table = layer_table(tracer.spans)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def row(name: str) -> dict:
        return table.get(name, empty)

    c = tracer.counts
    m: dict = {}
    for name in LAYER_NAMES:
        if name == "serving.compute":
            continue
        m[f"{name}.calls"] = row(name)["calls"]
        m[f"{name}.busy_s"] = row(name)["busy_s"]
        m[f"{name}.self_s"] = row(name)["self_s"]
    compute = row("serving.compute")
    m["restd.wire_s"] = row("client.request")["self_s"]
    m["eco.applied_frac"] = c["eco.applied"] / c["eco.opted"] if c["eco.opted"] else 0.0
    m["eco.fallbacks"] = c["eco.fallbacks"]
    m["serving.compute_s"] = compute["busy_s"]
    m["serving.wait_s"] = row("serving.predict")["busy_s"] - compute["busy_s"]
    m["serving.batch_mean"] = c["serving.batched"] / compute["calls"] if compute["calls"] else 0.0
    m["journal.records_decoded"] = c["journal.records_decoded"]
    m["dbd.records_applied"] = c["dbd.records_applied"]
    m["dbd.decoded_per_applied"] = (
        c["journal.records_decoded"] / c["dbd.records_applied"] if c["dbd.records_applied"] else 0.0
    )
    m["sched.jobs_considered"] = c["sched.jobs_considered"]
    m["sched.placed_per_considered"] = (
        c["sched.placed"] / c["sched.jobs_considered"] if c["sched.jobs_considered"] else 0.0
    )
    m["engine.events"] = c["engine.events"]
    m["ha.replayed_records"] = c["ha.replayed_records"]
    m["workflow.dep_releases"] = result.counts.get("workflow.dep_releases", 0)
    m["workflow.reschedules"] = result.counts.get("workflow.reschedules", 0)
    for part, value in result.setup_parts.items():
        m[f"setup.{part}"] = value
    m["trace.unaccounted_s"] = unaccounted_s(
        [s for s in tracer.spans if s[1] >= result.started], client, result.wall_s
    )
    m["trace.spans"] = len(tracer.spans)
    return m


def exact_counts(m: dict) -> dict:
    """The per-layer figures that must repeat exactly between traced rounds."""
    exact = (".calls", "records_decoded", "records_applied", "jobs_considered",
             "engine.events", "replayed_records", "fallbacks", "workflow.", "trace.spans")
    return {k: v for k, v in m.items() if any(tag in k for tag in exact)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="round size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from repro import telemetry
    from perfbench.host import host_record, reference_loop_s
    from perfbench.trace import Tracer, layer_table, span_records
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    state_root = os.path.join(OUT, f"state-{os.getpid()}")
    os.makedirs(state_root, exist_ok=True)
    host = host_record(state_root)
    host["ref_loop_before_s"] = reference_loop_s()

    client = threading.get_ident()
    plain, traced, layers, failures = [], [], [], []
    last_tracer = None
    started = time.perf_counter()
    try:
        index = 0
        while True:
            trace_this = args.trace == 1 and index % 2 == 1
            telemetry.reset()
            gc.collect()
            workdir = os.path.join(state_root, f"round{index}")
            tracer = Tracer() if trace_this else None
            try:
                if tracer is not None:
                    with tracer:
                        result = workload(args.seed, args.scale, workdir, tracer)
                else:
                    result = workload(args.seed, args.scale, workdir, None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            failures += [f"round {index}: {f}" for f in result.failures]
            if tracer is not None:
                traced.append(result)
                layers.append(per_layer(tracer, result, client))
                last_tracer = tracer
            else:
                plain.append(result)
            index += 1
            elapsed = time.perf_counter() - started
            enough = len(plain) >= MIN_ROUNDS if args.trace == 0 else min(len(plain), len(traced)) >= 2
            if elapsed >= HARD_STOP_S or (enough and elapsed >= args.seconds):
                break
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    host["ref_loop_after_s"] = reference_loop_s()

    everything = plain + traced
    digests = sorted({r.digest for r in everything})
    if len(digests) != 1:
        failures.append(f"final-state digest differs between rounds: {digests}")
    if any(exact_counts(m) != exact_counts(layers[0]) for m in layers):
        failures.append("traced per-layer counts differ between traced rounds")

    if args.trace == 0:
        metrics = end_to_end(plain)
        units = END_TO_END_UNITS
    else:
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_frac"] = 1.0 - _jobs_per_s(traced) / _jobs_per_s(plain)
        units = {k: _layer_unit(k) for k in metrics}

    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "host": host, "digest": digests,
        "failures": failures,
        "rounds": [
            {"traced": r in traced, "setup_s": r.setup_s, "setup_parts": r.setup_parts,
             "wall_s": r.wall_s, "jobs_done": r.jobs_done, "jobs_per_s": r.jobs_per_s,
             "submits": len(r.submit_ms), "lists": len(r.list_ms),
             "submit_p50_ms": statistics.median(r.submit_ms),
             "submit_p90_ms": _percentile(r.submit_ms, 0.9),
             "list_p50_ms": statistics.median(r.list_ms)}
            for r in everything
        ],
        "metrics": metrics,
    }
    if last_tracer is not None:
        detail["self_time_table"] = layer_table(last_tracer.spans)
        detail["unaccounted_s"] = layers[-1]["trace.unaccounted_s"]
        detail["spans"] = span_records(last_tracer.spans)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh)

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"digest: {digests[0] if len(digests) == 1 else digests}")
    for failure in failures:
        print(f"FAILED: {failure}")
    correct = not failures and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("_per_applied") or name.endswith("_per_considered"):
        return "ratio"
    if name.endswith("batch_mean"):
        return "requests"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
