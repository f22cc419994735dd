"""In-memory spans around each layer's public entry points.

The program is not edited: :class:`Tracer` replaces a method on its class
with a wrapper for the duration of a traced round and restores it after.
A span is ``[name, start, end, parent, thread, request]``.  The parent is
the innermost open span on the same thread or, for a span that starts a
thread's work on behalf of another (the REST handler, the batch
evaluation), the span published under a shared key — the request id
header the gateway ignores, or the predict request's job name.  Spans
inherit their parent's request id, so all spans of one client request
share it.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.api.auth import TokenAuthority
from repro.restd.gateway import RestGateway
from repro.core.application.slurm_config_service import SlurmConfigService
from repro.hardware.node import SimulatedNode
from repro.serving.server import ChronusServer
from repro.simkernel.engine import Simulator
from repro.slurm.controller import Slurmctld
from repro.slurm.dbd import SlurmDbd
from repro.slurm.ha import SlurmctldPeer
from repro.slurm.plugins.eco import JobSubmitEco, parse_chronus_comment
from repro.slurm.sched_index import ClusterState
from repro.slurm.statesave import JournalRecord, StateSave

#: request header carrying the client's request id to the server thread
REQUEST_ID_HEADER = "x-perfbench-request"


@dataclass(frozen=True)
class Layer:
    name: str
    owner: type
    attr: str
    #: args -> key under which other threads may adopt this span as parent
    publish: Optional[Callable[[tuple], Any]] = None
    #: args -> key of the parent span when this thread has none open
    adopt: Optional[Callable[[tuple], Any]] = None
    #: (tracer, args, result) -> None; records counts at the boundary
    on_exit: Optional[Callable[["Tracer", tuple, Any], None]] = None


def _eco_exit(tracer: "Tracer", args: tuple, result: Any) -> None:
    plugin, desc = args[0], args[1]
    state = plugin.state.state
    opted = state == "activated" or (
        state == "user" and parse_chronus_comment(desc.comment)[0]
    )
    if opted:
        tracer.add("eco.opted")
        tracer.add("eco.applied" if plugin.last_served is not None else "eco.fallbacks")


def _predict_key(args: tuple) -> tuple:
    return ("predict", args[1].job_name)


def _batch_key(args: tuple) -> tuple:
    return ("predict", args[1][0].job_name) if args[1] else None


def _rid_key(args: tuple) -> tuple:
    return ("rid", args[1].headers.get(REQUEST_ID_HEADER))


#: the layers, outermost first; names are the per-layer metric prefixes
LAYERS = (
    Layer("restd.handle", RestGateway, "handle", adopt=_rid_key),
    Layer("auth.require", TokenAuthority, "require"),
    Layer("ctld.submit", Slurmctld, "submit"),
    Layer("eco.submit", JobSubmitEco, "job_submit", on_exit=_eco_exit),
    Layer("serving.predict", ChronusServer, "predict", publish=_predict_key),
    Layer(
        "serving.compute", SlurmConfigService, "predict_batch", adopt=_batch_key,
        on_exit=lambda t, a, r: t.add("serving.batched", len(a[1])),
    ),
    Layer("journal.append", StateSave, "append"),
    Layer("journal.scan", StateSave, "read_records"),
    Layer("journal.scan", StateSave, "min_journal_seq"),
    Layer(
        "dbd.pump", SlurmDbd, "pump",
        on_exit=lambda t, a, r: t.add("dbd.records_applied", r),
    ),
    Layer(
        "sched.pass", ClusterState, "backfill_pass",
        on_exit=lambda t, a, r: (
            t.add("sched.jobs_considered", len(a[1])), t.add("sched.placed", len(r))
        ),
    ),
    Layer("node.start", SimulatedNode, "start_workload"),
    Layer("node.stop", SimulatedNode, "stop_workload"),
    Layer(
        "engine.run", Simulator, "run",
        on_exit=lambda t, a, r: t.add("engine.events", r),
    ),
    Layer(
        "ha.takeover", SlurmctldPeer, "takeover",
        on_exit=lambda t, a, r: t.add(
            "ha.replayed_records", a[0].ctld.last_restore_replayed
        ),
    ),
)

#: per-layer metric prefixes, in report order
LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))


class Tracer:
    """Collects spans and boundary counts for one traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._open: dict = {}
        self._lock = threading.Lock()
        self._restore: list = []

    # ------------------------------------------------------------------
    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, adopt_key: Any, publish_key: Any, request: Any = None) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._open.get(adopt_key) if adopt_key is not None else None
        if parent is not None:
            request = parent[5]
        rec = [name, 0.0, 0.0, parent, threading.get_ident(), request]
        self.spans.append(rec)
        if publish_key is not None:
            self._open[publish_key] = rec
        stack.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec: list, publish_key: Any) -> None:
        rec[2] = time.perf_counter()
        self._stack().pop()
        if publish_key is not None:
            self._open.pop(publish_key, None)

    @contextmanager
    def span(self, name: str, request_id: str):
        """A client request's span, from the benchmark's own code."""
        key = ("rid", request_id)
        rec = self._enter(name, None, key, request_id)
        try:
            yield rec
        finally:
            self._exit(rec, key)

    # ------------------------------------------------------------------
    def _wrap(self, layer: Layer, func: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            publish = layer.publish(args) if layer.publish else None
            adopt = layer.adopt(args) if layer.adopt else None
            rec = tracer._enter(layer.name, adopt, publish)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(rec, publish)
            if layer.on_exit is not None:
                layer.on_exit(tracer, args, result)
            return result

        return traced

    def _count_decodes(self, func: Callable) -> Callable:
        tracer = self

        def counted(cls, line):
            stack = tracer._stack()
            if stack and stack[-1][0] == "journal.scan":
                tracer.add("journal.records_decoded")
            return func(cls, line)

        return counted

    def install(self) -> None:
        for layer in LAYERS:
            raw = layer.owner.__dict__[layer.attr]
            self._restore.append((layer.owner, layer.attr, raw))
            setattr(layer.owner, layer.attr, self._wrap(layer, raw))
        raw = JournalRecord.__dict__["decode"]
        self._restore.append((JournalRecord, "decode", raw))
        JournalRecord.decode = classmethod(self._count_decodes(raw.__func__))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def layer_table(spans: list) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds."""
    children: defaultdict[int, list] = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[id(rec[3])].append((rec[1], rec[2]))
    table: dict[str, dict] = {}
    for rec in spans:
        row = table.setdefault(rec[0], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        busy = rec[2] - rec[1]
        row["calls"] += 1
        row["busy_s"] += busy
        row["self_s"] += busy - _covered(children.get(id(rec), []), rec[1], rec[2])
    return table


def unaccounted_s(spans: list, thread: int, wall_s: float) -> float:
    """Wall time of the client thread that no root span covers."""
    roots = [(r[1], r[2]) for r in spans if r[3] is None and r[4] == thread]
    return wall_s - sum(stop - start for start, stop in roots)


def span_records(spans: list) -> list:
    """Spans as JSON rows: ``[id, name, start, end, parent_id, thread, request]``."""
    ids = {id(rec): i for i, rec in enumerate(spans)}
    return [
        [ids[id(r)], r[0], r[1], r[2], ids.get(id(r[3])) if r[3] is not None else None, r[4], r[5]]
        for r in spans
    ]
