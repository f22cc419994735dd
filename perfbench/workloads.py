"""The three closed-loop workloads, one function per round.

A round builds the stack from scratch (timed as set-up), drives one
seeded workload through it from a single client thread, checks the
outcome and returns a :class:`RoundResult`.  Simulated time moves only
in fixed steps the client thread takes under ``RestGateway.lock`` (or,
where no gateway exists, without a lock), so every round of a seed does
the same simulated work and only wall time varies.

The seed shuffles and assigns a fixed mix of inputs (kinds, binaries,
sizes, runtimes) rather than drawing the mix itself, so two seeds ask
for nearly the same amount of work.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.api.auth import TokenAuthority
from repro.api.types import JobInfo
from repro.core.domain.errors import NoLeaderError
from repro.hardware.node import SimulatedNode, Workload
from repro.restd.gateway import RestGateway
from repro.restd.http import HttpRequest
from repro.restd.server import RestdServer
from repro.simkernel.engine import Simulator
from repro.slurm.config import SlurmConfig
from repro.slurm.controller import Slurmctld
from repro.slurm.ha import DRILL_BINARY, DrillPlane, build_drill_plane
from repro.slurm.job import JobDescriptor, JobState
from repro.slurm.nodemgr import ApplicationRegistry, Slurmd
from repro.slurm.plugins.eco import parse_chronus_comment
from repro.slurm.statesave import StateSave
from repro.slurm.workflow import workflow_rollup

from perfbench import stack
from perfbench.trace import REQUEST_ID_HEADER, Tracer

#: round sizes; ``tiny`` is for the benchmark's own tests
SCALES = {
    "full": {
        "rest-mixed": {"jobs": 120, "list_every": 6, "nodes": 8, "step_s": 1.0},
        "dag-failover": {"diamonds": 25, "interval_s": 6.0, "list_every": 6, "step_s": 1.0},
        "fleet-backlog": {"jobs": 1500, "bursts": 30, "step_s": 15.0, "nodes": 128},
    },
    "tiny": {
        "rest-mixed": {"jobs": 12, "list_every": 4, "nodes": 4, "step_s": 1.0},
        "dag-failover": {"diamonds": 4, "interval_s": 6.0, "list_every": 10, "step_s": 1.0},
        "fleet-backlog": {"jobs": 40, "bursts": 4, "step_s": 15.0, "nodes": 16},
    },
}

#: set-ups per round; the round reports their median
SETUP_REPEATS = 5
SECRET = "perfbench-secret"
PAGE = "/slurm/v1/jobs?limit=100"
TERMINAL = ("COMPLETED", "FAILED", "CANCELLED", "TIMEOUT")


@dataclass
class RoundResult:
    #: wall time of each set-up of the round
    setup_samples: list
    setup_parts: dict
    wall_s: float = 0.0
    jobs_done: int = 0
    submit_ms: list = field(default_factory=list)
    list_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    #: perf_counter at the start of the measured phase
    started: float = 0.0

    @property
    def setup_s(self) -> float:
        return statistics.median(self.setup_samples)

    @property
    def jobs_per_s(self) -> float:
        return self.jobs_done / self.wall_s


def _setup(build: Callable[[str], tuple[Any, dict]], workdir: str) -> tuple[Any, RoundResult]:
    """Build the stack ``SETUP_REPEATS`` times, keeping the last build.

    ``build`` returns the stack (with a ``close`` method) and its timed
    parts; the round keeps every set-up time and the medians of the parts.
    """
    totals, parts = [], []
    for k in range(SETUP_REPEATS):
        if k:
            env.close()
        started = time.perf_counter()
        env, part = build(os.path.join(workdir, f"setup{k}"))
        totals.append(time.perf_counter() - started)
        parts.append(part)
    medians = {key: statistics.median(p[key] for p in parts) for key in parts[0]}
    return env, RoundResult(setup_samples=totals, setup_parts=medians)


def _span(tracer: Optional[Tracer], name: str, request_id: str):
    return tracer.span(name, request_id) if tracer is not None else nullcontext()


def _shuffled_mix(rng: random.Random, values: list, n: int) -> list:
    """``n`` items cycling through ``values``, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _check_eco(jobs, failures: list) -> None:
    """Opted-in jobs carry the predicted frequency; the rest none."""
    wrong = [
        j.job_id for j in jobs
        if parse_chronus_comment(j.descriptor.comment)[0]
        != bool(j.descriptor.cpu_freq_min)
    ]
    if wrong:
        failures.append(f"eco not applied as opted on {len(wrong)} job(s)")


def _check_accounting(ctld: Slurmctld, dbd, failures: list) -> None:
    if len(dbd.db) != len(ctld.accounting):
        failures.append(f"dbd rows {len(dbd.db)} != ctld rows {len(ctld.accounting)}")
    if abs(dbd.db.total_energy_j() - ctld.accounting.total_energy_j()) > 1e-6:
        failures.append("dbd joules differ from the controller's")


def _check_jobs(ctld: Slurmctld, names: dict[str, int], failures: list) -> None:
    """0 lost, 0 duplicated."""
    seen = [j.descriptor.name for j in ctld.jobs.values()]
    if len(seen) != len(set(seen)):
        failures.append(f"{len(seen) - len(set(seen))} duplicated job(s)")
    lost = [n for n, jid in names.items()
            if jid not in ctld.jobs or not ctld.jobs[jid].state.is_terminal]
    if lost:
        failures.append(f"{len(lost)} job(s) lost or not terminal")


def _accounted(db, names: dict[str, int]) -> int:
    """Jobs with a terminal accounting row: the jobs that count as done."""
    rows = {r.job_id for r in db.all() if r.state in TERMINAL}
    return sum(1 for jid in names.values() if jid in rows)


# ----------------------------------------------------------------------
# the HA plane with the eco plugin over the prediction fleet
# ----------------------------------------------------------------------
@dataclass
class _EcoPlane:
    fleet: stack.Fleet
    drill: DrillPlane
    authority: TokenAuthority
    gateway: RestGateway
    server: Optional[RestdServer] = None

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        self.fleet.close()
        self.drill.statesave.close()


def _build_eco_plane(workdir: str, *, nodes: int, config: SlurmConfig, serve: bool) -> tuple[_EcoPlane, dict]:
    """Fit and warm the model, start the fleet, build the plane (+ restd)."""
    t0 = time.perf_counter()
    artifact = stack.fit_model()
    t1 = time.perf_counter()
    fleet = stack.build_fleet(artifact)
    t2 = time.perf_counter()
    drill = build_drill_plane(
        workdir, n_nodes=nodes, fsync=True, config=config,
        setup=stack.eco_setup(fleet.router),
    )
    registry = drill.slurmds[0].registry
    for binary in stack.BINARIES:
        registry.register(binary, registry.resolve(DRILL_BINARY))
    authority = TokenAuthority(SECRET)
    gateway = RestGateway(
        authority=authority, leader=drill.plane.leader, dbd=drill.dbd,
        predict_provider=fleet.router,
    )
    env = _EcoPlane(fleet, drill, authority, gateway)
    if serve:
        env.server = RestdServer(gateway, read_timeout_s=120.0).start()
    t3 = time.perf_counter()
    return env, {"model_fit_s": t1 - t0, "fleet_s": t2 - t1, "plane_s": t3 - t2}


# ----------------------------------------------------------------------
# rest-mixed: HTTP -> restd -> gateway -> HA plane, eco over the fleet
# ----------------------------------------------------------------------
#: 20% not opted in, 20% opted in with a performance floor, 60% opted in
REST_COMMENTS = ("", "chronus perf=0.9", "chronus", "chronus", "chronus")


def _rest_plan(rng: random.Random, jobs: int, list_every: int) -> list:
    comments = _shuffled_mix(rng, list(REST_COMMENTS), jobs)
    binaries = _shuffled_mix(rng, list(stack.BINARIES), jobs)
    tasks = _shuffled_mix(rng, list(range(1, 9)), jobs)
    plan = []
    for i in range(jobs):
        plan.append(("submit", {
            "name": f"rm-{i:05d}", "binary": binaries[i], "num_tasks": tasks[i],
            "comment": comments[i], "time_limit_s": 300,
        }))
        if i % list_every == list_every - 1:
            plan.append(("list", None))
    return plan


def rest_mixed(seed: int, scale: str, workdir: str, tracer: Optional[Tracer]) -> RoundResult:
    spec = SCALES[scale]["rest-mixed"]
    plan = _rest_plan(random.Random(seed), spec["jobs"], spec["list_every"])
    env, out = _setup(
        lambda path: _build_eco_plane(
            path, nodes=spec["nodes"], serve=True,
            config=SlurmConfig(sched_defer=True, job_submit_plugins=("eco",)),
        ),
        workdir,
    )
    token = env.authority.issue("perfbench", "submit")
    sim, drill, gateway = env.drill.sim, env.drill, env.gateway
    names: dict[str, int] = {}

    def call(conn, method: str, rid: int, body: Optional[dict]) -> tuple[int, dict]:
        headers = {"Authorization": f"Bearer {token}", REQUEST_ID_HEADER: str(rid)}
        target = "/slurm/v1/jobs" if method == "POST" else PAGE
        payload = None
        if body is not None:
            payload = json.dumps(body)
            headers["Content-Type"] = "application/json"
        with _span(tracer, "client.request", str(rid)):
            conn.request(method, target, body=payload, headers=headers)
            answer = conn.getresponse()
            raw = answer.read()
        return answer.status, json.loads(raw)

    host, port = env.server.address
    keepalive = http.client.HTTPConnection(host, port, timeout=120.0)
    try:
        out.started = time.perf_counter()
        for rid, (kind, body) in enumerate(plan):
            out.attempted += 1
            if kind == "submit":
                t = time.perf_counter()
                status, answer = call(keepalive, "POST", rid, body)
                out.submit_ms.append((time.perf_counter() - t) * 1e3)
                if status == 201:
                    names[body["name"]] = answer["job_id"]
                else:
                    out.failed += 1
                    out.failures.append(f"submit {body['name']} answered {status}")
            else:
                fresh = http.client.HTTPConnection(host, port, timeout=120.0)
                try:
                    t = time.perf_counter()
                    status, answer = call(fresh, "GET", rid, None)
                    out.list_ms.append((time.perf_counter() - t) * 1e3)
                finally:
                    fresh.close()
                if status != 200 or not answer.get("jobs"):
                    out.failed += 1
                    out.failures.append(f"list answered {status}")
            with gateway.lock:
                sim.run(until=sim.now + spec["step_s"])
        keepalive.close()
        # drain: the same fixed steps until every job is terminal
        while True:
            with gateway.lock:
                sim.run(until=sim.now + spec["step_s"])
                leader = drill.plane.leader()
                if all(leader.jobs[j].state.is_terminal for j in names.values()):
                    drill.dbd.pump()
                    break
        out.wall_s = time.perf_counter() - out.started
    finally:
        keepalive.close()
        env.close()

    _check_jobs(leader, names, out.failures)
    _check_accounting(leader, drill.dbd, out.failures)
    _check_eco(leader.jobs.values(), out.failures)
    out.jobs_done = _accounted(drill.dbd.db, names)
    out.digest = stack.final_digest(leader, drill.statesave.last_seq)
    return out


# ----------------------------------------------------------------------
# dag-failover: diamond DAG storm, leader SIGKILL, dbd on its heartbeat
# ----------------------------------------------------------------------
#: role -> afterok predecessors
DIAMOND = (("a", ()), ("b", ("a",)), ("c", ("a",)), ("d", ("b", "c")))
#: drill runtimes are 5-35 s, so about 1/6 of jobs hit this limit
DAG_TIME_LIMIT_S = 30
#: about 30% of the diamonds ask for a performance floor
DAG_COMMENTS = ("chronus perf=0.9", "chronus", "chronus")
DAG_NODES = 4


def dag_failover(seed: int, scale: str, workdir: str, tracer: Optional[Tracer]) -> RoundResult:
    spec = SCALES[scale]["dag-failover"]
    rng = random.Random(seed)
    binaries = _shuffled_mix(rng, list(stack.BINARIES), spec["diamonds"])
    comments = _shuffled_mix(rng, list(DAG_COMMENTS), spec["diamonds"])
    env, out = _setup(
        lambda path: _build_eco_plane(
            path, nodes=DAG_NODES, serve=False,
            config=SlurmConfig(
                sched_defer=True, job_submit_plugins=("eco",), reschedule_retries=1,
            ),
        ),
        workdir,
    )
    drill, gateway = env.drill, env.gateway
    list_request = HttpRequest(
        "GET", "/slurm/v1/jobs", query={"limit": "100"},
        headers={"authorization": f"Bearer {env.authority.issue('perfbench', 'read')}"},
    )
    sim, plane = drill.sim, drill.plane
    names: dict[str, int] = {}

    def submit_diamond(i: int) -> None:
        try:
            ctld = plane.leader()
        except NoLeaderError:
            sim.call_in(drill.heartbeat_s, lambda: submit_diamond(i))
            return
        ids: dict[str, int] = {}
        for role, preds in DIAMOND:
            name = f"wf-{i:04d}-{role}"
            desc = JobDescriptor(
                name=name, num_tasks=1, binary=binaries[i], comment=comments[i],
                time_limit_s=DAG_TIME_LIMIT_S, workflow=f"wf-{i:04d}",
                dependency=tuple(("afterok", ids[p]) for p in preds),
            )
            out.attempted += 1
            t = time.perf_counter()
            ids[role] = names[name] = ctld.submit(desc)
            out.submit_ms.append((time.perf_counter() - t) * 1e3)

    for i in range(spec["diamonds"]):
        sim.call_at(i * spec["interval_s"], lambda i=i: submit_diamond(i), name=f"diamond-{i}")
    kill_at = spec["diamonds"] * spec["interval_s"] / 2
    sim.call_at(kill_at, lambda: drill.leader_peer().kill(), name="sigkill-leader")
    total = spec["diamonds"] * len(DIAMOND)

    def done() -> bool:
        if len(names) < total:
            return False
        try:
            ctld = plane.leader()
        except NoLeaderError:
            return False
        return all(ctld.jobs[j].state.is_terminal for j in names.values())

    out.started = time.perf_counter()
    try:
        step = 0
        while True:
            with gateway.lock:
                sim.run(until=sim.now + spec["step_s"])
                drill.restart_dead_peers()
                step += 1
                if done():
                    drill.dbd.pump()
                    break
                if step % spec["list_every"] == 0:
                    out.attempted += 1
                    t = time.perf_counter()
                    answer = gateway.handle(list_request)
                    out.list_ms.append((time.perf_counter() - t) * 1e3)
                    if answer.status != 200:
                        out.failed += 1
                        out.failures.append(f"list answered {answer.status}")
        out.wall_s = time.perf_counter() - out.started
    finally:
        env.close()

    final = plane.leader()
    takeovers = sum(p.takeovers for p in drill.peers)
    if takeovers != 1:
        out.failures.append(f"expected 1 takeover, saw {takeovers}")
    _check_jobs(final, names, out.failures)
    _check_accounting(final, drill.dbd, out.failures)
    _check_eco(final.jobs.values(), out.failures)
    if workflow_rollup(final.jobs.values()) != drill.dbd.workflows():
        out.failures.append("dbd workflow rollups differ from the controller's")
    out.jobs_done = _accounted(drill.dbd.db, names)
    attempts = [a["reason"] for j in final.jobs.values() for a in j.attempts]
    out.counts = {
        "workflow.dep_releases": attempts.count("dep_release"),
        "workflow.reschedules": attempts.count("reschedule"),
    }
    out.digest = stack.final_digest(final, drill.statesave.last_seq)
    return out


# ----------------------------------------------------------------------
# fleet-backlog: one journaled controller, 128 nodes, bursty backlog
# ----------------------------------------------------------------------
BACKLOG_BINARY = "/opt/perfbench/bin/backlog"
#: job mix: 40% single-core, 30% whole-node, 30% on 2-8 whole nodes
BACKLOG_MIX = (4, 3, 3)
BACKLOG_RUNTIME_S = (10.0, 150.0)


class _BacklogWorkload(Workload):
    """A step of seeded runtime on the cores of one node shard."""

    name = "backlog"

    def __init__(self, cores: int, threads_per_core: int, runtime_s: float) -> None:
        self.cores = cores
        self.threads_per_core = threads_per_core
        self.runtime_s = runtime_s

    def compute_fraction(self, elapsed_s: float) -> float:
        return 0.6

    def bandwidth_gbs(self, elapsed_s: float) -> float:
        return 20.0

    def render_output(self) -> str:
        return "backlog step done\n"


@dataclass
class _Backlog:
    sim: Simulator
    ctld: Slurmctld
    statesave: StateSave
    runtimes: dict

    def close(self) -> None:
        self.statesave.close()


def _build_backlog(workdir: str, nodes: int) -> tuple[_Backlog, dict]:
    t0 = time.perf_counter()
    sim = Simulator()
    runtimes: dict[str, float] = {}
    registry = ApplicationRegistry()
    # the shard descriptor's num_tasks is already per node (see README)
    registry.register(
        BACKLOG_BINARY,
        lambda desc, job_id: _BacklogWorkload(
            desc.num_tasks, desc.threads_per_core, runtimes[desc.name]
        ),
    )
    slurmds = [
        Slurmd(SimulatedNode(sim, hostname=f"node{i + 1:04d}"), registry)
        for i in range(nodes)
    ]
    statesave = StateSave(workdir)
    ctld = Slurmctld(sim, SlurmConfig(sched_defer=True), slurmds, statesave=statesave)
    plane_s = time.perf_counter() - t0
    return _Backlog(sim, ctld, statesave, runtimes), {
        "model_fit_s": 0.0, "fleet_s": 0.0, "plane_s": plane_s,
    }


def _backlog_plan(rng: random.Random, jobs: int, cores: int, max_nodes: int) -> list:
    total = sum(BACKLOG_MIX)
    n_single, n_whole = jobs * BACKLOG_MIX[0] // total, jobs * BACKLOG_MIX[1] // total
    n_multi = jobs - n_single - n_whole
    widths = [2 + i % (min(8, max_nodes) - 1) for i in range(n_multi)]
    shapes = [(1, 1)] * n_single + [(cores, 1)] * n_whole + [(cores * k, k) for k in widths]
    rng.shuffle(shapes)
    lo, hi = BACKLOG_RUNTIME_S
    runtimes = [round(lo + (hi - lo) * (i + 0.5) / jobs, 1) for i in range(jobs)]
    rng.shuffle(runtimes)
    return [
        (f"fb-{i:05d}", tasks, nodes, runtime, int(runtime * 1.5) + 60)
        for i, ((tasks, nodes), runtime) in enumerate(zip(shapes, runtimes))
    ]


def fleet_backlog(seed: int, scale: str, workdir: str, tracer: Optional[Tracer]) -> RoundResult:
    spec = SCALES[scale]["fleet-backlog"]
    env, out = _setup(lambda path: _build_backlog(path, spec["nodes"]), workdir)
    sim, ctld = env.sim, env.ctld
    cores = ctld.nodes[0].node.total_cores
    plan = _backlog_plan(random.Random(seed), spec["jobs"], cores, spec["nodes"])
    for name, _, _, runtime, _ in plan:
        env.runtimes[name] = runtime
    names: dict[str, int] = {}
    per_burst = -(-len(plan) // spec["bursts"])

    def squeue() -> None:
        """The first page of the controller's own job table."""
        out.attempted += 1
        t = time.perf_counter()
        page = [JobInfo.from_job(ctld.jobs[j]).to_dict() for j in sorted(ctld.jobs)[:100]]
        out.list_ms.append((time.perf_counter() - t) * 1e3)
        if not page:
            out.failed += 1
            out.failures.append("squeue page is empty")

    out.started = time.perf_counter()
    try:
        for b in range(spec["bursts"]):
            for name, tasks, nodes, _, limit in plan[b * per_burst:(b + 1) * per_burst]:
                desc = JobDescriptor(
                    name=name, num_tasks=tasks, nodes=nodes,
                    binary=BACKLOG_BINARY, time_limit_s=limit,
                )
                out.attempted += 1
                t = time.perf_counter()
                names[name] = ctld.submit(desc)
                out.submit_ms.append((time.perf_counter() - t) * 1e3)
            squeue()
            sim.run(until=sim.now + spec["step_s"])
        while not all(ctld.jobs[j].state.is_terminal for j in names.values()):
            squeue()
            sim.run(until=sim.now + spec["step_s"])
        out.wall_s = time.perf_counter() - out.started
    finally:
        env.close()

    _check_jobs(ctld, names, out.failures)
    out.jobs_done = _accounted(ctld.accounting, names)
    if len(ctld.accounting) != len(names):
        out.failures.append(f"accounting rows {len(ctld.accounting)} != jobs {len(names)}")
    bad = [j.job_id for j in ctld.jobs.values()
           if j.state is not JobState.COMPLETED or len(set(j.node_list)) != j.descriptor.nodes]
    if bad:
        out.failures.append(f"{len(bad)} job(s) did not complete on their node count")
    out.digest = stack.final_digest(ctld, env.statesave.last_seq)
    return out


WORKLOADS = {
    "rest-mixed": rest_mixed,
    "dag-failover": dag_failover,
    "fleet-backlog": fleet_backlog,
}
