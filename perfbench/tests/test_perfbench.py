"""Tiny-size runs of every workload through the benchmark's one command.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.run import exact_counts  # noqa: E402
OUT = os.path.join(ROOT, "perfbench", "out")
#: the workloads BENCHMARK.json gates, then the diagnostic one it does not
GATED = ("rest-mixed", "dag-failover")
WORKLOADS = GATED + ("fleet-backlog",)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(proc: subprocess.CompletedProcess) -> str:
    lines = [line for line in proc.stdout.splitlines() if line.startswith("digest: ")]
    return lines[0].split(": ", 1)[1]


def values(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()}


def test_spec_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(GATED)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_is_correct_and_reports_every_end_to_end_metric(workload):
    out = result(run(workload, seed=5, trace=0))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_digest_and_counts(workload):
    first, second = run(workload, seed=7, trace=1), run(workload, seed=7, trace=1)
    a, b = result(first), result(second)
    assert a["correct"] is True and b["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in a["metrics"].items()} == want
    assert digest(first) == digest(second)
    assert exact_counts(values(a["metrics"])) == exact_counts(values(b["metrics"]))
    assert a["metrics"]["eco.fallbacks"]["value"] == 0
    if workload == "fleet-backlog":
        for name in ("dbd.pump.calls", "serving.predict.calls", "restd.handle.calls"):
            assert a["metrics"][name]["value"] == 0
    else:
        assert a["metrics"]["eco.applied_frac"]["value"] == 1.0


def test_another_seed_gives_another_final_state():
    assert digest(run("fleet-backlog", seed=1, trace=0)) != digest(run("fleet-backlog", seed=2, trace=0))


def test_no_dbd_pump_inside_a_submit_on_rest_mixed():
    result(run("rest-mixed", seed=3, trace=1))
    with open(os.path.join(OUT, "rest-mixed-seed3-trace1.json"), encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    submits = [(s[2], s[3]) for s in spans if s[1] == "ctld.submit"]
    pumps = [s for s in spans if s[1] == "dbd.pump"]
    assert submits and pumps
    for _, _, start, end, _, _, _ in pumps:
        assert not any(lo <= start and end <= hi for lo, hi in submits)
    # every span of a request carries the client's request id
    handles = [s for s in spans if s[1] == "restd.handle"]
    assert handles and all(s[6] is not None for s in handles)
    by_id = {s[0]: s for s in spans}
    for s in spans:
        if s[1] in ("ctld.submit", "eco.submit", "serving.predict") and s[6] is not None:
            assert by_id[s[4]][6] == s[6]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("rest-mixed", seed=1, trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_binaries_spread_over_both_shards():
    from perfbench import stack
    from repro.hardware.node import SimulatedNode
    from repro.simkernel.engine import Simulator
    from repro.slurm.plugins.chash import simple_hash
    from repro.slurm.plugins.eco import system_hash_from_node

    fleet = stack.build_fleet(stack.fit_model())
    try:
        system = system_hash_from_node(SimulatedNode(Simulator()))
        shards = {fleet.router.route(system, simple_hash(b)) for b in stack.BINARIES}
    finally:
        fleet.close()
    assert shards == set(fleet.router.shard_names())
