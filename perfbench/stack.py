"""The real stack the workloads drive: model, prediction fleet, eco plugin.

Everything here is built through the program's public constructors; the
benchmark only chooses the configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

from benchmarks.bench_serving import _MemoryLocalStorage, analytic_rows
from repro.core.application.slurm_config_service import SlurmConfigService
from repro.core.domain.settings import ChronusSettings
from repro.core.factory import ModelFactory
from repro.hpcg import reference
from repro.serving.router import ShardRouter
from repro.serving.server import ChronusServer
from repro.serving.transport import LocalTransport
from repro.slurm.controller import Slurmctld
from repro.slurm.plugins.chash import simple_hash
from repro.slurm.plugins.eco import JobSubmitEco, PluginState

SYSTEM_ID = 1
APPLICATION = "hpcg"
#: the ``chronus init-model`` default
MODEL_TYPE = "linear-regression"
MODEL_PATH = "/etc/chronus/optimizer/model-1.json"
SHARDS = 2
#: binaries the eco-opted jobs run; the router hashes (system, binary),
#: so several binaries spread the keys over both shards
BINARIES = tuple(f"/opt/perfbench/bin/app{i}" for i in range(6))
#: the eco plugin's wall-clock prediction deadline.  The default (0.1 s)
#: turns a host stall into a fallback, which changes the jobs' shapes and
#: so the whole run; the deadline stays in the path, only wider.
PREDICT_BUDGET_S = 10.0


def fit_model() -> bytes:
    """Fit the default model on the paper's 138-point sweep (23 core
    counts x 3 GHz x HT on/off) through the calibrated steady-state
    models; returns the serialized artifact."""
    frequencies = [int(round(ghz * 1e6)) for ghz in reference.FREQS_GHZ]
    optimizer = ModelFactory.get_optimizer(MODEL_TYPE)
    optimizer.fit(analytic_rows(reference.CORE_COUNTS, frequencies))
    return optimizer.serialize()


def _memory_settings(settings: ChronusSettings) -> _MemoryLocalStorage:
    storage = _MemoryLocalStorage()
    storage.settings = settings
    return storage


@dataclass
class Fleet:
    router: ShardRouter
    servers: list

    def close(self) -> None:
        for server in self.servers:
            server.stop()


def build_fleet(artifact: bytes) -> Fleet:
    """Two started ``ChronusServer`` shards behind a ``ShardRouter``.

    Each shard has the model loaded from its local disk (a dict here) and
    warmed, as ``chronus load-model`` leaves a serving daemon.
    """
    settings = ChronusSettings().with_loaded_model(
        SYSTEM_ID, MODEL_PATH, MODEL_TYPE, application=APPLICATION,
        model_id=1, version=1,
    )
    for binary in BINARIES:
        settings = settings.with_binary_alias(simple_hash(binary), APPLICATION)
    files = {MODEL_PATH: artifact}
    router = ShardRouter()
    servers = []
    for i in range(SHARDS):
        service = SlurmConfigService(
            _memory_settings(settings), ModelFactory.load_optimizer,
            read_local=files.__getitem__,
        )
        server = ChronusServer(service).start()
        service.warm(SYSTEM_ID)
        servers.append(server)
        router.add_shard(f"shard{i}", LocalTransport(server))
    return Fleet(router=router, servers=servers)


def eco_setup(provider) -> Callable[[Slurmctld], None]:
    """Controller setup hook: the eco plugin in user (opt-in) mode."""

    def setup(ctld: Slurmctld) -> None:
        ctld.register_plugin(
            JobSubmitEco(
                ctld.nodes[0].node, provider=provider,
                state=PluginState("user"), predict_budget_s=PREDICT_BUDGET_S,
            )
        )

    return setup


def final_digest(ctld: Slurmctld, last_seq: int) -> str:
    """SHA-256 over job states, node lists, energies and the journal tail."""
    rows = [
        [
            job.job_id, job.descriptor.name, job.state.value,
            list(job.node_list), job.consumed_energy_j, job.exit_code,
            len(job.attempts),
        ]
        for job in sorted(ctld.jobs.values(), key=lambda j: j.job_id)
    ]
    blob = json.dumps({"jobs": rows, "last_seq": last_seq}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
