"""Determinism guard: benchmark trajectories match their recorded digests.

`perfbench/reference.json` holds the sha256 trajectory digest of every
workload and seed. This rebuilds `grow` seed 0 (4 stimulus variants of 20
epochs each), `deep` seed 0 (one variant of 20 epochs, where nearly every
node spikes and backpropagates every epoch) and `resume` seed 0 (one cycle of
`eden train` sessions, each loading, training and saving the state) and
digests them as `perfbench/run.py` does, so a one-ulp drift in the grid
queries, the CEM, the store or anything else on the epoch path fails here.
Only reads `perfbench/`; re-record the reference there for an intended change.
"""
import hashlib
import importlib.util
import json
import os
import sys

from eden.cli import main
from eden.runner import run_epoch
from eden.store import dumps_canonical

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def joined_digest(variant_digests) -> str:
    """One digest over every variant's digest, in variant order."""
    return hashlib.sha256("".join(variant_digests).encode()).hexdigest()


def trajectory_digest(entities, epochs: int) -> str:
    """The joined digest of every variant's report stream."""
    variant_digests = []
    for entity in entities:
        digest = hashlib.sha256()
        for _ in range(epochs):
            digest.update(dumps_canonical(run_epoch(entity).to_dict()).encode())
            digest.update(b"\n")
        variant_digests.append(digest.hexdigest())
    return joined_digest(variant_digests)


def recorded(workload: str, seed: int) -> dict:
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload][str(seed)]


def test_grow_seed_0_matches_reference_digest():
    workloads = load_workloads()
    entities = (workloads.build_grow(0, variant) for variant in range(4))
    assert (trajectory_digest(entities, workloads.GROW_EPISODE_EPOCHS)
            == recorded("grow", 0)["trajectory_digest"])


def test_deep_seed_0_matches_reference_digest():
    workloads = load_workloads()
    assert (trajectory_digest([workloads.build_deep(0)], workloads.DEEP_EPISODE_EPOCHS)
            == recorded("deep", 0)["trajectory_digest"])


def test_resume_seed_0_matches_reference_digest(tmp_path):
    workloads = load_workloads()
    inputs = workloads.build_resume(0, str(tmp_path))
    for _ in range(workloads.RESUME_SESSIONS_PER_CYCLE):
        assert main(inputs.train_argv()) == 0
    with open(inputs.log, "rb") as fh:
        log_digest = hashlib.sha256(fh.read()).hexdigest()
    reference = recorded("resume", 0)
    assert joined_digest([log_digest]) == reference["trajectory_digest"]
    assert os.path.getsize(inputs.state) == reference["state_bytes"]
