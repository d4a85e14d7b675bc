"""Determinism guard: benchmark trajectories match their recorded digests.

`perfbench/reference.json` holds the sha256 trajectory digest of every
workload and seed. This rebuilds `grow` seed 0 (4 stimulus variants of 20
epochs each) and `deep` seed 0 (one variant of 20 epochs, where nearly every
node spikes and backpropagates every epoch) and digests them as
`perfbench/run.py` does, so a one-ulp drift in the grid queries, the CEM or
anything else on the epoch path fails here. Only reads `perfbench/`;
re-record the reference there for an intended change.
"""
import hashlib
import importlib.util
import json
import os
import sys

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


def trajectory_digest(entities, epochs: int) -> str:
    """One digest over every variant's report stream, in variant order."""
    variant_digests = []
    for entity in entities:
        digest = hashlib.sha256()
        for _ in range(epochs):
            digest.update(dumps_canonical(run_epoch(entity).to_dict()).encode())
            digest.update(b"\n")
        variant_digests.append(digest.hexdigest())
    return hashlib.sha256("".join(variant_digests).encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> str:
    with open(os.path.join(PERFBENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload][str(seed)]["trajectory_digest"]


def test_grow_seed_0_matches_reference_digest():
    workloads = load_workloads()
    entities = (workloads.build_grow(0, variant) for variant in range(4))
    assert (trajectory_digest(entities, workloads.GROW_EPISODE_EPOCHS)
            == recorded_digest("grow", 0))


def test_deep_seed_0_matches_reference_digest():
    workloads = load_workloads()
    assert (trajectory_digest([workloads.build_deep(0)], workloads.DEEP_EPISODE_EPOCHS)
            == recorded_digest("deep", 0))
