"""Determinism guard: benchmark trajectories match their recorded digests.

`perfbench/reference.json` holds the sha256 trajectory digest of every
workload and seed. This rebuilds `grow` seed 0 (4 stimulus variants of 20
epochs each), `deep` seed 0 (one variant of 20 epochs, where nearly every
node spikes and backpropagates every epoch) and `resume` seed 0 (one cycle of
`eden train` sessions, each loading, training and saving the state) and
digests them as `perfbench/run.py` does, so a one-ulp drift in the grid
queries, the CEM, the store or anything else on the epoch path fails here.
`grow` and `deep` are also replayed in child processes with numpy's AVX-512
kernels disabled, and with its AVX2 and FMA (x86-64-v3) kernels disabled too,
so a trajectory cannot depend on the host's SIMD dispatch: the growth step does
numpy's elementwise arithmetic. They are also replayed with a builtin `sum`
that refuses floats, so they cannot depend on the Python version's float
`sum`.
Only reads `perfbench/`; re-record the reference there for an intended change.
"""
import builtins
import hashlib
import importlib.util
import json
import os
import subprocess
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


def sum_without_floats(iterable, start=0, *, _sum=builtins.sum):
    """``sum`` that refuses float terms. Python 3.12 made the builtin's float
    sum compensated, so a float sum on the epoch path would make a trajectory
    depend on the Python version."""
    items = list(iterable)
    if any(isinstance(v, float) for v in [start, *items]):
        raise AssertionError(f"builtin sum() of floats: {items[:4]}")
    return _sum(items, start)


def test_grow_and_deep_digests_add_no_float_with_the_builtin_sum(monkeypatch):
    workloads = load_workloads()
    monkeypatch.setattr(builtins, "sum", sum_without_floats)
    grow = trajectory_digest((workloads.build_grow(0, variant) for variant in range(4)),
                             workloads.GROW_EPISODE_EPOCHS)
    deep = trajectory_digest([workloads.build_deep(0)], workloads.DEEP_EPISODE_EPOCHS)
    monkeypatch.undo()
    assert grow == recorded("grow", 0)["trajectory_digest"]
    assert deep == recorded("deep", 0)["trajectory_digest"]


# Replays grow and deep seed 0 in a child process whose numpy runs without the
# kernels NPY_DISABLE_CPU_FEATURES names; prints the digests and whether the
# AVX-512 (x86-64-v4) and AVX2 (x86-64-v3) dispatch is on. A numpy without the
# X86_V3 group reports its AVX2 feature instead.
REPLAY_WITHOUT_SIMD = """
import json, sys
sys.path.insert(0, sys.argv[1])
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
import test_reference as ref
w = ref.load_workloads()
print(json.dumps({
    "avx512_skx": bool(__cpu_features__.get("AVX512_SKX")),
    "x86_v3": bool(__cpu_features__.get("X86_V3", __cpu_features__.get("AVX2"))),
    "grow": ref.trajectory_digest((w.build_grow(0, v) for v in range(4)),
                                  w.GROW_EPISODE_EPOCHS),
    "deep": ref.trajectory_digest([w.build_deep(0)], w.DEEP_EPISODE_EPOCHS),
}))
"""


def replay_without(disabled: str) -> dict:
    """What `REPLAY_WITHOUT_SIMD` prints, run with ``disabled`` as
    NPY_DISABLE_CPU_FEATURES."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", REPLAY_WITHOUT_SIMD, tests],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_grow_and_deep_digests_do_not_depend_on_avx512_dispatch():
    """A state resumed on a host without AVX-512 follows the same trajectory:
    nothing on the epoch path may depend on which SIMD kernels numpy picks."""
    child = replay_without("X86_V4")
    assert not child["avx512_skx"]  # the variable took effect, or there is no AVX-512
    assert child["grow"] == recorded("grow", 0)["trajectory_digest"]
    assert child["deep"] == recorded("deep", 0)["trajectory_digest"]


def test_grow_and_deep_digests_do_not_depend_on_avx2_or_fma_dispatch():
    """The same without AVX2 and FMA: the growth step's elementwise numpy
    arithmetic must give the same bits in numpy's baseline kernels."""
    child = replay_without("X86_V3 X86_V4")
    assert not child["x86_v3"]  # the variable took effect, or there is no AVX2
    assert child["grow"] == recorded("grow", 0)["trajectory_digest"]
    assert child["deep"] == recorded("deep", 0)["trajectory_digest"]
