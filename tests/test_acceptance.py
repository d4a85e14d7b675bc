"""Acceptance suite: one test per release criterion, one printed verdict each.

Every expected value here is produced by an independent oracle (closed-form
identities, brute-force scans, central finite differences or a hand-traced
propagation) rather than by the code under test.
"""
import contextlib
import math
import random
import time

import numpy as np
import pytest

from eden.cem import GoalPlane, PwrTensor
from eden.codec import decode, dumps_canonical, encode
from eden.cli import EXIT_OK, main
from eden.config import EngineConfig
from eden.functome import Functome, node_hash
from eden.grid import TRANSMITTER, NeuralGrid
from eden.node import ProcessNode, stability_index
from eden.runner import InputProbe, run_epoch, seed_entity
from eden import store


@contextlib.contextmanager
def verdict(capsys, num, label):
    ok = False
    try:
        yield
        ok = True
    finally:
        with capsys.disabled():
            print(f"\ncriterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}")


def sigmoid_oracle(v):
    """Logistic function via the tanh identity, not via the engine's code path."""
    return 0.5 * (1.0 + math.tanh(v / 2.0))


def trained_copy(tensor):
    """Deep copy without the recorded pass, for probing learned structure."""
    t = decode(PwrTensor, encode(tensor))
    assert t.last_trace is None
    return t


def energy_plane(tensor, z):
    """Plane z of the energy lattice, rebuilt from the recorded pass."""
    n = tensor.dim_xy
    plane = np.zeros((n, n))
    for k, v in tensor.last_trace.energized[z]:
        plane[k // n, k % n] = v
    return plane


def density(grid, pos, index, sigma=1.0):
    """Gaussian kernel density of the grid's payloads with this index, summed
    directly from its definition; the gradient oracle differentiates it."""
    total = 0.0
    inv_s2 = 1.0 / (sigma * sigma)
    for pl in grid.payloads.values():
        if pl.index != index:
            continue
        d2 = sum((pc - c) ** 2 for pc, c in zip(pl.position, pos))
        total += pl.magnitude * math.exp(-0.5 * d2 * inv_s2)
    return total


def stimulus_probe(entity, index=0, magnitude=1.5):
    node = entity.nodes[min(entity.nodes)]
    node.dendrites[0].accepted_transmitter_indices = {index}
    node.dendrites[0].growth_cone.active = False
    entity.input_probes.append(InputProbe(
        probe_id=0, position=node.dendrites[0].position,
        frames=[[{"offset": [0, 0, 0], "index": index, "magnitude": magnitude}]]))
    return node


def test_criterion_01_transfer_closed_form(capsys):
    with verdict(capsys, 1, "transfer matches closed form"):
        # a 1x1x2 lattice whose threshold no pass reaches: the deposit p on the
        # entry cell sends one share up, max(0, sigmoid(p * w) - dr), which
        # plane 1 holds alone, or holds nothing where the share clamps
        rng = random.Random(101)
        tensor = PwrTensor(1, 2)
        start = time.perf_counter()
        for _ in range(10_000):
            p = 10.0 - rng.uniform(0.0, 10.0)  # in (0, 10]: a negative deposit clamps to 0
            w = rng.uniform(0.0, 1.0)
            dr = rng.uniform(0.0, 0.49)
            expected = max(0.0, sigmoid_oracle(p * w) - dr)
            tensor.reset_propagation()
            tensor.w[0, 0, 0] = w
            assert tensor.forward_propagate([(0, 0, p)], min_e=1e18, dr=dr) is None
            entry, shares = tensor.last_trace.energized
            assert entry == [(0, p)]
            assert abs(dict(shares).get(0, 0.0) - expected) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_02_backprop_finite_differences(capsys):
    def loss_at(tensor, key, w_val, deposits, target, zs, dr):
        t = trained_copy(tensor)
        t.w[key] = w_val
        t.forward_propagate(deposits, min_e=1e18, dr=dr)
        diff = energy_plane(t, zs) - target
        return 0.5 * float((diff * diff).sum())

    with verdict(capsys, 2, "goal gradients match finite differences"):
        rng = random.Random(202)
        h = 1e-6
        start = time.perf_counter()
        checked = 0
        for _ in range(100):
            n = rng.randint(1, 4)
            dim_z = rng.randint(2, 4)
            dr = rng.choice([0.0, 0.05, 0.2])
            tensor = PwrTensor.random(n, dim_z, rng)
            deposits = [(rng.randrange(n), rng.randrange(n), rng.uniform(0.2, 3.0))
                        for _ in range(rng.randint(1, n * n))]
            zs = dim_z - 1
            target = np.array([[rng.uniform(0.0, 1.5) for _ in range(n)]
                               for _ in range(n)])
            work = trained_copy(tensor)
            work.forward_propagate(deposits, min_e=1e18, dr=dr)
            grad_w = work.goal_loss_gradients(
                GoalPlane(z_index=zs, target_p=target), dr)
            for key, analytic in grad_w.items():
                w0 = float(tensor.w[key])
                fd = (loss_at(tensor, key, w0 + h, deposits, target, zs, dr)
                      - loss_at(tensor, key, w0 - h, deposits, target, zs, dr)) / (2 * h)
                assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-8)
                checked += 1
        assert checked > 100
        assert time.perf_counter() - start < 10.0


def test_criterion_03_stability_index_against_brute_force(capsys):
    def kl_oracle(pc, qc):
        p = [c + 1.0 for c in pc]
        q = [c + 1.0 for c in qc]
        ps, qs = sum(p), sum(q)
        return sum((a / ps) * math.log((a / ps) / (b / qs)) for a, b in zip(p, q))

    with verdict(capsys, 3, "stability index equals clamped inverse KL"):
        rng = random.Random(303)
        for _ in range(1000):
            n = rng.randint(2, 16)
            a = [rng.randrange(80) for _ in range(n)]
            b = [rng.randrange(80) for _ in range(n)]
            si = stability_index(a, b)
            expected = 1.0 / max(kl_oracle(a, b), 1.0)
            assert abs(si - expected) <= 1e-10
            assert 0.0 < si <= 1.0
        same = [3, 0, 9, 0, 0, 1]
        assert stability_index(same, list(same)) == 1.0


def test_criterion_04_hand_traced_spike_mechanics(capsys):
    with verdict(capsys, 4, "hand-traced propagation and spike planes"):
        # all-ones weights, straight-up routers, no dissipation, threshold 2:
        # PE_0 = 1, PE_1 = 1 + s(1), PE_2 = PE_1 + s(s(1)) crosses first
        tensor = PwrTensor(3, 3)
        spike = tensor.forward_propagate([(1, 1, 1.0)], min_e=2.0, dr=0.0)
        s1 = sigmoid_oracle(1.0)
        expected_pe = 1.0 + s1 + sigmoid_oracle(s1)
        assert spike is not None
        assert spike.z_index == 2
        assert abs(spike.plane_energy - expected_pe) <= 1e-9

        # a deposit already past the threshold spikes on the entry plane
        tensor = PwrTensor(3, 3)
        spike = tensor.forward_propagate([(0, 0, 5.0)], min_e=2.0, dr=0.0)
        assert spike is not None and spike.z_index == 0
        assert spike.plane_energy == pytest.approx(5.0)

        # no deposit, no spike, ever
        tensor = PwrTensor(3, 3)
        for _ in range(100):
            assert tensor.forward_propagate([], min_e=1e-9, dr=0.0) is None


def test_criterion_05_training_lowers_required_stimulus(capsys):
    def min_spike_mag(tensor, z_max, min_e, dr):
        lo, hi = 1e-6, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            t = trained_copy(tensor)
            spike = t.forward_propagate([(1, 1, mid)], min_e, dr)
            if spike is not None and spike.z_index <= z_max:
                hi = mid
            else:
                lo = mid
        return hi

    with verdict(capsys, 5, "reinforced path needs no more than the trained stimulus"):
        magnitude = 1.2
        min_e, dr = 2.0, 0.05
        for seed in range(10):
            rng = random.Random(seed)
            node = ProcessNode(id=0, soma_position=(0, 0, 0),
                               cem=PwrTensor.random(4, 8, rng),
                               min_e=min_e, dr=dr, functome=Functome(fid=0))
            zs = []
            for epoch in range(50):
                node.begin_epoch()
                spike = node.step([(1, 1, magnitude)], epoch,
                                  learning_rate=0.05, goal_refresh_threshold=0.5)
                if spike is not None:
                    zs.append(spike.z_index)
                node.end_epoch_housekeeping(rng)
            assert zs, f"seed {seed} never spiked"
            z_stable = zs[-1]
            # the spike plane settles within one lattice depth worth of epochs
            assert all(z == z_stable for z in zs[node.cem.dim_z:])
            threshold = min_spike_mag(node.cem, z_stable, min_e, dr)
            assert threshold <= magnitude + 1e-9, \
                f"seed {seed}: needs {threshold} > trained stimulus {magnitude}"


def test_criterion_06_prune_semantics(capsys):
    with verdict(capsys, 6, "pruning spares the unstimulated, removes the unstable"):
        # an entity that receives no input is never pruned, however long it idles
        entity = seed_entity(EngineConfig(initial_nodes=4, initial_genes=0,
                                          dim_xy=3, dim_z=4, seed=606))
        ids = set(entity.nodes)
        for _ in range(100):
            report = run_epoch(entity)
            assert report.pruned == []
        assert set(entity.nodes) == ids

        # a stimulated node whose spike distribution jumped is pruned that epoch
        entity = seed_entity(EngineConfig(initial_nodes=3, dim_xy=3, dim_z=4, seed=607))
        victim = entity.nodes[min(entity.nodes)]
        victim.stimulated_this_epoch = True
        victim.spike_dist_prev = [400, 0, 0, 0]
        victim.spike_dist_curr = [0, 0, 0, 400]
        from eden.runner import evaluate_prune_phase
        pruned, _ = evaluate_prune_phase(entity, stability_prune_threshold=0.3)
        assert pruned == [victim.id]
        assert victim.id not in entity.nodes


def test_criterion_07_lock_freezes_identity(capsys):
    with verdict(capsys, 7, "locked entity keeps genomes and morphology intact"):
        entity = seed_entity(EngineConfig(initial_nodes=4, dim_xy=3, dim_z=4,
                                          min_e=0.5, dr=0.0, mutation_rate=1.0,
                                          seed=707))
        stimulus_probe(entity, magnitude=4.0)
        store.set_locked(entity, True)
        node_ids = set(entity.nodes)
        gene_counts = {fid: len(f.genes) for fid, f in entity.functomes.items()}
        genomes = {fid: dumps_canonical(encode(f)) for fid, f in entity.functomes.items()}
        n_hashes = {nid: node_hash(n) for nid, n in entity.nodes.items()}
        spiked = False
        for _ in range(50):
            report = run_epoch(entity)
            spiked = spiked or bool(report.spikes)
        assert spiked  # propagation itself keeps running
        assert set(entity.nodes) == node_ids
        assert {fid: len(f.genes) for fid, f in entity.functomes.items()} == gene_counts
        assert {fid: dumps_canonical(encode(f)) for fid, f in entity.functomes.items()} == genomes
        assert {nid: node_hash(n) for nid, n in entity.nodes.items()} == n_hashes


def test_criterion_08_replay_is_bit_identical(capsys, tmp_path):
    with verdict(capsys, 8, "100-epoch replay reproduces itself exactly"):
        entity = seed_entity(EngineConfig(dim_xy=8, dim_z=8, initial_nodes=10,
                                          min_e=1.0, dr=0.05, seed=808))
        stimulus_probe(entity, magnitude=2.0)
        path = str(tmp_path / "replay.eden.json")
        store.save(entity, path)
        start = time.perf_counter()
        rc = main(["replay", "--state", path, "--epochs", "100"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "identical" in out
        assert elapsed < 60.0


def test_criterion_09_stability_trend_under_steady_input(capsys):
    def improves(seed):
        entity = seed_entity(EngineConfig(dim_xy=4, dim_z=6, initial_nodes=4,
                                          initial_genes=2, min_e=1.0, dr=0.05,
                                          seed=seed))
        stimulus_probe(entity, magnitude=1.5)
        means = []
        for _ in range(100):
            report = run_epoch(entity)
            vals = list(report.stability.values())
            means.append(sum(vals) / len(vals) if vals else 1.0)
        early = sum(means[0:20]) / 20
        late = sum(means[80:100]) / 20
        return late >= early - 1e-12

    with verdict(capsys, 9, "late-epoch stability at least matches early epochs"):
        wins = sum(1 for seed in range(10) if improves(seed))
        assert wins >= 8, f"only {wins}/10 seeds held the trend"


def test_criterion_10_spatial_queries_against_oracles(capsys):
    with verdict(capsys, 10, "spatial index and density gradient verified"):
        rng = random.Random(1010)
        queries = 0
        while queries < 1000:
            grid = NeuralGrid((0, 0, 0), (10, 10, 10),
                              cell_size=rng.choice([0.5, 1.0, 2.0, 4.0]))
            for _ in range(rng.randint(0, 120)):
                grid.stage(TRANSMITTER, rng.randrange(4),
                           tuple(rng.uniform(0, 10) for _ in range(3)),
                           rng.uniform(0.1, 2.0), 3)
            grid.commit()
            for _ in range(25):
                center = tuple(rng.uniform(0, 10) for _ in range(3))
                r = rng.uniform(0.0, 6.0)
                got = [(pl.pid) for pl in grid.query_radius(center, r)]
                expected = sorted(
                    (math.dist(pl.position, center), pid)
                    for pid, pl in grid.payloads.items()
                    if math.dist(pl.position, center) <= r)
                assert got == [pid for _, pid in expected]
                queries += 1

        grid = NeuralGrid((0, 0, 0), (10, 10, 10), cell_size=2.0)
        for _ in range(40):
            grid.stage(TRANSMITTER, 1, tuple(rng.uniform(0, 10) for _ in range(3)),
                       rng.uniform(0.5, 2.0), 3)
        grid.commit()
        h = 1e-5
        for _ in range(20):
            pos = tuple(rng.uniform(0, 10) for _ in range(3))
            grad = grid.density_gradient(pos, 1, sigma=1.5)
            for axis in range(3):
                plus, minus = list(pos), list(pos)
                plus[axis] += h
                minus[axis] -= h
                fd = (density(grid, tuple(plus), 1, 1.5)
                      - density(grid, tuple(minus), 1, 1.5)) / (2 * h)
                assert abs(grad[axis] - fd) <= 1e-6


def test_criterion_11_save_state_fixpoint_and_resume(capsys, tmp_path):
    with verdict(capsys, 11, "save/load byte fixpoint and seamless resume"):
        path = str(tmp_path / "entity.eden.json")
        entity = seed_entity(EngineConfig(initial_nodes=4, dim_xy=3, dim_z=4,
                                          min_e=0.5, dr=0.0, seed=1111))
        stimulus_probe(entity, magnitude=3.0)
        store.save(entity, path)
        first = open(path, "rb").read()
        store.save(store.load(path), path)
        assert open(path, "rb").read() == first

        straight = store.load(path)
        expected = [run_epoch(straight).to_dict() for _ in range(20)]

        resumed = store.load(path)
        reports = [run_epoch(resumed).to_dict() for _ in range(9)]
        mid = str(tmp_path / "mid.eden.json")
        store.save(resumed, mid)
        resumed = store.load(mid)
        reports += [run_epoch(resumed).to_dict() for _ in range(11)]
        assert reports == expected
