"""Tests for the neural grid: commit semantics, queries, gradients, decay."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eden.codec import decode, encode
from eden.grid import ARCHITECTOR, TRANSMITTER, GridError, NeuralGrid

from test_acceptance import density


def make_grid(cell_size=2.0):
    return NeuralGrid((0, 0, 0), (10, 10, 10), cell_size=cell_size)


# Reference implementations: the plain scalar loops over every committed
# payload that the per-commit index replaced. The grid must match them
# exactly, because trajectories are compared by digest.

def reference_query_radius(grid, center, r):
    found = []
    for pid in sorted(grid.payloads):
        pl = grid.payloads[pid]
        d = math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(pl.position, center)))
        if d <= r:
            found.append((d, pid))
    found.sort()
    return [pid for _, pid in found]


def reference_filtered_query(grid, center, r, indices):
    """The unfiltered reference, keeping the transmitters of ``indices``."""
    return [pid for pid in reference_query_radius(grid, center, r)
            if grid.payloads[pid].kind == TRANSMITTER and grid.payloads[pid].index in indices]


def reference_density_gradient(grid, pos, index, sigma=1.0):
    grad = [0.0, 0.0, 0.0]
    inv_s2 = 1.0 / (sigma * sigma)
    for pid in sorted(grid.payloads):
        pl = grid.payloads[pid]
        if pl.index != index:
            continue
        delta = [pc - c for pc, c in zip(pl.position, pos)]
        d2 = sum(x * x for x in delta)
        k = pl.magnitude * math.exp(-0.5 * d2 * inv_s2)
        for i in range(3):
            grad[i] += k * delta[i] * inv_s2
    return tuple(grad)


class TestDeposit:
    def test_invisible_before_commit(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 0, (5, 5, 5), 1.0, 3))
        assert g.query_radius((5, 5, 5), 0.1) == []

    def test_visible_after_commit(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 0, (5, 5, 5), 1.0, 3))
        g.commit()
        assert len(g.query_radius((5, 5, 5), 0.1)) == 1

    def test_out_of_bounds_rejected(self):
        g = make_grid()
        with pytest.raises(GridError):
            g.deposit(g.new_payload(TRANSMITTER, 0, (11, 5, 5), 1.0, 3))
        g.commit()
        assert g.payloads == {}

    def test_nonpositive_magnitude_rejected(self):
        g = make_grid()
        with pytest.raises(GridError):
            g.new_payload(TRANSMITTER, 0, (1, 1, 1), 0.0, 3)


class TestQueryRadius:
    def test_empty_grid(self):
        assert make_grid().query_radius((5, 5, 5), 3.0) == []

    def test_distance_cutoff(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 0, (5, 5, 7), 1.0, 3))
        g.commit()
        assert g.query_radius((5, 5, 5), 1.0) == []
        assert len(g.query_radius((5, 5, 5), 2.0)) == 1

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            g = make_grid(cell_size=rng.choice([0.5, 1.0, 2.0, 5.0]))
            for _ in range(100):
                pos = tuple(rng.uniform(0, 10) for _ in range(3))
                g.deposit(g.new_payload(TRANSMITTER, rng.randrange(4), pos,
                                        rng.uniform(0.1, 2.0), 3))
            g.commit()
            for _ in range(5):
                center = tuple(rng.uniform(0, 10) for _ in range(3))
                r = rng.uniform(0.0, 6.0)
                got = [pl.pid for pl in g.query_radius(center, r)]
                expected = sorted(
                    (math.dist(pl.position, center), pid)
                    for pid, pl in g.payloads.items()
                    if math.dist(pl.position, center) <= r)
                assert got == [pid for _, pid in expected]

    def test_identical_queries_between_commits(self):
        g = make_grid()
        rng = random.Random(2)
        for _ in range(20):
            g.deposit(g.new_payload(TRANSMITTER, 0,
                                    tuple(rng.uniform(0, 10) for _ in range(3)), 1.0, 3))
        g.commit()
        a = [pl.pid for pl in g.query_radius((5, 5, 5), 4.0)]
        g.deposit(g.new_payload(TRANSMITTER, 0, (5, 5, 5), 1.0, 3))  # staged only
        b = [pl.pid for pl in g.query_radius((5, 5, 5), 4.0)]
        assert a == b


class TestDensityGradient:
    def test_no_matching_payloads(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 1, (5, 5, 5), 1.0, 3))
        g.commit()
        assert g.density_gradient((5, 5, 5), index=7) == (0.0, 0.0, 0.0)

    def test_at_kernel_peak(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 1, (5, 5, 5), 1.0, 3))
        g.commit()
        assert g.density_gradient((5, 5, 5), 1) == pytest.approx((0.0, 0.0, 0.0))

    def test_points_toward_source(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 1, (7, 5, 5), 2.0, 3))
        g.commit()
        gx, gy, gz = g.density_gradient((5, 5, 5), 1)
        assert gx > 0
        assert gy == pytest.approx(0.0, abs=1e-12)
        assert gz == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = random.Random(3)
        g = make_grid()
        for _ in range(25):
            g.deposit(g.new_payload(TRANSMITTER, 1,
                                    tuple(rng.uniform(0, 10) for _ in range(3)),
                                    rng.uniform(0.5, 2.0), 3))
        g.commit()
        h = 1e-5
        for _ in range(10):
            pos = tuple(rng.uniform(0, 10) for _ in range(3))
            grad = g.density_gradient(pos, 1, sigma=1.5)
            for axis in range(3):
                plus = list(pos)
                plus[axis] += h
                minus = list(pos)
                minus[axis] -= h
                fd = (density(g, tuple(plus), 1, 1.5)
                      - density(g, tuple(minus), 1, 1.5)) / (2 * h)
                assert grad[axis] == pytest.approx(fd, abs=1e-6)


class TestDecayAndExpire:
    def test_ttl_zero_removed_next_tick(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 0, (5, 5, 5), 1.0, 0))
        g.commit()
        assert g.decay_and_expire(1.0) == 1
        assert g.payloads == {}

    def test_magnitude_halved(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 0, (5, 5, 5), 2.0, 10))
        g.commit()
        g.decay_and_expire(0.5)
        assert next(iter(g.payloads.values())).magnitude == pytest.approx(1.0)

    def test_no_decay_keeps_everything(self):
        g = make_grid()
        for i in range(5):
            g.deposit(g.new_payload(ARCHITECTOR, i, (5, 5, 5), 1.0, 100))
        g.commit()
        assert g.decay_and_expire(1.0) == 0
        assert len(g.payloads) == 5

    def test_bad_factor(self):
        with pytest.raises(GridError):
            make_grid().decay_and_expire(0.0)


class TestConservation:
    def test_counts_balance(self):
        g = make_grid()
        rng = random.Random(4)
        for _ in range(30):
            g.deposit(g.new_payload(TRANSMITTER, 0,
                                    tuple(rng.uniform(0, 10) for _ in range(3)),
                                    1.0, rng.randrange(3)))
        g.commit()
        start = len(g.payloads)
        consumed_ids = list(g.payloads)[:10]
        for pid in consumed_ids:
            g.remove(pid)
        g.commit()
        expired = g.decay_and_expire(0.9)
        assert len(g.payloads) == start - len(consumed_ids) - expired


class TestPersistence:
    def test_roundtrip(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 2, (1, 2, 3), 1.5, 4,
                                properties={"excitatory": -1}))
        g.deposit(g.new_payload(ARCHITECTOR, 0, (4, 5, 6), 0.5, 2,
                                properties={"target_action": "Apoptosis"}))
        g.commit()
        g2 = decode(NeuralGrid, encode(g))
        assert encode(g2) == encode(g)
        assert [pl.pid for pl in g2.query_radius((1, 2, 3), 0.5)] == \
               [pl.pid for pl in g.query_radius((1, 2, 3), 0.5)]


coords = st.tuples(*[st.floats(0.0, 10.0, allow_nan=False)] * 3)
grid_ops = st.lists(st.one_of(
    st.tuples(st.just("deposit"), st.lists(st.tuples(
        st.sampled_from([TRANSMITTER, ARCHITECTOR]), coords, st.integers(0, 2),
        st.floats(0.01, 3.0), st.integers(0, 4)), min_size=1, max_size=8)),
    st.tuples(st.just("remove"), st.integers(0, 100)),
    st.tuples(st.just("commit")),
    st.tuples(st.just("decay"), st.floats(0.05, 1.0)),
    # indices 3 and 4 are never deposited
    st.tuples(st.just("query"), st.tuples(*[st.floats(-2.0, 12.0, allow_nan=False)] * 3),
              st.floats(0.0, 6.0), st.sets(st.integers(0, 4))),
    st.tuples(st.just("repeat"), st.integers(0, 20)),
    st.tuples(st.just("gradient"), coords, st.integers(0, 2), st.floats(0.3, 3.0)),
), min_size=5, max_size=40)


class TestAgainstReference:
    """Random grid histories of both kinds; every query equals the reference exactly."""

    @settings(max_examples=200, deadline=None)
    @given(cell_size=st.sampled_from([0.5, 1.0, 2.0, 5.0]), ops=grid_ops)
    def test_random_histories(self, cell_size, ops):
        g = make_grid(cell_size)
        queries = []

        def check_query(center, r, indices):
            assert ([pl.pid for pl in g.query_radius(center, r)]
                    == reference_query_radius(g, center, r))
            assert ([pl.pid for pl in g.query_radius(center, r, indices)]
                    == reference_filtered_query(g, center, r, indices))

        for op in ops:
            if op[0] == "deposit":
                for kind, pos, index, mag, ttl in op[1]:
                    g.deposit(g.new_payload(kind, index, pos, mag, ttl))
            elif op[0] == "remove":
                g.remove(op[1])
            elif op[0] == "commit":
                g.commit()
            elif op[0] == "decay":
                g.decay_and_expire(op[1])
            elif op[0] == "gradient":
                _, pos, index, sigma = op
                assert (g.density_gradient(pos, index, sigma)
                        == reference_density_gradient(g, pos, index, sigma))
            elif op[0] == "query":
                queries.append(op[1:])
                check_query(*op[1:])
            elif queries:  # repeat an earlier query, possibly across commits
                check_query(*queries[op[1] % len(queries)])

    def test_query_sees_the_next_commit(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 0, (5, 5, 5), 1.0, 3))
        g.commit()
        assert [pl.pid for pl in g.query_radius((5, 5, 5), 1.0)] == [0]
        g.deposit(g.new_payload(TRANSMITTER, 0, (5, 5, 5.5), 1.0, 3))
        g.commit()
        assert [pl.pid for pl in g.query_radius((5, 5, 5), 1.0)] == [0, 1]

    def test_gradient_sees_decayed_magnitudes(self):
        g = make_grid()
        g.deposit(g.new_payload(TRANSMITTER, 1, (6, 5, 5), 2.0, 10))
        g.commit()
        before = g.density_gradient((5, 5, 5), 1)
        g.decay_and_expire(0.5)
        after = g.density_gradient((5, 5, 5), 1)
        assert after == reference_density_gradient(g, (5, 5, 5), 1)
        assert after[0] == pytest.approx(before[0] / 2)

    def test_mutating_a_result_leaves_the_next_unchanged(self):
        g = make_grid()
        for x in (4.5, 5.5):
            g.deposit(g.new_payload(TRANSMITTER, 0, (x, 5, 5), 1.0, 3))
        g.commit()
        first = g.query_radius((5, 5, 5), 1.0)
        first.clear()
        assert [pl.pid for pl in g.query_radius((5, 5, 5), 1.0)] == [0, 1]
