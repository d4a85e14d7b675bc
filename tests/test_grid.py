"""Tests for the neural grid: commit semantics, queries, gradients, decay."""
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from eden.codec import decode, dumps_canonical, encode
from eden.grid import ARCHITECTOR, TRANSMITTER, GridError, NeuralGrid, TransArchPayload

from reference_engine import (reference_density_gradient, reference_filtered_query,
                              reference_query_radius)
from test_acceptance import density


def make_grid(cell_size=2.0):
    return NeuralGrid((0, 0, 0), (10, 10, 10), cell_size=cell_size)


class TestDeposit:
    def test_invisible_before_commit(self):
        g = make_grid()
        g.stage(TRANSMITTER, 0, (5, 5, 5), 1.0, 3)
        assert g.query_radius((5, 5, 5), 0.1) == []

    def test_visible_after_commit(self):
        g = make_grid()
        g.stage(TRANSMITTER, 0, (5, 5, 5), 1.0, 3)
        g.commit()
        assert len(g.query_radius((5, 5, 5), 0.1)) == 1

    def test_out_of_bounds_rejected(self):
        # staging clamps, so only a grid built from saved payloads can hold one
        outside = TransArchPayload(0, TRANSMITTER, 0, (11.0, 5.0, 5.0), 1.0, 3)
        with pytest.raises(GridError, match="outside the grid bounds"):
            NeuralGrid((0, 0, 0), (10, 10, 10), next_pid=1, payloads={0: outside})

    def test_staged_payload_is_clamped_numbered_and_float_typed(self):
        g = make_grid()
        g.next_pid = 7
        g.stage(TRANSMITTER, 2, (11, -3, 5), 2, 3, {"excitatory": -1})
        assert g.next_pid == 8
        g.commit()
        assert list(g.payloads) == [7]
        pl = g.payloads[7]
        assert (pl.position, pl.magnitude, pl.properties) == ((10.0, 0.0, 5.0), 2.0,
                                                              {"excitatory": -1})
        assert {type(v) for v in (*pl.position, pl.magnitude)} == {float}

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.one_of(st.floats(allow_nan=False), st.integers(-20, 20),
                                 st.sampled_from([0.0, -0.0, 10.0]))] * 3))
    def test_clamp_is_min_of_max(self, position):
        # bit for bit, signed zeros included, as floats: the definition the
        # reference digests were recorded with
        g = NeuralGrid((-0.0, 0, 0), (10, 10, 10))
        expected = [float(min(max(c, lo), hi))
                    for c, lo, hi in zip(position, g.bounds_min, g.bounds_max)]
        assert list(map(repr, g.clamp(position))) == list(map(repr, expected))

    @pytest.mark.parametrize("position", [(math.nan, 5, 5), (5, 5, math.nan)])
    def test_nan_coordinate_rejected(self, position):
        g = make_grid()
        with pytest.raises(GridError):
            g.stage(TRANSMITTER, 0, position, 1.0, 3)
        g.commit()
        assert g.payloads == {} and g.next_pid == 0

    def test_nonpositive_magnitude_rejected(self):
        g = make_grid()
        with pytest.raises(GridError):
            g.stage(TRANSMITTER, 0, (1, 1, 1), 0.0, 3)
        g.commit()
        assert g.payloads == {} and g.next_pid == 0


class TestQueryRadius:
    def test_empty_grid(self):
        assert make_grid().query_radius((5, 5, 5), 3.0) == []

    def test_distance_cutoff(self):
        g = make_grid()
        g.stage(TRANSMITTER, 0, (5, 5, 7), 1.0, 3)
        g.commit()
        assert g.query_radius((5, 5, 5), 1.0) == []
        assert len(g.query_radius((5, 5, 5), 2.0)) == 1

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            g = make_grid(cell_size=rng.choice([0.5, 1.0, 2.0, 5.0]))
            for _ in range(100):
                pos = tuple(rng.uniform(0, 10) for _ in range(3))
                g.stage(TRANSMITTER, rng.randrange(4), pos,
                        rng.uniform(0.1, 2.0), 3)
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

    def test_cell_range_at_cell_boundaries(self):
        # payloads on cell boundaries, and centres whose c - r or c + r lands on
        # one; the grid reaches below zero, where floor and truncation differ
        g = NeuralGrid((-6, -6, -6), (10, 10, 10), cell_size=2.0)
        spots = [(x, y, 4.0) for x in (-2.0, 0.0, 2.0, 4.0, 6.0) for y in (-2.0, 2.0, 4.0)]
        for i, pos in enumerate(spots + [(-1.5, -1.5, 4.0)]):
            kind = ARCHITECTOR if i % 3 == 2 else TRANSMITTER
            g.stage(kind, i % 2, pos, 1.0, 3)
        g.commit()
        queries = [((4, 4, 4), 2), ((4.0, 2.0, 4.0), 2.0), ((2.0, 2.0, 6.0), 2.0),
                   ((-4.0, 4.0, 4.0), 2.0), ((-1.0, 2.0, 4.0), 3.0), ((0.0, -4.0, 2.0), 2.0),
                   ((6, 4, 4), 0), ((-6, -6, -6), 2), ((-2.5, -2.5, 4.0), 0.5),
                   ((-1.0, -1.0, 4.0), 0.75), ((3.0, 3.0, 4.0), 1.0)]
        hits = 0
        for center, r in queries:
            found = [pl.pid for pl in g.query_radius(center, r)]
            assert found == reference_query_radius(g, center, r)
            hits += len(found)
            for indices in ({0}, {1}, {0, 1}):
                assert ([pl.pid for pl in g.query_radius(center, r, indices)]
                        == reference_filtered_query(g, center, r, indices))
        assert [pl.position for pl in g.query_radius((-4.0, 4.0, 4.0), 2.0)] == [(-2.0, 4.0, 4.0)]
        assert [pl.position for pl in g.query_radius((-1.0, -1.0, 4.0), 0.75)] == [(-1.5, -1.5, 4.0)]
        assert hits > len(queries)

    def test_identical_queries_between_commits(self):
        g = make_grid()
        rng = random.Random(2)
        for _ in range(20):
            g.stage(TRANSMITTER, 0,
                    tuple(rng.uniform(0, 10) for _ in range(3)), 1.0, 3)
        g.commit()
        a = [pl.pid for pl in g.query_radius((5, 5, 5), 4.0)]
        g.stage(TRANSMITTER, 0, (5, 5, 5), 1.0, 3)  # staged only
        b = [pl.pid for pl in g.query_radius((5, 5, 5), 4.0)]
        assert a == b


class TestDensityGradient:
    def test_no_matching_payloads(self):
        g = make_grid()
        g.stage(TRANSMITTER, 1, (5, 5, 5), 1.0, 3)
        g.commit()
        assert g.density_gradient((5, 5, 5), index=7) == (0.0, 0.0, 0.0)

    def test_at_kernel_peak(self):
        g = make_grid()
        g.stage(TRANSMITTER, 1, (5, 5, 5), 1.0, 3)
        g.commit()
        assert g.density_gradient((5, 5, 5), 1) == pytest.approx((0.0, 0.0, 0.0))

    def test_vanished_terms_add_to_positive_zero(self):
        # exp underflows to 0.0, so each term is 0.0 * d = -0.0; the sum
        # starts from +0.0 as the scalar loop's does, and -0.0 + 0.0 is +0.0
        g = make_grid()
        g.stage(TRANSMITTER, 1, (0, 0, 0), 1.0, 3)
        g.stage(TRANSMITTER, 1, (0, 0, 1), 1.0, 3)
        g.commit()
        positive_zeros = ["0x0.0p+0"] * 3
        for grad in (g.density_gradient((10, 10, 10), 1, sigma=0.3),
                     reference_density_gradient(g, (10, 10, 10), 1, sigma=0.3)):
            assert list(map(float.hex, grad)) == positive_zeros

    def test_points_toward_source(self):
        g = make_grid()
        g.stage(TRANSMITTER, 1, (7, 5, 5), 2.0, 3)
        g.commit()
        gx, gy, gz = g.density_gradient((5, 5, 5), 1)
        assert gx > 0
        assert gy == pytest.approx(0.0, abs=1e-12)
        assert gz == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = random.Random(3)
        g = make_grid()
        for _ in range(25):
            g.stage(TRANSMITTER, 1,
                    tuple(rng.uniform(0, 10) for _ in range(3)),
                    rng.uniform(0.5, 2.0), 3)
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
        g.stage(TRANSMITTER, 0, (5, 5, 5), 1.0, 0)
        g.commit()
        assert g.decay_and_expire(1.0) == 1
        assert g.payloads == {}

    def test_magnitude_halved(self):
        g = make_grid()
        g.stage(TRANSMITTER, 0, (5, 5, 5), 2.0, 10)
        g.commit()
        g.decay_and_expire(0.5)
        assert next(iter(g.payloads.values())).magnitude == pytest.approx(1.0)

    def test_no_decay_keeps_everything(self):
        g = make_grid()
        for i in range(5):
            g.stage(ARCHITECTOR, i, (5, 5, 5), 1.0, 100)
        g.commit()
        assert g.decay_and_expire(1.0) == 0
        assert len(g.payloads) == 5

    def test_bad_factor(self):
        with pytest.raises(GridError):
            make_grid().decay_and_expire(0.0)

    def test_magnitude_underflowing_to_zero_expires(self):
        """With an epsilon of 0 a magnitude can underflow to 0.0, which a
        payload may not hold: it expires, so the grid still saves and loads."""
        g = make_grid()
        g.stage(TRANSMITTER, 0, (5, 5, 5), 1.0, 10)
        g.commit()
        assert g.decay_and_expire(1e-300, epsilon_magnitude=0.0) == 0
        assert g.decay_and_expire(1e-300, epsilon_magnitude=0.0) == 1
        assert g.payloads == {}


class TestConservation:
    def test_counts_balance(self):
        g = make_grid()
        rng = random.Random(4)
        for _ in range(30):
            g.stage(TRANSMITTER, 0,
                    tuple(rng.uniform(0, 10) for _ in range(3)),
                    1.0, rng.randrange(3))
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
        g.stage(TRANSMITTER, 2, (1, 2, 3), 1.5, 4,
                properties={"excitatory": -1})
        g.stage(ARCHITECTOR, 0, (4, 5, 6), 0.5, 2,
                properties={"target_action": "Apoptosis"})
        g.commit()
        g2 = decode(NeuralGrid, encode(g))
        assert dumps_canonical(encode(g2)) == dumps_canonical(encode(g))
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
                    g.stage(kind, index, pos, mag, ttl)
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
        g.stage(TRANSMITTER, 0, (5, 5, 5), 1.0, 3)
        g.commit()
        assert [pl.pid for pl in g.query_radius((5, 5, 5), 1.0)] == [0]
        g.stage(TRANSMITTER, 0, (5, 5, 5.5), 1.0, 3)
        g.commit()
        assert [pl.pid for pl in g.query_radius((5, 5, 5), 1.0)] == [0, 1]

    def test_gradient_sees_decayed_magnitudes(self):
        g = make_grid()
        g.stage(TRANSMITTER, 1, (6, 5, 5), 2.0, 10)
        g.commit()
        before = g.density_gradient((5, 5, 5), 1)
        g.decay_and_expire(0.5)
        after = g.density_gradient((5, 5, 5), 1)
        assert after == reference_density_gradient(g, (5, 5, 5), 1)
        assert after[0] == pytest.approx(before[0] / 2)

    def test_mutating_a_result_leaves_the_next_unchanged(self):
        g = make_grid()
        for x in (4.5, 5.5):
            g.stage(TRANSMITTER, 0, (x, 5, 5), 1.0, 3)
        g.commit()
        first = g.query_radius((5, 5, 5), 1.0)
        first.clear()
        assert [pl.pid for pl in g.query_radius((5, 5, 5), 1.0)] == [0, 1]
