"""Tests for the neural grid: commit semantics, queries, gradients, decay."""
import math
import random

import pytest

from eden.codec import decode, encode
from eden.grid import ARCHITECTOR, TRANSMITTER, GridError, NeuralGrid

from test_acceptance import density


def make_grid(cell_size=2.0):
    return NeuralGrid((0, 0, 0), (10, 10, 10), cell_size=cell_size)


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
