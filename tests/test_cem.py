"""Tests for the PWR tensor engine: transfer, propagation, routers, backprop."""
import copy
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eden.cem import (CENTER, ROUTER_OPTIONS, DepositError, GoalPlane,
                      PropagationTrace, PwrTensor, StructureError, plane_sum)
from eden.codec import decode, dumps_canonical, encode
from reference_engine import (reference_forward_propagate, reference_gradients,
                              reference_randomize_stale_routers,
                              reference_update_routers_on_spike, transfer)


# values a saved state's energy fields may not hold: a state is saved between
# passes, so they are all +0.0
UNCLEARED = [("p", 0.5), ("p", -0.0), ("plane_energy_acc", 0.5), ("plane_energy_acc", -0.0)]


def dense(t):
    """The X*Y*Z energy lattice of the recorded pass of ``t``, rebuilt from
    ``last_trace``; all +0.0 without a record."""
    n = t.dim_xy
    lattice = np.zeros((n, n, t.dim_z))
    for z, cells in enumerate(t.last_trace.energized if t.last_trace else []):
        for k, v in cells:
            lattice[k // n, k % n, z] = v
    return lattice


def record_of(lattice):
    """A pass record whose energized cells are the nonzero cells of ``lattice``."""
    return PropagationTrace(energized=[
        [(k, v) for k, v in enumerate(lattice[:, :, z].ravel().tolist()) if v > 0.0]
        for z in range(lattice.shape[2])])


def sparse_lattice(seed, shape, fill):
    """A lattice with a ``fill`` share of cells energized, magnitudes spread
    over 10 decades."""
    g = np.random.default_rng(seed)
    values = g.uniform(0.0, 2.0, shape) * 10.0 ** g.integers(-5, 6, shape)
    return np.where(g.random(shape) < fill, values, 0.0)


def sigmoid_oracle(v):
    # independent path: tanh identity instead of the logistic form
    return 0.5 * (1.0 + math.tanh(v / 2.0))


class TestRouterOptions:
    def test_nine_distinct_options(self):
        assert len(ROUTER_OPTIONS) == 9
        assert len(set(ROUTER_OPTIONS)) == 9
        assert all(dx in (-1, 0, 1) and dy in (-1, 0, 1) for dx, dy in ROUTER_OPTIONS)

    def test_center_is_direct_route(self):
        assert ROUTER_OPTIONS[CENTER] == (0, 0)


class TestTransfer:
    def test_zero_energy_full_weight(self):
        assert transfer(0.0, 1.0, 0.05) == pytest.approx(0.45, abs=1e-12)

    def test_high_decay(self):
        assert transfer(0.0, 0.0, 0.49) == pytest.approx(0.01, abs=1e-12)

    def test_unit_product_no_decay(self):
        expected = sigmoid_oracle(1.0)
        assert transfer(1.0, 1.0, 0.0) == pytest.approx(expected, abs=1e-12)
        assert transfer(1.0, 1.0, 0.0) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_never_negative(self):
        rng = random.Random(7)
        for _ in range(1000):
            val = transfer(rng.uniform(0, 10), rng.random(), rng.uniform(0, 0.499))
            assert val >= 0.0


class TestConstruction:
    def test_bad_dims(self):
        with pytest.raises(StructureError):
            PwrTensor(0, 4)
        with pytest.raises(StructureError):
            PwrTensor(4, 0)
        with pytest.raises(StructureError):
            PwrTensor(2, 3, plane_energy_acc=np.zeros(2))

    def test_random_init_ranges(self):
        t = PwrTensor.random(3, 5, random.Random(1))
        assert t.last_trace is None and t.energy() == 0.0
        assert np.all((t.w >= 0) & (t.w <= 1))
        assert np.all((t.r >= 0) & (t.r < 9))

    def test_random_draws_weight_then_router_per_cell_in_xyz_order(self):
        t = PwrTensor.random(3, 4, random.Random(9))
        rng = random.Random(9)
        for x, y, z in np.ndindex(3, 3, 4):
            assert t.w[x, y, z] == rng.random()
            assert t.r[x, y, z] == rng.randrange(9)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), dim_xy=st.integers(1, 6), dim_z=st.integers(1, 6))
    def test_random_is_exactly_the_randrange_loop(self, seed, dim_xy, dim_z):
        # the loop it replaced: a router per cell is randrange(9)
        oracle = random.Random(seed)
        ws, rs = [], []
        for _ in range(dim_xy * dim_xy * dim_z):
            ws.append(oracle.random())
            rs.append(oracle.randrange(len(ROUTER_OPTIONS)))
        rng = random.Random(seed)
        t = PwrTensor.random(dim_xy, dim_z, rng)
        assert t.w.ravel().tolist() == ws
        assert t.r.ravel().tolist() == rs
        assert rng.getstate() == oracle.getstate()

    def test_lattices_are_c_contiguous(self):
        w = np.asfortranarray(np.arange(36.0).reshape(3, 3, 4) / 36.0)
        t = PwrTensor(3, 4, p=np.zeros((3, 3, 4), order="F"), w=w,
                      r=np.asfortranarray(np.full((3, 3, 4), 2, dtype=np.int8)))
        assert all(a.flags.c_contiguous for a in (t.p, t.w, t.r, t.plane_energy_acc))
        assert np.array_equal(t.w, w)

    @pytest.mark.parametrize("field, value", UNCLEARED)
    def test_energy_is_refused(self, field, value):
        lattices = {"p": np.zeros((2, 2, 3)), "plane_energy_acc": np.zeros(3)}
        lattices[field].flat[1] = value
        with pytest.raises(StructureError):
            PwrTensor(2, 3, **lattices)

    @pytest.mark.parametrize("value", [float("nan"), 5.0, -2.0, 1.0000000000000002, -1e-300,
                                       float("inf")])
    @pytest.mark.parametrize("container", [list, np.array])
    def test_weight_is_refused(self, value, container):
        w = np.full((2, 2, 3), 0.5).tolist()
        w[1][0][2] = value
        with pytest.raises(StructureError):
            PwrTensor(2, 3, w=container(w))

    def test_weight_bounds_are_allowed(self):
        w = np.zeros((2, 2, 3))
        w[1, 0, 2] = 1.0
        assert PwrTensor(2, 3, w=w).w.tobytes() == w.tobytes()

    @pytest.mark.parametrize("value", [-1, 0.5, 9, 12, 300, float("nan")])
    @pytest.mark.parametrize("container", [list, np.array])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast")
    def test_router_is_refused(self, value, container):
        r = np.zeros((2, 2, 3)).tolist()
        r[1][0][2] = value
        with pytest.raises(StructureError):
            PwrTensor(2, 3, r=container(r))


class TestAccumulatePlaneEnergy:
    """PE_z = at_mod * PE_{z-1} + plane_sum(plane z), with PE_{-1} = 0."""

    def test_empty_plane(self):
        assert plane_sum([], 16) == 0.0
        t = PwrTensor(4, 4)
        spike = t.forward_propagate([], 0.0, 0.0)  # a zero threshold spikes on PE_0
        assert spike.z_index == 0
        assert np.float64(spike.plane_energy).tobytes() == bytes(8)  # +0.0, not -0.0
        t = PwrTensor(4, 4)
        assert t.forward_propagate([(0, 0, 1.0), (0, 0, -1.0)], 1e18, 0.0) is None
        assert not any(t.last_trace.energized)
        assert np.float64(t.energy()).tobytes() == bytes(8)

    def test_plane_of_ones(self):
        assert plane_sum([(k, 1.0) for k in range(16)], 16) == 16.0
        t = PwrTensor(4, 4)
        spike = t.forward_propagate([(x, y, 1.0) for x in range(4) for y in range(4)], 16.0, 0.0)
        assert (spike.z_index, spike.plane_energy) == (0, 16.0)

    def test_recursion_carries_previous(self):
        # PE_z rises plane by plane, so a threshold of exactly PE_z spikes on plane z
        s1 = transfer(1.731, 1.0, 0.0)
        expected = [1.731, 0.8 * 1.731 + s1]
        expected.append(0.8 * expected[1] + transfer(s1, 1.0, 0.0))
        for z, pe in enumerate(expected):
            spike = PwrTensor(2, 3).forward_propagate([(0, 0, 1.731)], pe, 0.0, at_mod=0.8)
            assert (spike.z_index, spike.plane_energy) == (z, pe)

    def test_out_of_range(self):
        # a pass without a spike accumulates every plane and no further
        t = PwrTensor(2, 3)
        t.forward_propagate([(1, 0, 0.4)], 1e18, 0.0)
        assert len(t.last_trace.energized) == 3
        assert len(t.last_trace.hops_by_plane) == 2
        assert all(t.last_trace.energized)  # every plane holds energy

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim_xy=st.integers(1, 16),
           dim_z=st.integers(1, 6), fill=st.floats(0.0, 1.0))
    def test_plane_sum_is_numpy_sum(self, seed, dim_xy, dim_z, fill):
        # strided planes of a C-contiguous lattice, below and above the
        # 128-cell split, from empty to full; magnitudes spread over 10 decades
        rng = random.Random(seed)
        lattice = np.zeros((dim_xy, dim_xy, dim_z))
        for idx in np.ndindex(lattice.shape):
            if rng.random() < fill:
                lattice[idx] = rng.uniform(0.0, 2.0) * 10.0 ** rng.randint(-5, 5)
        for z in range(dim_z):
            cells = [(k, v) for k, v in enumerate(lattice[:, :, z].ravel().tolist())
                     if v > 0.0]
            assert plane_sum(cells, dim_xy * dim_xy) == float(lattice[:, :, z].sum())

    # numpy buffers reductions in blocks of 8192 elements; 16*16*100 is 25,600 cells
    @settings(max_examples=300, deadline=None)
    @example(seed=0, dim_xy=16, dim_z=100, fill=0.3)
    @example(seed=1, dim_xy=16, dim_z=33, fill=1.0)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim_xy=st.integers(1, 16),
           dim_z=st.integers(1, 100), fill=st.floats(0.0, 1.0))
    def test_energy_is_numpy_sum(self, seed, dim_xy, dim_z, fill):
        lattice = sparse_lattice(seed, (dim_xy, dim_xy, dim_z), fill)
        t = PwrTensor(dim_xy, dim_z)
        t.last_trace = record_of(lattice)
        assert t.energy() == float(lattice.sum())


class TestForwardPropagate:
    def test_no_energy_no_spike(self):
        t = PwrTensor(4, 4)
        assert t.forward_propagate([], 2.0, 0.0) is None
        assert not any(t.last_trace.energized)
        assert t.energy() == 0.0

    def test_entry_plane_spike(self):
        t = PwrTensor(4, 4)
        spike = t.forward_propagate([(1, 1, 5.0)], 2.0, 0.0)
        assert spike.z_index == 0
        assert spike.plane_energy == pytest.approx(5.0)

    def test_hand_traced_z2_spike(self):
        # single deposit 1.0, w=1, dr=0, CENTER routers: climbs two planes
        t = PwrTensor(4, 4)
        spike = t.forward_propagate([(1, 1, 1.0)], 2.0, 0.0)
        s1 = sigmoid_oracle(1.0)
        expected = 1.0 + s1 + sigmoid_oracle(s1)
        assert spike.z_index == 2
        assert spike.plane_energy == pytest.approx(expected, abs=1e-9)

    def test_deposit_out_of_range(self):
        t = PwrTensor(2, 3)
        with pytest.raises(DepositError):
            t.forward_propagate([(5, 0, 1.0)], 2.0, 0.0)

    def test_residual_retained_without_spike(self):
        t = PwrTensor(2, 2)
        assert t.forward_propagate([(0, 0, 0.5)], 100.0, 0.0) is None
        assert t.energy() > 0.5  # deposit plus transferred share

    def test_clamped_share_records_its_hop_and_energizes_nothing(self):
        # sigmoid(0.1 * 1.0) - 0.6 < 0: the share clamps to zero
        t = PwrTensor(2, 3)
        ref = copy.deepcopy(t)
        assert transfer(0.1, 1.0, 0.6) == 0.0
        assert t.forward_propagate([(1, 0, 0.1)], 10.0, 0.6) is None
        assert t.last_trace.energized == [[(2, 0.1)], [], []]
        assert t.last_trace.hops_by_plane == [[2], []]  # CENTER route: straight up
        ref_spike, ref_p, ref_trace = reference_forward_propagate(ref, [(1, 0, 0.1)], 10.0, 0.6)
        assert ref_spike is None
        assert t.last_trace == ref_trace
        assert dense(t).tobytes() == ref_p.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim_xy=st.integers(1, 12),
           dim_z=st.integers(1, 12), min_e_per_cell=st.floats(0.1, 10.0),
           fill=st.sampled_from([0.0, 0.1, 0.5, 1.0]), frames=st.integers(1, 4),
           dr=st.sampled_from([0.0, 0.05, 0.3, 0.6]), at_mod=st.sampled_from([1.0, 0.8]),
           passes=st.integers(1, 5))
    def test_matches_scalar_reference_exactly(self, seed, dim_xy, dim_z, min_e_per_cell,
                                              fill, frames, dr, at_mod, passes):
        # a threshold that scales with the plane lets dense planes climb
        # too, where several cells send to one target and order matters
        min_e = min_e_per_cell * dim_xy * dim_xy
        rng = random.Random(seed)
        t = PwrTensor.random(dim_xy, dim_z, rng)
        ref = copy.deepcopy(t)
        for _ in range(passes):  # one pass per epoch, each from cleared energy
            # an epoch's input: `frames` rounds of deposits on a `fill` share
            # of the entry cells, some cancelling, some negative
            deposits = [(x, y, rng.uniform(-0.5, 2.0)) for _ in range(frames)
                        for x in range(dim_xy) for y in range(dim_xy) if rng.random() < fill]
            rng.shuffle(deposits)
            spike = t.forward_propagate(deposits, min_e, dr, at_mod)
            ref_spike, ref_p, ref_trace = reference_forward_propagate(ref, deposits, min_e, dr,
                                                                      at_mod)
            assert spike == ref_spike
            assert t.last_trace == ref_trace
            assert dense(t).tobytes() == ref_p.tobytes()  # every energized value, bitwise
            for z in range(dim_z):
                assert t.plane(z).tobytes() == ref_p[:, :, z].tobytes()
            assert t.energy() == float(ref_p.sum())
            if spike is not None:
                t.update_routers_on_spike(spike)
                reference_update_routers_on_spike(ref.r, ref_p, ref_spike.z_index)
            else:
                assert (t.randomize_stale_routers(random.Random(seed))
                        == reference_randomize_stale_routers(ref.r, ref_p, random.Random(seed)))
            assert t.r.tobytes() == ref.r.tobytes()
            t.reset_propagation()

    def test_second_pass_without_reset_raises(self):
        t = PwrTensor(2, 3)
        assert t.forward_propagate([(0, 0, 0.5)], 100.0, 0.0) is None
        before = copy.deepcopy(t.last_trace)
        with pytest.raises(StructureError):
            t.forward_propagate([(1, 1, 0.5)], 100.0, 0.0)
        assert t.last_trace == before  # the residual is neither dropped nor added to
        t.reset_propagation()
        assert t.forward_propagate([(1, 1, 0.5)], 100.0, 0.0) is None

    def test_pass_after_a_spike_without_reset_raises(self):
        t = PwrTensor(2, 3)
        spike = t.forward_propagate([(0, 0, 5.0)], 2.0, 0.0)
        t.update_routers_on_spike(spike)
        with pytest.raises(StructureError):
            t.forward_propagate([(0, 0, 5.0)], 2.0, 0.0)

    def test_pass_that_left_no_energy_counts_as_cleared(self):
        t = PwrTensor(2, 3)
        assert t.forward_propagate([(0, 0, 1.0), (0, 0, -1.0)], 100.0, 0.0) is None
        assert t.forward_propagate([(1, 1, 0.5)], 100.0, 0.0) is None

    def test_record_holding_energy_raises(self):
        t = PwrTensor(2, 3)
        t.last_trace = PropagationTrace(energized=[[], [(1, 0.5)], []])
        with pytest.raises(StructureError):
            t.forward_propagate([(0, 0, 1.0)], 100.0, 0.0)

    @pytest.mark.parametrize("field, value", UNCLEARED)
    def test_energy_written_outside_a_pass_raises(self, field, value):
        # energy lives in the pass record; a saved state's energy fields are all
        # +0.0, so one holding anything else is refused at load, before any pass
        state = encode(PwrTensor(2, 3))
        values = np.array(state[field])
        values.flat[1] = value
        state[field] = values.tolist()
        with pytest.raises(StructureError):
            decode(PwrTensor, state)

    def test_center_routers_no_lateral_spread(self):
        t = PwrTensor(4, 6)
        t.forward_propagate([(2, 1, 0.8)], 100.0, 0.0)
        for cells in t.last_trace.energized:
            assert [k for k, _ in cells] == [2 * 4 + 1]


class TestRouterUpdates:
    def test_spike_at_entry_rewires_nothing(self):
        t = PwrTensor(4, 4, r=np.zeros((4, 4, 4)))
        spike = t.forward_propagate([(0, 0, 5.0)], 2.0, 0.0)
        t.update_routers_on_spike(spike)
        assert np.all(t.r == 0)

    def test_single_path_rewired_to_center(self):
        t = PwrTensor(4, 4)
        t.r.fill(0)  # every router sends to (x-1, y-1), clamped
        spike = t.forward_propagate([(1, 1, 1.0)], 2.0, 0.0)
        assert spike.z_index == 2  # (1, 1, 0) -> (0, 0, 1) -> (0, 0, 2)
        t.update_routers_on_spike(spike)
        expected = np.zeros((4, 4, 4), dtype=np.int8)
        expected[1, 1, 0] = expected[0, 0, 1] = CENTER
        assert np.array_equal(t.r, expected)

    def test_unenergized_cells_untouched(self):
        t = PwrTensor(4, 4)
        t.r.fill(0)
        t.r[1, 1, 0] = CENTER
        t.r[1, 1, 1] = CENTER
        spike = t.forward_propagate([(1, 1, 1.0)], 2.0, 0.0)
        t.update_routers_on_spike(spike)
        assert t.r[3, 3, 0] == 0  # never carried energy

    def test_replay_spikes_no_later(self):
        # rewiring concentrates energy: replaying the same deposits cannot
        # push the spike deeper (dr=0 keeps the comparison exact)
        checked = 0
        for seed in range(40):
            rng = random.Random(1000 + seed)
            t = PwrTensor.random(4, 6, rng)
            deposits = [(rng.randrange(4), rng.randrange(4), rng.uniform(0.3, 1.0))
                        for _ in range(3)]
            first = t.forward_propagate(deposits, 2.5, 0.0)
            if first is None:
                continue
            checked += 1
            t.update_routers_on_spike(first)
            t.reset_propagation()
            replay = t.forward_propagate(deposits, 2.5, 0.0)
            assert replay is not None
            assert replay.z_index <= first.z_index
        assert checked >= 20


class TestStaleRouters:
    def test_no_energy_nothing_randomized(self):
        t = PwrTensor(3, 3)
        assert t.randomize_stale_routers(random.Random(0)) == 0

    def test_count_equals_energized_cells(self):
        t = PwrTensor(3, 3)
        lattice = np.zeros((3, 3, 3))
        lattice[0, 0, 0] = 1.0
        lattice[1, 1, 1] = 0.5
        lattice[2, 2, 2] = 0.25
        t.last_trace = record_of(lattice)
        assert t.randomize_stale_routers(random.Random(0)) == 3

    def test_fixed_seed_reproducible(self):
        results = []
        for _ in range(2):
            t = PwrTensor(3, 4)
            lattice = np.zeros((3, 3, 4))
            lattice[0, 0, 0] = lattice[1, 2, 1] = lattice[2, 1, 2] = 1.0
            t.last_trace = record_of(lattice)
            t.randomize_stale_routers(random.Random(42))
            results.append(t.r.copy())
        assert np.array_equal(results[0], results[1])

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim_xy=st.integers(1, 8),
           dim_z=st.integers(1, 12), fill=st.floats(0.0, 1.0),
           dr=st.sampled_from([0.0, 0.05, 0.3]))
    def test_matches_dense_sweep(self, seed, dim_xy, dim_z, fill, dr):
        # the residual of a pass that never spikes, spread by random routers
        rng = random.Random(seed)
        t = PwrTensor.random(dim_xy, dim_z, rng)
        deposits = [(x, y, rng.uniform(0.1, 2.0))
                    for x in range(dim_xy) for y in range(dim_xy) if rng.random() < fill]
        assert t.forward_propagate(deposits, 1e18, dr) is None
        routers = t.r.copy()
        count = t.randomize_stale_routers(random.Random(seed))
        assert count == reference_randomize_stale_routers(routers, dense(t), random.Random(seed))
        assert t.r.tobytes() == routers.tobytes()


class TestReset:
    ENTRY = [(x, y, 5.0) for x in range(3) for y in range(3)]

    def test_reset_clears_p_keeps_w(self):
        t = PwrTensor.random(3, 3, random.Random(5))
        t.forward_propagate(self.ENTRY, 1e18, 0.0)
        assert t.energy() > 0.0
        w_before = t.w.copy()
        t.reset_propagation()
        assert t.last_trace is None and t.energy() == 0.0
        assert all(not t.plane(z).any() for z in range(3))
        assert np.array_equal(t.w, w_before)

    def test_idempotent(self):
        t = PwrTensor(3, 3)
        t.forward_propagate(self.ENTRY, 1e18, 0.0)
        t.reset_propagation()
        t.reset_propagation()
        assert t.last_trace is None and t.energy() == 0.0

    def test_no_spike_after_reset(self):
        t = PwrTensor(3, 3)
        t.forward_propagate(self.ENTRY, 1e18, 0.0)
        t.reset_propagation()
        assert t.forward_propagate([], 0.1, 0.0) is None


def run_loss(tensor_dict, deposits, goal, dr):
    """Forward from a clean state, then squared error at the goal plane."""
    t = decode(PwrTensor, {**tensor_dict, "p": None, "plane_energy_acc": None})
    t.forward_propagate(deposits, 1e18, dr)
    diff = goal.target_p - dense(t)[:, :, goal.z_index]
    return 0.5 * float((diff * diff).sum())


class TestBackprop:
    def _setup(self, seed, dim_xy=3, dim_z=4, dr=0.05):
        rng = random.Random(seed)
        t = PwrTensor.random(dim_xy, dim_z, rng)
        deposits = [(rng.randrange(dim_xy), rng.randrange(dim_xy), rng.uniform(0.5, 2.0))
                    for _ in range(2)]
        t.forward_propagate(deposits, 1e18, dr)  # no spike, full trace
        goal = GoalPlane(z_index=dim_z - 1,
                         target_p=np.array([[rng.random() for _ in range(dim_xy)]
                                            for _ in range(dim_xy)]))
        return t, deposits, goal

    def test_exact_goal_zero_loss_no_change(self):
        t, _, _ = self._setup(0)
        goal = GoalPlane(z_index=3, target_p=dense(t)[:, :, 3])
        w_before = t.w.copy()
        t.backprop_to_goal(goal, 0.5, 0.05)
        assert np.array_equal(t.w, w_before)

    def test_zero_learning_rate_keeps_weights(self):
        t, _, goal = self._setup(1)
        w_before = t.w.copy()
        t.backprop_to_goal(goal, 0.0, 0.05)
        assert np.array_equal(t.w, w_before)

    def test_mismatched_goal_shape(self):
        t, _, _ = self._setup(2)
        bad = GoalPlane(z_index=3, target_p=np.zeros((5, 5)))
        with pytest.raises(StructureError):
            t.backprop_to_goal(bad, 0.1)

    def test_single_path_finite_difference(self):
        rng = random.Random(3)
        t = PwrTensor(1, 3)
        t.w[0, 0, 0], t.w[0, 0, 1] = 0.6, 0.8
        deposits = [(0, 0, 1.5)]
        t.forward_propagate(deposits, 1e18, 0.0)
        goal = GoalPlane(z_index=2, target_p=np.array([[3.0]]))
        grads = t.goal_loss_gradients(goal, 0.0)
        snapshot = encode(t)
        h = 1e-6
        for (x, y, z), g in grads.items():
            plus = copy.deepcopy(snapshot)
            plus["w"][x][y][z] += h
            minus = copy.deepcopy(snapshot)
            minus["w"][x][y][z] -= h
            fd = (run_loss(plus, deposits, goal, 0.0)
                  - run_loss(minus, deposits, goal, 0.0)) / (2 * h)
            assert abs(g - fd) / max(abs(fd), 1e-12) < 1e-5

    def test_random_tensor_finite_differences(self):
        for seed in range(10):
            t, deposits, goal = self._setup(seed, dim_xy=3, dim_z=4)
            grads = t.goal_loss_gradients(goal, 0.05)
            snapshot = encode(t)
            h = 1e-6
            for (x, y, z), g in list(grads.items())[:6]:
                plus = copy.deepcopy(snapshot)
                plus["w"][x][y][z] += h
                minus = copy.deepcopy(snapshot)
                minus["w"][x][y][z] -= h
                fd = (run_loss(plus, deposits, goal, 0.05)
                      - run_loss(minus, deposits, goal, 0.05)) / (2 * h)
                assert abs(g - fd) / max(abs(fd), abs(g), 1e-12) < 1e-5

    def test_weights_stay_clamped(self):
        t, deposits, goal = self._setup(4)
        for _ in range(50):
            t.reset_propagation()
            t.forward_propagate(deposits, 1e18, 0.05)
            t.backprop_to_goal(goal, 2.0, 0.05)
        assert np.all((t.w >= 0) & (t.w <= 1))


class TestPassRecord:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim_xy=st.integers(1, 5),
           dim_z=st.integers(2, 9), min_e=st.floats(0.5, 6.0),
           dr=st.sampled_from([0.0, 0.05, 0.3, 0.6]))
    def test_gradients_after_rewire_match_pre_spike_snapshot(
            self, seed, dim_xy, dim_z, min_e, dr):
        rng = random.Random(seed)
        t = PwrTensor.random(dim_xy, dim_z, rng)
        spike = None
        for _ in range(20):  # one pass per epoch, from cleared energy, until a plane spikes
            t.reset_propagation()
            deposits = [(rng.randrange(dim_xy), rng.randrange(dim_xy), rng.uniform(-0.5, 2.0))
                        for _ in range(rng.randint(1, 4))]
            spike = t.forward_propagate(deposits, min_e, dr)
            if spike is not None:
                break
        assume(spike is not None)
        p, w, r = dense(t), t.w.copy(), t.r.copy()
        trace = t.last_trace
        for cells in trace.energized:  # by increasing flat index, energy > 0
            assert [k for k, _ in cells] == sorted({k for k, _ in cells})
            assert all(v > 0.0 for _, v in cells)
        assert len(trace.hops_by_plane) == spike.z_index
        for z, dsts in enumerate(trace.hops_by_plane):
            assert len(dsts) == len(trace.energized[z])
        t.update_routers_on_spike(spike)
        goal = GoalPlane(z_index=spike.z_index,
                         target_p=np.array([[rng.uniform(0.0, 2.0) for _ in range(dim_xy)]
                                            for _ in range(dim_xy)]))
        grads = t.goal_loss_gradients(goal, dr)
        ref_grads = reference_gradients(p, w, r, goal, dr)
        assert list(grads.items()) == list(ref_grads.items())

    def test_backprop_without_a_recorded_pass_raises(self):
        t = PwrTensor.random(3, 4, random.Random(0))
        goal = GoalPlane(z_index=0, target_p=np.zeros((3, 3)))
        with pytest.raises(StructureError):
            t.goal_loss_gradients(goal)
        with pytest.raises(StructureError):
            t.backprop_to_goal(goal, 0.1)

    def test_backprop_after_reset_raises(self):
        t = PwrTensor.random(3, 4, random.Random(1))
        t.forward_propagate([(1, 1, 1.0)], 1e18, 0.05)
        goal = GoalPlane(z_index=3, target_p=np.ones((3, 3)))
        t.goal_loss_gradients(goal, 0.05)  # valid before the reset
        t.reset_propagation()
        assert t.last_trace is None
        w_before = t.w.copy()
        with pytest.raises(StructureError):
            t.backprop_to_goal(goal, 0.1, 0.05)
        assert np.array_equal(t.w, w_before)


class TestDeterminism:
    def test_bit_identical_state_after_passes(self):
        states = []
        for _ in range(2):
            rng = random.Random(99)
            t = PwrTensor.random(4, 5, rng)
            for k in range(10):
                spike = t.forward_propagate([(k % 4, (k + 1) % 4, 0.7)], 3.0, 0.1)
                if spike is not None:
                    t.update_routers_on_spike(spike)
                else:
                    t.randomize_stale_routers(rng)
                t.reset_propagation()  # epoch end
            states.append(dumps_canonical(encode(t)))
        assert states[0] == states[1]


class TestSpikeThresholdProperty:
    def test_spiking_plane_is_first_to_cross(self):
        for seed in range(15):
            rng = random.Random(seed)
            t = PwrTensor.random(3, 6, rng)
            min_e = rng.uniform(1.0, 3.0)
            spike = t.forward_propagate(
                [(rng.randrange(3), rng.randrange(3), rng.uniform(0.5, 2.0))],
                min_e, 0.05)
            if spike is None:
                continue
            assert spike.plane_energy >= min_e
            lattice, pe = dense(t), 0.0
            for k in range(spike.z_index):
                pe += float(lattice[:, :, k].sum())
                assert pe < min_e
            assert spike.plane_energy == pe + float(lattice[:, :, spike.z_index].sum())
