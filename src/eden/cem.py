"""Currently Expressed Model: the PWR lattices and their propagation machinery.

A process node's computational core is two X*Y*Z lattices (X == Y), weights
in [0,1] and per-cell router options, plus the energy of its one current pass.
Energy deposited on the entry plane climbs plane by plane; each energized cell
forwards a sigmoid-transferred share to exactly one cell of the next plane,
chosen by its router. A plane whose accumulated energy reaches the minimum
threshold spikes.

A plane holds a few energized cells, so the pass is sparse and makes no numpy
call per plane. Each plane's energy is a dict from the row-major flat index
``x*n + y`` to its value. Weights and routers are read per cell through flat
``memoryview``s of the C-contiguous lattices, made on each pass; each route is
looked up in ``router_targets`` (edge-clamped, cached per lattice size). Each
share is the sigmoid of the cell's energy times its weight, minus the
propagation cost ``dr`` and clamped at zero, and each target's shares are
summed in row-major cell order from 0.0. A share that clamps to zero is
not added: +0.0 changes no sum, and a target that gets only such shares holds
no energy. The plane energy is ``plane_sum``, an exact copy of numpy's float64
pairwise sum of the plane, which the trajectories depend on; absent cells
count as +0.0, so it runs over the energized cells only.

A pass keeps its energy only in its record, ``last_trace``, valid until
``reset_propagation`` drops it: per plane, the energized cells with their
energy and the next-plane cell each one sent to. Every reader goes through the
tensor: ``plane`` gives one plane as an X*Y array (the goal plane, backprop),
``energy`` the whole lattice's sum as numpy would add it (``EnergyRequirement``
in ``eden.functome``), and the router rewire and the stale-router sweep walk
the record. The fields ``p`` and ``plane_energy_acc`` are placeholders that
save-state format 1 writes: always +0.0, refused at load otherwise, and read
by nothing else. Once checked, each is the one read-only zeros array of its
shape that every tensor shares (`_cleared`), so nodes hold no copy of them
and a write raises instead of reaching every node.

A pass starts from no energy. The engine runs one pass per node per epoch and
drops the record after a spike or at epoch end, so ``forward_propagate``
raises ``StructureError`` rather than drop energy an earlier pass left. A
pass that left no energized cell counts as cleared. Backprop reads energy from
the record; weights change only after every gradient is known.

Numpy reductions on the trajectory path: none. Plane and lattice sums are
``plane_sum`` and backprop adds per cell.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# The nine router options: lateral (dx, dy) offsets, target plane always z+1.
# CENTER routes straight up (the "direct route").
ROUTER_OPTIONS: tuple[tuple[int, int], ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
)
CENTER: int = ROUTER_OPTIONS.index((0, 0))


class DepositError(ValueError):
    """A deposit landed outside the entry plane."""


class StructureError(ValueError):
    """Mismatched lattice dimensions, a weight outside [0, 1], a router value that
    is no option, or energy where a cleared pass is due."""


@dataclass
class SpikeEvent:
    z_index: int
    plane_energy: float
    epoch: int = -1
    node_id: int = -1


def float_lattice(cells) -> np.ndarray:
    """``cells`` as a C-contiguous float64 array, refused unless numpy reads
    them as numbers: cast to float64 at once, it would read a string as the
    number it spells and null as NaN. An integer past 64 bits is refused too,
    and so is a boolean among the numbers of nested lists."""
    a = np.asarray(cells)
    if a.dtype.kind not in "fiu":
        raise StructureError(f"lattice cells must be numbers, not {a.dtype}")
    if isinstance(cells, list):
        _no_booleans(cells, a.ndim)
    return np.ascontiguousarray(a, dtype=np.float64)


def _no_booleans(cells: list, depth: int) -> None:
    """Refuse a ``bool`` among the cells of nested lists ``depth`` deep, which
    numpy reads as the number 1 or 0 beside other numbers. Lattices as
    `eden.codec.read_lattices` reads them are arrays already, so only a state
    read by ``json`` alone pays for this pass over its cells."""
    for _ in range(depth - 1):
        cells = itertools.chain.from_iterable(cells)
    if bool in set(map(type, cells)):
        raise StructureError("lattice cells must be numbers, not booleans")


@dataclass
class GoalPlane:
    """Backprop target: the propagation values at a reference spike plane."""

    z_index: int
    target_p: np.ndarray  # [X][Y]

    def __post_init__(self):
        self.target_p = float_lattice(self.target_p)


@dataclass
class PropagationTrace:
    """Record of a single forward pass, the only place its energy is kept.

    ``energized[z]`` lists the ``(k, energy)`` pairs of the cells of plane z
    holding energy, by increasing flat index ``k = x*n + y``;
    ``hops_by_plane[z][i]`` is the flat index of the plane z+1 cell that
    ``energized[z][i]`` sent to. The spiking plane and the last plane send nothing.
    """

    hops_by_plane: list[list[int]] = field(default_factory=list)
    energized: list[list[tuple[int, float]]] = field(default_factory=list)
    spike_z: Optional[int] = None


@functools.cache
def router_targets(n: int) -> tuple[tuple[int, ...], ...]:
    """``router_targets(n)[option][k]``: the flat index of the next-plane cell
    that router ``option`` at flat index ``k = x*n + y`` of an n*n plane sends
    to, clamped at the lattice edge."""
    return tuple(
        tuple(min(max(x + dx, 0), n - 1) * n + min(max(y + dy, 0), n - 1)
              for x in range(n) for y in range(n))
        for dx, dy in ROUTER_OPTIONS)


def plane_sum(cells: list[tuple[int, float]], size: int, lo: int = 0) -> float:
    """Numpy's float64 pairwise sum of a contiguous block of ``size`` cells (a
    plane, or a whole lattice), bit for bit.

    ``cells`` holds the (flat index, value) pairs of the cells that may be
    nonzero, in increasing index order; every other cell is +0.0, and adding
    it changes no sum of values >= +0.0. Numpy adds fewer than 8 values in
    order from 0.0. It adds up to 128 in 8 accumulators by index mod 8,
    combines them pairwise and then adds the tail past the last multiple of 8
    in order. It splits a larger block at a multiple of 8 near its middle.
    ``lo`` is the block's first flat index, always a multiple of 8.
    """
    if size < 8:
        total = 0.0
        for _, v in cells:
            total += v
        return total
    if size > 128:
        half = size // 2 - (size // 2) % 8
        mid = bisect.bisect_left(cells, (lo + half,))
        return (plane_sum(cells[:mid], half, lo)
                + plane_sum(cells[mid:], size - half, lo + half))
    acc = [0.0] * 8
    tail = lo + size - size % 8
    i = 0
    for k, v in cells:
        if k >= tail:
            break
        acc[k & 7] += v
        i += 1
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for _, v in cells[i:]:
        total += v
    return total


@functools.cache
def _cleared(shape: tuple) -> np.ndarray:
    """The one all-+0.0 array of ``shape`` that every tensor's ``p`` or
    ``plane_energy_acc`` of that shape holds, read-only: a write raises
    instead of reaching every node."""
    zeros = np.zeros(shape)
    zeros.flags.writeable = False
    return zeros


@dataclass(eq=False)
class PwrTensor:
    """Weight and router lattices plus the record of the current pass.

    ``p`` and ``plane_energy_acc`` are the all-+0.0 energy fields save-state
    format 1 writes, read-only arrays shared by every tensor; nothing else
    reads them.
    """

    dim_xy: int
    dim_z: int
    p: Optional[np.ndarray] = None
    w: Optional[np.ndarray] = None
    r: Optional[np.ndarray] = None
    plane_energy_acc: Optional[np.ndarray] = None
    last_trace: Optional[PropagationTrace] = field(default=None, init=False)

    def __post_init__(self):
        dim_xy, dim_z = self.dim_xy, self.dim_z
        if dim_xy < 1 or dim_z < 1:
            raise StructureError(f"tensor dims must be >= 1, got {dim_xy}x{dim_xy}x{dim_z}")
        shape = (dim_xy, dim_xy, dim_z)
        self.p = _cleared(shape) if self.p is None else float_lattice(self.p)
        self.w = np.ones(shape) if self.w is None else float_lattice(self.w)
        if self.r is None:
            self.r = np.full(shape, CENTER, dtype=np.int8)
        else:
            raw = self.r
            bad_routers = f"router values must be integers in [0, {len(ROUTER_OPTIONS)})"
            try:
                self.r = np.ascontiguousarray(raw, dtype=np.int8)
            except (OverflowError, ValueError) as exc:  # a listed value past int8, or NaN
                raise StructureError(f"{bad_routers}: {exc}") from exc
            # The cast truncates 0.5 and wraps an array's 300, so it must give back
            # the raw values. `eden.codec.read_lattices` hands over routers as
            # int8 already, kept as they are, uncast and uncopied. A lattice
            # loaded by `json` alone is nested lists, compared as lists: cheaper
            # than casting them again. `True == 1`, so the lists are checked for
            # booleans too.
            if isinstance(raw, list):
                _no_booleans(raw, self.r.ndim)
            same = self.r is raw or (self.r.tolist() == raw if isinstance(raw, list)
                                     else (self.r == raw).all())
            # read as uint8, a negative router is >= 128, so one max checks [0, 9)
            if not same or self.r.view(np.uint8).max(initial=0) >= len(ROUTER_OPTIONS):
                raise StructureError(bad_routers)
        self.plane_energy_acc = (_cleared((dim_z,)) if self.plane_energy_acc is None
                                 else float_lattice(self.plane_energy_acc))
        for name, arr, want in (("p", self.p, shape), ("w", self.w, shape), ("r", self.r, shape),
                                ("plane_energy_acc", self.plane_energy_acc, (dim_z,))):
            if arr.shape != want:
                raise StructureError(f"{name} shape {arr.shape} != {want}")
        if not ((self.w >= 0.0) & (self.w <= 1.0)).all():  # NaN fails both
            raise StructureError("weights must lie in [0, 1]")
        # a state is saved between passes, so its energy is +0.0; -0.0 is refused too
        if self.p.view(np.uint64).any() or self.plane_energy_acc.view(np.uint64).any():
            raise StructureError("energy and plane energies must be +0.0 between passes")
        self.p, self.plane_energy_acc = _cleared(shape), _cleared((dim_z,))

    @classmethod
    def random(cls, dim_xy: int, dim_z: int, rng) -> "PwrTensor":
        """Fresh tensor: no energy, uniform random weights and routers, drawn
        per cell (weight, then router) in x, y, z order.

        A router is ``randrange(9)`` as CPython draws it: 4 random bits,
        drawn again while they are 9 or more.
        """
        options = len(ROUTER_OPTIONS)
        bits = options.bit_length()
        random_, getrandbits = rng.random, rng.getrandbits
        ws, rs = [], []
        for _ in range(dim_xy * dim_xy * dim_z):
            ws.append(random_())
            r = getrandbits(bits)
            while r >= options:
                r = getrandbits(bits)
            rs.append(r)
        shape = (dim_xy, dim_xy, dim_z)
        return cls(dim_xy, dim_z, w=np.array(ws).reshape(shape),
                   r=np.array(rs, dtype=np.int8).reshape(shape))

    # -- forward path ------------------------------------------------------

    def forward_propagate(self, deposits, min_e: float, dr: float,
                          at_mod: float = 1.0) -> Optional[SpikeEvent]:
        """Run one recursive pass across z; spike as soon as PE_z >= min_e.

        PE_z = at_mod * PE_{z-1} + the sum of plane z, with PE_{-1} = 0.
        Deposits land on the entry plane (z=0). Cells that do not trigger a
        spike each forward their transferred energy to the single next-plane
        cell their router selects; lateral offsets clamp at the lattice edge.
        Each share is ``max(0, sigmoid(v * w) - dr)``; a share that clamps
        to zero still records its hop but adds nothing to its target.
        Residual energy is retained when no plane spikes. The pass is recorded
        in ``last_trace`` for router reinforcement and backprop. It starts
        from no energy: after a pass that left some, ``reset_propagation``
        comes before the next one.
        """
        n, dim_z = self.dim_xy, self.dim_z
        if self.last_trace is not None and any(self.last_trace.energized):
            raise StructureError("an earlier pass holds energy; reset_propagation first")
        plane: dict[int, float] = {}
        for x, y, mag in deposits:
            if not (0 <= x < n and 0 <= y < n):
                raise DepositError(f"deposit at ({x}, {y}) outside {n}x{n} entry plane")
            k = x * n + y
            plane[k] = max(0.0, plane.get(k, 0.0) + mag)

        trace = PropagationTrace()
        self.last_trace = trace
        targets, size = router_targets(n), n * n
        w = self.w.data.cast("B").cast("d")
        r = self.r.data.cast("B").cast("b")
        exp = math.exp
        pe = 0.0
        # deposits are >= +0.0; a cell left at zero holds no energy
        cells = sorted((k, v) for k, v in plane.items() if v > 0.0)
        for z in range(dim_z):
            trace.energized.append(cells)
            pe = at_mod * pe + plane_sum(cells, size)
            if pe >= min_e:
                trace.spike_z = z
                return SpikeEvent(z_index=z, plane_energy=pe)
            if z + 1 >= dim_z:
                break
            hops: list[int] = []
            trace.hops_by_plane.append(hops)
            hop = hops.append
            plane = {}
            for k, v in cells:
                i = k * dim_z + z
                t = targets[r[i]][k]
                hop(t)
                # max(0, sigmoid(v * w) - dr); a clamped share adds +0.0, so skip it
                share = 1.0 / (1.0 + exp(-(v * w[i]))) - dr
                if share > 0.0:
                    plane[t] = plane.get(t, 0.0) + share
            # every value is a sum of shares > 0.0
            cells = sorted(plane.items())
        return None

    def plane(self, z: int) -> np.ndarray:
        """Plane z's energy in the recorded pass as an X*Y array, +0.0 where
        it holds none."""
        n, trace = self.dim_xy, self.last_trace
        out = np.zeros(n * n)
        if trace is not None and z < len(trace.energized):
            for k, v in trace.energized[z]:
                out[k] = v
        return out.reshape(n, n)

    def _lattice_cells(self) -> list[tuple[int, float]]:
        """The recorded pass's (lattice index ``k*dim_z + z``, energy) pairs,
        in the C order of an X*Y*Z lattice."""
        planes = self.last_trace.energized if self.last_trace else []
        return sorted((k * self.dim_z + z, v) for z, cells in enumerate(planes) for k, v in cells)

    def energy(self) -> float:
        """The recorded pass's total energy, bit for bit numpy's float64 sum of
        the X*Y*Z lattice that would hold it."""
        return plane_sum(self._lattice_cells(), self.dim_xy * self.dim_xy * self.dim_z)

    # -- router dynamics ---------------------------------------------------

    def update_routers_on_spike(self, spike: SpikeEvent) -> None:
        """Rewire every cell energized below the spiking plane to the direct route."""
        trace = self.last_trace
        if trace is None or trace.spike_z != spike.z_index:
            raise StructureError("spike does not match the last recorded forward pass")
        dim_z = self.dim_z
        r = self.r.data.cast("B").cast("b")
        for z in range(spike.z_index):
            for k, _ in trace.energized[z]:
                r[k * dim_z + z] = CENTER

    def randomize_stale_routers(self, rng) -> int:
        """Give every still-energized cell a random router, drawn in lattice
        order; epoch-end, no spike."""
        stale = self._lattice_cells()
        r = self.r.data.cast("B").cast("b")
        for i, _ in stale:
            r[i] = rng.randrange(len(ROUTER_OPTIONS))
        return len(stale)

    def reset_propagation(self) -> None:
        """Drop the recorded pass, and with it the pass's energy."""
        self.last_trace = None

    # -- backprop ----------------------------------------------------------

    def goal_loss_gradients(self, goal: GoalPlane, dr: float = 0.0
                            ) -> dict[tuple[int, int, int], float]:
        """d(loss)/dw per visited cell, for the squared-error loss at the goal plane.

        The single error is evaluated at the goal plane; gradients flow back
        only along each cell's routed-predecessor chain recorded in
        ``last_trace``, through the sigmoid derivative.
        """
        n, dim_z = self.dim_xy, self.dim_z
        if goal.target_p.shape != (n, n):
            raise StructureError(f"goal plane shape {goal.target_p.shape} != ({n}, {n})")
        zs, trace = goal.z_index, self.last_trace
        if trace is None or not (0 <= zs < dim_z) or zs > len(trace.hops_by_plane):
            raise StructureError(f"goal plane {zs} not covered by a recorded pass")
        grad_p = (self.plane(zs) - goal.target_p).ravel()  # d loss / d p, by flat index
        grad_w: dict[tuple[int, int, int], float] = {}
        w = self.w.data.cast("B").cast("d")
        for z in range(zs - 1, -1, -1):
            grad_prev = np.zeros_like(grad_p)
            for (k, pv), dst in zip(trace.energized[z], trace.hops_by_plane[z]):
                g = grad_p[dst]
                if g == 0.0:
                    continue
                wv = w[k * dim_z + z]
                s = 1.0 / (1.0 + math.exp(-(pv * wv)))
                if s - dr <= 0.0:  # clamped transfer carries no gradient
                    continue
                ds = s * (1.0 - s)
                grad_w[(*divmod(k, n), z)] = g * ds * pv
                grad_prev[k] += g * ds * wv
            grad_p = grad_prev
        return grad_w

    def backprop_to_goal(self, goal: GoalPlane, learning_rate: float,
                         dr: float = 0.0) -> None:
        """One SGD step of the visited weights toward the goal plane."""
        for (x, y, z), g in self.goal_loss_gradients(goal, dr).items():
            self.w[x, y, z] = min(1.0, max(0.0, self.w[x, y, z] - learning_rate * g))
