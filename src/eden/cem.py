"""Currently Expressed Model: the PWR lattices and their propagation machinery.

A process node's computational core is three X*Y*Z lattices (X == Y):
propagation energy, weights in [0,1], and per-cell router options. Energy
deposited on the entry plane climbs plane by plane; each energized cell
forwards a sigmoid-transferred share to exactly one cell of the next plane,
chosen by its router. A plane whose accumulated energy reaches the minimum
threshold spikes.

A plane holds a few energized cells, so the pass is sparse and makes no numpy
call per plane. Each plane's energy is a dict from the row-major flat index
``x*n + y`` to its value. Weights and routers are read per cell through flat
``memoryview``s of the C-contiguous lattices, made on each pass; each route is
looked up in ``router_targets`` (edge-clamped, cached per lattice size); each
target's transfers are summed in row-major cell order from 0.0. The plane
energy is ``plane_sum``, an exact copy of numpy's float64 pairwise sum of the
plane, which the trajectories depend on; absent cells count as +0.0, so it
runs over the energized cells only. Each visited plane is written into ``p``
once, so after a pass ``p`` and ``plane_energy_acc`` hold what a dense pass
leaves, and the goal plane, backprop and the stale-router sweep read them.

A pass starts from a cleared lattice: every value of ``p`` and
``plane_energy_acc`` is +0.0 (not -0.0). The engine runs one pass per node
per epoch and clears the energy after a spike or at epoch end, and a tensor
is built cleared, so ``forward_propagate`` raises ``StructureError`` rather
than drop energy an earlier pass left.

Each pass is recorded once in ``last_trace``, valid until ``reset_propagation``:
per plane, the energized cells and the next-plane cell each one sent to.
Backprop reads energy and weights from the lattices in place; a plane is never
written after it sends, and weights change only after every gradient is known.

Numpy reductions on the trajectory path: none in this module. Plane sums are
``plane_sum`` and backprop adds per cell; the loss ``backprop_to_goal``
returns is a numpy sum, but nothing on the trajectory reads it. The one left
is ``EnergyRequirement``'s ``p.sum()`` in ``eden.functome``.
"""
from __future__ import annotations

import bisect
import functools
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
    """Mismatched lattice dimensions, a router value that is no option, or energy
    where a cleared lattice is due."""


@dataclass
class SpikeEvent:
    z_index: int
    plane_energy: float
    epoch: int = -1
    node_id: int = -1


@dataclass
class GoalPlane:
    """Backprop target: the propagation values at a reference spike plane."""

    z_index: int
    target_p: np.ndarray  # [X][Y]

    def __post_init__(self):
        self.target_p = np.asarray(self.target_p, dtype=np.float64)


@dataclass
class PropagationTrace:
    """Routed-predecessor record of a single forward pass.

    ``energized[z]`` lists the cells of plane z holding energy, in row-major
    order; ``hops_by_plane[z][i]`` is the plane z+1 cell that
    ``energized[z][i]`` sent to. The spiking plane and the last plane send nothing.
    """

    hops_by_plane: list[list[tuple[int, int]]] = field(default_factory=list)
    energized: list[list[tuple[int, int]]] = field(default_factory=list)
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


@functools.cache
def cell_coords(n: int) -> tuple[tuple[int, int], ...]:
    """``cell_coords(n)[k]``: the (x, y) cell of flat index ``k = x*n + y``."""
    return tuple((x, y) for x in range(n) for y in range(n))


def plane_sum(cells: list[tuple[int, float]], size: int, lo: int = 0) -> float:
    """Numpy's float64 pairwise sum of a plane of ``size`` cells, bit for bit.

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


def transfer(p_val: float, w_val: float, dr: float) -> float:
    """Sigmoid of the energy-weight product, minus the propagation cost.

    Clamped at zero so energy never goes negative.
    """
    return max(0.0, 1.0 / (1.0 + math.exp(-(p_val * w_val))) - dr)


@dataclass(eq=False)
class PwrTensor:
    """Propagation, Weight and Router lattices plus the per-plane energy accumulator."""

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
        self.p = (np.zeros(shape) if self.p is None
                  else np.ascontiguousarray(self.p, dtype=np.float64))
        self.w = (np.ones(shape) if self.w is None
                  else np.ascontiguousarray(self.w, dtype=np.float64))
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
            # the raw values. A loaded lattice is nested lists, compared as lists:
            # cheaper than casting them again, and an int64 copy per node raised
            # the peak memory of the resume benchmark by ~4 MB.
            same = self.r is raw or (self.r.tolist() == raw if isinstance(raw, list)
                                     else (self.r == raw).all())
            # read as uint8, a negative router is >= 128, so one max checks [0, 9)
            if not same or self.r.view(np.uint8).max(initial=0) >= len(ROUTER_OPTIONS):
                raise StructureError(bad_routers)
        for name, arr in (("p", self.p), ("w", self.w), ("r", self.r)):
            if arr.shape != shape:
                raise StructureError(f"{name} lattice shape {arr.shape} != {shape}")
        self.plane_energy_acc = (np.zeros(dim_z) if self.plane_energy_acc is None
                                 else np.ascontiguousarray(self.plane_energy_acc,
                                                           dtype=np.float64))
        if self.plane_energy_acc.shape != (dim_z,):
            raise StructureError(
                f"plane_energy_acc shape {self.plane_energy_acc.shape} != ({dim_z},)")
        if not self.cleared():
            raise StructureError("energy lattice and plane energies must be +0.0 "
                                 "between passes")

    @classmethod
    def random(cls, dim_xy: int, dim_z: int, rng) -> "PwrTensor":
        """Fresh tensor: zero energy, uniform random weights and routers, drawn
        per cell (weight, then router) in x, y, z order."""
        ws, rs = [], []
        for _ in range(dim_xy * dim_xy * dim_z):
            ws.append(rng.random())
            rs.append(rng.randrange(len(ROUTER_OPTIONS)))
        shape = (dim_xy, dim_xy, dim_z)
        return cls(dim_xy, dim_z, w=np.array(ws).reshape(shape),
                   r=np.array(rs, dtype=np.int8).reshape(shape))

    def cleared(self) -> bool:
        """Whether every energy and plane energy value is +0.0 (-0.0 is not)."""
        return not (self.p.view(np.uint64).any()
                    or self.plane_energy_acc.view(np.uint64).any())

    # -- forward path ------------------------------------------------------

    def forward_propagate(self, deposits, min_e: float, dr: float,
                          at_mod: float = 1.0) -> Optional[SpikeEvent]:
        """Run one recursive pass across z; spike as soon as PE_z >= min_e.

        PE_z = at_mod * PE_{z-1} + the sum of plane z, with PE_{-1} = 0.
        Deposits land on the entry plane (z=0). Cells that do not trigger a
        spike each forward their transferred energy to the single next-plane
        cell their router selects; lateral offsets clamp at the lattice edge.
        Residual energy is retained when no plane spikes. The pass is recorded
        in ``last_trace`` for router reinforcement and backprop. It starts
        from a cleared lattice: after a pass, ``reset_propagation`` comes
        before the next one.
        """
        n, dim_z = self.dim_xy, self.dim_z
        if not self.cleared():
            raise StructureError("energy lattice holds an earlier pass; "
                                 "reset_propagation before the next one")
        plane: dict[int, float] = {}
        for x, y, mag in deposits:
            if not (0 <= x < n and 0 <= y < n):
                raise DepositError(f"deposit at ({x}, {y}) outside {n}x{n} entry plane")
            k = x * n + y
            plane[k] = max(0.0, plane.get(k, 0.0) + mag)

        trace = PropagationTrace()
        self.last_trace = trace
        targets, coords, size = router_targets(n), cell_coords(n), n * n
        p = self.p.data.cast("B").cast("d")
        w = self.w.data.cast("B").cast("d")
        r = self.r.data.cast("B").cast("b")
        acc = self.plane_energy_acc.data
        pe = 0.0
        for z in range(dim_z):
            # values are >= +0.0; a zero stays the cleared lattice's +0.0
            cells = sorted((k, v) for k, v in plane.items() if v > 0.0)
            for k, v in cells:
                p[k * dim_z + z] = v
            pe = at_mod * pe + plane_sum(cells, size)
            acc[z] = pe
            trace.energized.append([coords[k] for k, _ in cells])
            if pe >= min_e:
                trace.spike_z = z
                return SpikeEvent(z_index=z, plane_energy=pe)
            if z + 1 >= dim_z:
                break
            hops = [targets[r[k * dim_z + z]][k] for k, _ in cells]
            trace.hops_by_plane.append([coords[t] for t in hops])
            plane = {}
            for (k, v), t in zip(cells, hops):
                plane[t] = plane.get(t, 0.0) + transfer(v, w[k * dim_z + z], dr)
        return None

    # -- router dynamics ---------------------------------------------------

    def update_routers_on_spike(self, spike: SpikeEvent) -> None:
        """Rewire every cell energized below the spiking plane to the direct route."""
        trace = self.last_trace
        if trace is None or trace.spike_z != spike.z_index:
            raise StructureError("spike does not match the last recorded forward pass")
        n, dim_z = self.dim_xy, self.dim_z
        r = self.r.data.cast("B").cast("b")
        for z in range(spike.z_index):
            for x, y in trace.energized[z]:
                r[(x * n + y) * dim_z + z] = CENTER

    def randomize_stale_routers(self, rng) -> int:
        """Give every still-energized cell a random router; epoch-end, no spike."""
        count = 0
        for x, y, z in np.argwhere(self.p > 0.0):
            self.r[x, y, z] = rng.randrange(len(ROUTER_OPTIONS))
            count += 1
        return count

    def reset_propagation(self) -> None:
        """Clear the energy; the recorded pass no longer matches it and is dropped."""
        self.p.fill(0.0)
        self.plane_energy_acc.fill(0.0)
        self.last_trace = None

    # -- backprop ----------------------------------------------------------

    def goal_loss_gradients(self, goal: GoalPlane, dr: float = 0.0
                            ) -> tuple[float, dict[tuple[int, int, int], float]]:
        """Squared-error loss at the goal plane and d(loss)/dw per visited cell.

        The single error is evaluated at the goal plane; gradients flow back
        only along each cell's routed-predecessor chain recorded in
        ``last_trace``, through the sigmoid derivative.
        """
        if goal.target_p.shape != (self.dim_xy, self.dim_xy):
            raise StructureError(
                f"goal plane shape {goal.target_p.shape} != ({self.dim_xy}, {self.dim_xy})")
        zs, trace = goal.z_index, self.last_trace
        if trace is None or not (0 <= zs < self.dim_z) or zs > len(trace.hops_by_plane):
            raise StructureError(f"goal plane {zs} not covered by a recorded pass")
        diff = self.p[:, :, zs] - goal.target_p
        loss = 0.5 * float((diff * diff).sum())
        grad_p = diff.copy()  # d loss / d p at the current plane
        grad_w: dict[tuple[int, int, int], float] = {}
        for z in range(zs - 1, -1, -1):
            grad_prev = np.zeros_like(grad_p)
            for (x, y), dst in zip(trace.energized[z], trace.hops_by_plane[z]):
                g = grad_p[dst]
                if g == 0.0:
                    continue
                pv, wv = float(self.p[x, y, z]), float(self.w[x, y, z])
                s = 1.0 / (1.0 + math.exp(-(pv * wv)))
                if s - dr <= 0.0:  # clamped transfer carries no gradient
                    continue
                ds = s * (1.0 - s)
                grad_w[x, y, z] = grad_w.get((x, y, z), 0.0) + g * ds * pv
                grad_prev[x, y] += g * ds * wv
            grad_p = grad_prev
        return loss, grad_w

    def backprop_to_goal(self, goal: GoalPlane, learning_rate: float,
                         dr: float = 0.0) -> float:
        """One SGD step of the visited weights toward the goal plane; returns loss."""
        loss, grad_w = self.goal_loss_gradients(goal, dr)
        for (x, y, z), g in grad_w.items():
            self.w[x, y, z] = min(1.0, max(0.0, self.w[x, y, z] - learning_rate * g))
        return loss
