"""Currently Expressed Model: the PWR lattices and their propagation machinery.

A process node's computational core is three X*Y*Z lattices (X == Y):
propagation energy, weights in [0,1], and per-cell router options. Energy
deposited on the entry plane climbs plane by plane; each energized cell
forwards a sigmoid-transferred share to exactly one cell of the next plane,
chosen by its router. A plane whose accumulated energy reaches the minimum
threshold spikes.

A plane holds a few energized cells, so the pass works on Python values, not
per-element numpy reads: it reads a plane's energy, weights and routers once
each with ``tolist``, looks each route up in ``router_targets`` (edge-clamped,
cached per lattice size), sums each target's transfers in row-major cell order
from 0.0 and adds the plane of sums into the next plane in one array add. The
plane energy stays numpy's sum of the strided plane: numpy sums it pairwise in
an order a Python loop would have to copy, and the trajectories depend on it.

Each pass is recorded once in ``last_trace``, valid until ``reset_propagation``:
per plane, the energized cells and the next-plane cell each one sent to.
Backprop reads energy and weights from the lattices in place; a plane is never
written after it sends, and weights change only after every gradient is known.
"""
from __future__ import annotations

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
    """Mismatched lattice dimensions."""


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
def router_targets(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """``router_targets(n)[option][x][y]``: the next-plane cell that router
    ``option`` at (x, y) of an n*n plane sends to, clamped at the lattice edge."""
    return tuple(
        tuple(tuple((min(max(x + dx, 0), n - 1), min(max(y + dy, 0), n - 1))
                    for y in range(n)) for x in range(n))
        for dx, dy in ROUTER_OPTIONS)


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
        self.p = np.zeros(shape) if self.p is None else np.asarray(self.p, dtype=np.float64)
        self.w = np.ones(shape) if self.w is None else np.asarray(self.w, dtype=np.float64)
        self.r = (np.full(shape, CENTER, dtype=np.int8) if self.r is None
                  else np.asarray(self.r, dtype=np.int8))
        for name, arr in (("p", self.p), ("w", self.w), ("r", self.r)):
            if arr.shape != shape:
                raise StructureError(f"{name} lattice shape {arr.shape} != {shape}")
        self.plane_energy_acc = (np.zeros(dim_z) if self.plane_energy_acc is None
                                 else np.asarray(self.plane_energy_acc, dtype=np.float64))

    @classmethod
    def random(cls, dim_xy: int, dim_z: int, rng) -> "PwrTensor":
        """Fresh tensor: zero energy, uniform random weights and routers."""
        t = cls(dim_xy, dim_z)
        for x in range(dim_xy):
            for y in range(dim_xy):
                for z in range(dim_z):
                    t.w[x, y, z] = rng.random()
                    t.r[x, y, z] = rng.randrange(len(ROUTER_OPTIONS))
        return t

    # -- forward path ------------------------------------------------------

    def accumulate_plane_energy(self, z: int, at_mod: float = 1.0) -> float:
        """PE_z = at_mod * PE_{z-1} + sum of plane z, with PE_{-1} = 0."""
        if not (0 <= z < self.dim_z):
            raise IndexError(f"plane {z} out of range [0, {self.dim_z})")
        prev = self.plane_energy_acc[z - 1] if z > 0 else 0.0
        pe = at_mod * prev + float(self.p[:, :, z].sum())
        self.plane_energy_acc[z] = pe
        return pe

    def forward_propagate(self, deposits, min_e: float, dr: float,
                          at_mod: float = 1.0) -> Optional[SpikeEvent]:
        """Run one recursive pass across z; spike as soon as PE_z >= min_e.

        Deposits land on the entry plane (z=0). Cells that do not trigger a
        spike each forward their transferred energy to the single next-plane
        cell their router selects; lateral offsets clamp at the lattice edge.
        Residual energy is retained when no plane spikes. The pass is recorded
        in ``last_trace`` for router reinforcement and backprop.
        """
        n = self.dim_xy
        for x, y, mag in deposits:
            if not (0 <= x < n and 0 <= y < n):
                raise DepositError(f"deposit at ({x}, {y}) outside {n}x{n} entry plane")
            self.p[x, y, 0] = max(0.0, self.p[x, y, 0] + mag)

        trace = PropagationTrace()
        self.last_trace = trace
        targets = router_targets(n)
        p, w, r = self.p, self.w, self.r
        for z in range(self.dim_z):
            pe = self.accumulate_plane_energy(z, at_mod)
            plane = p[:, :, z]
            xs, ys = (plane > 0.0).nonzero()
            cells = list(zip(xs.tolist(), ys.tolist()))
            trace.energized.append(cells)
            if pe >= min_e:
                trace.spike_z = z
                return SpikeEvent(z_index=z, plane_energy=pe)
            if z + 1 >= self.dim_z:
                break
            p_z, w_z, r_z = plane.tolist(), w[:, :, z].tolist(), r[:, :, z].tolist()
            hops = [targets[r_z[x][y]][x][y] for x, y in cells]
            trace.hops_by_plane.append(hops)
            sums: dict[tuple[int, int], float] = {}
            for (x, y), dst in zip(cells, hops):
                sums[dst] = sums.get(dst, 0.0) + transfer(p_z[x][y], w_z[x][y], dr)
            out = np.zeros((n, n))
            for dst, total in sums.items():
                out[dst] = total
            p[:, :, z + 1] += out  # dense: also turns every -0.0 of the plane into +0.0
        return None

    # -- router dynamics ---------------------------------------------------

    def update_routers_on_spike(self, spike: SpikeEvent) -> set[tuple[int, int, int]]:
        """Rewire every cell energized below the spiking plane to the direct route."""
        trace = self.last_trace
        if trace is None or trace.spike_z != spike.z_index:
            raise StructureError("spike does not match the last recorded forward pass")
        rewired: set[tuple[int, int, int]] = set()
        for z in range(spike.z_index):
            for x, y in trace.energized[z]:
                self.r[x, y, z] = CENTER
                rewired.add((x, y, z))
        return rewired

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
