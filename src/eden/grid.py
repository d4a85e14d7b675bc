"""The shared 3D environment holding transmitter/architector payloads.

Continuous coordinates; the pid-keyed payload dict is the single source of
truth, and the save state and tracing read it. Deposits and removals are
staged and applied at an explicit commit barrier, so every query between two
commits sees the same frozen state. Payloads change only in `commit` and
`decay_and_expire`; both drop what the queries derived from them, and the
first query after a change derives its own structure again: uniform-cell
buckets of (pid, position) nested `cx -> cy -> cz`, the same buckets per
transmitter index holding transmitters only, or per-index lists of (position,
magnitude) in pid order. Each structure is built at most once between two
changes, and only if a query reads it. A dendrite collects through `query_radius` restricted to the transmitter
indices it accepts, so it reads only the buckets of those indices; an
unrestricted query reads every payload kind. Callers that need one
neighbourhood several times between commits read it once and pass the list
on.

A radius query computes its cell range inline, `floor((c - r) / cell_size)`
to `floor((c + r) / cell_size)` per axis, the same floor `_buckets` uses to
bucket a position. Queries keep the arithmetic of the plain definitions bit
for bit: `math.exp` and sequential pid-order accumulation in the gradient,
`(a - c) ** 2` in the radius distance. Trajectories are compared by digest, so
one ulp of drift in either query changes a run.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from operator import le
from typing import Iterable, Optional

from .codec import decode, encode

TRANSMITTER = "transmitter"
ARCHITECTOR = "architector"


class GridError(ValueError):
    """Out-of-bounds deposit or malformed payload."""


@dataclass
class TransArchPayload:
    pid: int
    kind: str  # TRANSMITTER or ARCHITECTOR
    index: int
    position: tuple[float, float, float]
    magnitude: float
    ttl: int
    properties: dict = field(default_factory=dict)


def _encode_payloads(payloads: dict) -> list:
    return [encode(payloads[pid]) for pid in sorted(payloads)]


def check_properties(properties: dict) -> dict:
    """``properties``, refused unless an ``excitatory`` in them is a number:
    dendrites compare it with 0 to sign what they collect."""
    if type(properties.get("excitatory", 1)) not in (int, float):
        raise GridError(f"payload excitatory {properties['excitatory']!r} is not a number")
    return properties


def _decode_payloads(items: list) -> dict:
    payloads = [decode(TransArchPayload, d) for d in items]
    for pl in payloads:
        check_properties(pl.properties)
    return {pl.pid: pl for pl in payloads}


@dataclass(eq=False)
class NeuralGrid:
    bounds_min: tuple[float, float, float]
    bounds_max: tuple[float, float, float]
    cell_size: float = 2.0
    next_pid: int = 0
    # stored as the payloads in pid order
    payloads: dict[int, TransArchPayload] = field(
        default_factory=dict, metadata={"codec": (_encode_payloads, _decode_payloads)})
    _pending_deposits: list[TransArchPayload] = field(default_factory=list, init=False)
    _pending_removals: list[int] = field(default_factory=list, init=False)
    # derived from `payloads` on the first query after a change; None until then
    _cells: Optional[dict] = field(default=None, init=False)
    _transmitter_cells: Optional[dict] = field(default=None, init=False)
    _by_index: Optional[dict] = field(default=None, init=False)
    # per-epoch counters, read and reset by the epoch runner
    deposited_count: int = field(default=0, init=False)
    consumed_count: int = field(default=0, init=False)
    expired_count: int = field(default=0, init=False)

    def __post_init__(self):
        self.bounds_min = tuple(float(c) for c in self.bounds_min)
        self.bounds_max = tuple(float(c) for c in self.bounds_max)
        self.cell_size = float(self.cell_size)

    # -- lifecycle ---------------------------------------------------------

    def in_bounds(self, pos) -> bool:
        return all(map(le, self.bounds_min, pos)) and all(map(le, pos, self.bounds_max))

    def clamp(self, pos) -> tuple[float, float, float]:
        return tuple(map(min, map(max, pos, self.bounds_min), self.bounds_max))

    def new_payload(self, kind: str, index: int, position, magnitude: float,
                    ttl: int, properties: Optional[dict] = None) -> TransArchPayload:
        if magnitude <= 0:
            raise GridError(f"payload magnitude must be > 0, got {magnitude}")
        pl = TransArchPayload(pid=self.next_pid, kind=kind, index=index,
                              position=tuple(map(float, position)),
                              magnitude=float(magnitude), ttl=int(ttl),
                              properties=dict(properties or {}))
        self.next_pid += 1
        return pl

    def deposit(self, payload: TransArchPayload) -> None:
        """Queue a payload; it becomes visible only after the next commit."""
        if not self.in_bounds(payload.position):
            raise GridError(f"payload position {payload.position} outside grid bounds")
        self._pending_deposits.append(payload)

    def remove(self, pid: int) -> None:
        self._pending_removals.append(pid)

    def commit(self) -> None:
        for pid in self._pending_removals:
            if self.payloads.pop(pid, None) is not None:
                self.consumed_count += 1
        self._pending_removals.clear()
        for pl in self._pending_deposits:
            self.payloads[pl.pid] = pl
            self.deposited_count += 1
        self._pending_deposits.clear()
        self._drop_index()

    def reset_epoch_counters(self) -> tuple[int, int, int]:
        counts = (self.deposited_count, self.consumed_count, self.expired_count)
        self.deposited_count = self.consumed_count = self.expired_count = 0
        return counts

    # -- spatial queries ---------------------------------------------------

    def _drop_index(self) -> None:
        """Forget what the queries derived from `payloads`; called after every
        change to it."""
        self._cells = self._transmitter_cells = self._by_index = None

    def _buckets(self, payloads) -> dict:
        """``cx -> cy -> cz -> [(pid, position)]`` of ``payloads``: a position's
        cell is ``floor(c / cell_size)`` per axis."""
        floor, cs = math.floor, self.cell_size
        slabs = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
        for pl in payloads:
            pos = x, y, z = pl.position
            slabs[floor(x / cs)][floor(y / cs)][floor(z / cs)].append((pl.pid, pos))
        return slabs

    def query_radius(self, center, r: float, transmitter_indices: Optional[Iterable[int]] = None
                     ) -> list[TransArchPayload]:
        """Committed payloads within Euclidean distance r, ordered by (distance, pid).

        Given `transmitter_indices`, only the transmitters of those indices:
        the same subsequence that filtering the full result by kind and index
        leaves.
        """
        if r < 0:
            raise GridError(f"radius must be >= 0, got {r}")
        if transmitter_indices is None:
            if self._cells is None:
                self._cells = self._buckets(self.payloads.values())
            roots = (self._cells,)
        else:
            if self._transmitter_cells is None:
                transmitters = defaultdict(list)
                for pl in self.payloads.values():
                    if pl.kind == TRANSMITTER:
                        transmitters[pl.index].append(pl)
                self._transmitter_cells = {i: self._buckets(pls)
                                           for i, pls in transmitters.items()}
            tcells = self._transmitter_cells
            roots = [tcells[i] for i in transmitter_indices if i in tcells]
        floor, sqrt, cs = math.floor, math.sqrt, self.cell_size
        c0, c1, c2 = center
        xs = range(floor((c0 - r) / cs), floor((c0 + r) / cs) + 1)
        ys = range(floor((c1 - r) / cs), floor((c1 + r) / cs) + 1)
        zs = range(floor((c2 - r) / cs), floor((c2 + r) / cs) + 1)
        found: list[tuple[float, int]] = []
        for slabs in roots:
            for cx in xs:
                x_slab = slabs.get(cx)
                if x_slab is None:
                    continue
                for cy in ys:
                    y_slab = x_slab.get(cy)
                    if y_slab is None:
                        continue
                    for cz in zs:
                        for pid, (x, y, z) in y_slab.get(cz, ()):
                            d = sqrt((x - c0) ** 2 + (y - c1) ** 2 + (z - c2) ** 2)
                            if d <= r:
                                found.append((d, pid))
        if not found:
            return []
        found.sort()
        payloads = self.payloads
        return [payloads[pid] for _, pid in found]

    def density_gradient(self, pos, index: int, sigma: float = 1.0):
        """Gradient of the Gaussian kernel-density field of payloads with this index.

        Field: sum_p magnitude_p * exp(-|pos - p|^2 / (2 sigma^2)).
        """
        by_index = self._by_index
        if by_index is None:  # each index's (position, magnitude) in pid order
            by_index = self._by_index = defaultdict(list)
            payloads = self.payloads
            for pid in sorted(payloads):
                pl = payloads[pid]
                by_index[pl.index].append((pl.position, pl.magnitude))
        gx = gy = gz = 0.0
        inv_s2 = 1.0 / (sigma * sigma)
        p0, p1, p2 = pos
        for (x, y, z), mag in by_index.get(index, ()):
            d0, d1, d2 = x - p0, y - p1, z - p2
            k = mag * math.exp(-0.5 * (d0 * d0 + d1 * d1 + d2 * d2) * inv_s2)
            gx += k * d0 * inv_s2
            gy += k * d1 * inv_s2
            gz += k * d2 * inv_s2
        return (gx, gy, gz)

    # -- aging -------------------------------------------------------------

    def decay_and_expire(self, decay_factor: float, epsilon_magnitude: float = 1e-6) -> int:
        """Scale every magnitude, tick every ttl, drop spent payloads."""
        if not (0.0 < decay_factor <= 1.0):
            raise GridError(f"decay_factor must lie in (0, 1], got {decay_factor}")
        dead = []
        for pid in sorted(self.payloads):
            pl = self.payloads[pid]
            pl.magnitude *= decay_factor
            pl.ttl -= 1
            if pl.ttl < 0 or pl.magnitude < epsilon_magnitude:
                dead.append(pid)
        for pid in dead:
            del self.payloads[pid]
        self.expired_count += len(dead)
        self._drop_index()
        return len(dead)
