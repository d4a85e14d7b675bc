"""The shared 3D environment holding transmitter/architector payloads.

Continuous coordinates; the pid-keyed payload dict is the single source of
truth, and the save state and tracing read it. Deposits and removals are
staged and applied at an explicit commit barrier, so every query between two
commits sees the same frozen state. Payloads change only in `commit` and
`decay_and_expire`, and both end in `_rebuild_index`, which derives what the
queries read from that frozen state in one pid-order pass: uniform-cell
buckets of positions, the same buckets per `(index, cell)` holding
transmitters only, and per-index lists of (position, magnitude). A dendrite
collects through `query_radius` restricted to the transmitter indices it
accepts, so it reads only the buckets of those indices; an unrestricted query
reads every payload kind. Callers that need one neighbourhood several times
between commits read it once and pass the list on.

Queries keep the arithmetic of the plain definitions bit for bit: `math.exp`
and sequential pid-order accumulation in the gradient, `(a - c) ** 2` in the
radius distance. Trajectories are compared by digest, so one ulp of drift in
either query changes a run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _decode_payloads(items: list) -> dict:
    return {pl.pid: pl for pl in (decode(TransArchPayload, d) for d in items)}


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
    # derived from `payloads` by _rebuild_index
    _cells: dict[tuple[int, int, int], list[tuple[int, tuple]]] = field(
        default_factory=dict, init=False)
    _transmitter_cells: dict[tuple[int, int, int, int], list[tuple[int, tuple]]] = field(
        default_factory=dict, init=False)
    _by_index: dict[int, list[tuple[tuple, float]]] = field(default_factory=dict, init=False)
    # per-epoch counters, read and reset by the epoch runner
    deposited_count: int = field(default=0, init=False)
    consumed_count: int = field(default=0, init=False)
    expired_count: int = field(default=0, init=False)

    def __post_init__(self):
        self.bounds_min = tuple(float(c) for c in self.bounds_min)
        self.bounds_max = tuple(float(c) for c in self.bounds_max)
        self.cell_size = float(self.cell_size)
        self._rebuild_index()

    # -- lifecycle ---------------------------------------------------------

    def in_bounds(self, pos) -> bool:
        return all(lo <= c <= hi for c, lo, hi in zip(pos, self.bounds_min, self.bounds_max))

    def clamp(self, pos) -> tuple[float, float, float]:
        return tuple(min(max(c, lo), hi)
                     for c, lo, hi in zip(pos, self.bounds_min, self.bounds_max))

    def new_payload(self, kind: str, index: int, position, magnitude: float,
                    ttl: int, properties: Optional[dict] = None) -> TransArchPayload:
        if magnitude <= 0:
            raise GridError(f"payload magnitude must be > 0, got {magnitude}")
        pl = TransArchPayload(pid=self.next_pid, kind=kind, index=index,
                              position=tuple(float(c) for c in position),
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
        self._rebuild_index()

    def reset_epoch_counters(self) -> tuple[int, int, int]:
        counts = (self.deposited_count, self.consumed_count, self.expired_count)
        self.deposited_count = self.consumed_count = self.expired_count = 0
        return counts

    # -- spatial queries ---------------------------------------------------

    def _cell_of(self, pos) -> tuple[int, int, int]:
        return tuple(int(math.floor(c / self.cell_size)) for c in pos)

    def _rebuild_index(self) -> None:
        """Derive the query structures from the committed payloads, in pid order.

        Called after every change to `payloads`: cell buckets of (pid,
        position) for unfiltered `query_radius`, the same buckets split by
        `(index, cell)` and holding transmitters only for the filtered one, and
        per-index (position, magnitude) lists for the gradient. Each cell is
        computed inline and equals `_cell_of(position)`.
        """
        floor, cs = math.floor, self.cell_size
        cells, transmitter_cells, by_index = {}, {}, {}
        payloads = self.payloads
        for pid in sorted(payloads):
            pl = payloads[pid]
            pos = x, y, z = pl.position
            cell = (floor(x / cs), floor(y / cs), floor(z / cs))
            entry = (pid, pos)
            cells.setdefault(cell, []).append(entry)
            if pl.kind == TRANSMITTER:
                transmitter_cells.setdefault((pl.index, *cell), []).append(entry)
            by_index.setdefault(pl.index, []).append((pos, pl.magnitude))
        self._cells = cells
        self._transmitter_cells = transmitter_cells
        self._by_index = by_index

    def query_radius(self, center, r: float, transmitter_indices: Optional[Iterable[int]] = None
                     ) -> list[TransArchPayload]:
        """Committed payloads within Euclidean distance r, ordered by (distance, pid).

        Given `transmitter_indices`, only the transmitters of those indices:
        the same subsequence that filtering the full result by kind and index
        leaves.
        """
        if r < 0:
            raise GridError(f"radius must be >= 0, got {r}")
        c0, c1, c2 = center
        lo = self._cell_of((c0 - r, c1 - r, c2 - r))
        hi = self._cell_of((c0 + r, c1 + r, c2 + r))
        xs, ys, zs = range(lo[0], hi[0] + 1), range(lo[1], hi[1] + 1), range(lo[2], hi[2] + 1)
        if transmitter_indices is None:
            buckets = self._cells
            keys = [(cx, cy, cz) for cx in xs for cy in ys for cz in zs]
        else:
            buckets = self._transmitter_cells
            keys = [(i, cx, cy, cz) for i in transmitter_indices
                    for cx in xs for cy in ys for cz in zs]
        found: list[tuple[float, int]] = []
        for key in keys:
            for pid, (x, y, z) in buckets.get(key, ()):
                d = math.sqrt((x - c0) ** 2 + (y - c1) ** 2 + (z - c2) ** 2)
                if d <= r:
                    found.append((d, pid))
        found.sort()
        return [self.payloads[pid] for _, pid in found]

    def density_gradient(self, pos, index: int, sigma: float = 1.0):
        """Gradient of the Gaussian kernel-density field of payloads with this index.

        Field: sum_p magnitude_p * exp(-|pos - p|^2 / (2 sigma^2)).
        """
        gx = gy = gz = 0.0
        inv_s2 = 1.0 / (sigma * sigma)
        p0, p1, p2 = pos
        for (x, y, z), mag in self._by_index.get(index, ()):
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
        self._rebuild_index()
        return len(dead)
