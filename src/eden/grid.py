"""The shared 3D environment holding transmitter/architector payloads.

Continuous coordinates with a uniform-cell spatial hash. All mutations are
staged and applied at an explicit commit barrier so that every query between
two commits sees the same frozen state.
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


def _dist(a, b) -> float:
    return math.sqrt(sum((ai - bi) ** 2 for ai, bi in zip(a, b)))


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
    _cells: dict[tuple[int, int, int], list[int]] = field(default_factory=dict, init=False)
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
        self._cells = {}
        for pid, pl in self.payloads.items():
            self._cells.setdefault(self._cell_of(pl.position), []).append(pid)

    def query_radius(self, center, r: float) -> list[TransArchPayload]:
        """Committed payloads within Euclidean distance r, ordered by (distance, pid)."""
        if r < 0:
            raise GridError(f"radius must be >= 0, got {r}")
        lo = self._cell_of(tuple(c - r for c in center))
        hi = self._cell_of(tuple(c + r for c in center))
        found: list[tuple[float, int]] = []
        for cx in range(lo[0], hi[0] + 1):
            for cy in range(lo[1], hi[1] + 1):
                for cz in range(lo[2], hi[2] + 1):
                    for pid in self._cells.get((cx, cy, cz), ()):
                        d = _dist(self.payloads[pid].position, center)
                        if d <= r:
                            found.append((d, pid))
        found.sort()
        return [self.payloads[pid] for _, pid in found]

    def density_gradient(self, pos, index: int, sigma: float = 1.0):
        """Gradient of the Gaussian kernel-density field of payloads with this index.

        Field: sum_p magnitude_p * exp(-|pos - p|^2 / (2 sigma^2)).
        """
        grad = [0.0, 0.0, 0.0]
        inv_s2 = 1.0 / (sigma * sigma)
        for pid in sorted(self.payloads):
            pl = self.payloads[pid]
            if pl.index != index:
                continue
            delta = [pc - c for pc, c in zip(pl.position, pos)]
            d2 = sum(x * x for x in delta)
            k = pl.magnitude * math.exp(-0.5 * d2 * inv_s2)
            for i in range(3):
                grad[i] += k * delta[i] * inv_s2
        return tuple(grad)

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
