"""Hexagonal cell geometry and randomized UE drop generation.

The panel sits at the origin on a cell vertex with boresight (+x) through
the cell centroid, which lies at (d_H, 0) since a regular hexagon's
circumradius equals its edge length d_H = ISD / 3. Vertices sit at angles
k * 60 deg around the centroid (the k = 3 vertex is the site itself).

Candidate positions draw a radius uniform on [0, d_H] and an angle uniform
on [0, 360) deg around the centroid, deliberately not area-uniform, and are
redrawn until they land inside the hexagon.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .config import ScenarioParams, sha256


# outward edge normals of the hexagon, at 30 + k*60 deg
_HEX_NORMALS = np.stack(
    [
        (np.cos(np.radians(30.0 + 60.0 * k)), np.sin(np.radians(30.0 + 60.0 * k)))
        for k in range(6)
    ]
)


def point_in_hexagon(point, center, edge: float) -> bool | np.ndarray:
    """Strict interior test for the regular hexagon of the given edge length.

    Vertices lie at angles k * 60 deg from the center. Accepts a single
    (x, y) pair or an (..., 2) array of points.
    """
    if edge <= 0:
        raise ValueError("hexagon edge must be positive")
    p = np.asarray(point, dtype=float) - np.asarray(center, dtype=float)
    apothem = edge * np.sqrt(3.0) / 2.0
    inside = np.all(p[..., None, :] @ _HEX_NORMALS.T[None] < apothem, axis=(-2, -1)) \
        if p.ndim > 1 else bool(np.all(p @ _HEX_NORMALS.T < apothem))
    return inside


@dataclass
class UEDrop:
    """One randomized placement of U users: (U, 3) positions in meters."""

    index: int
    positions: np.ndarray


def floor_height(rng: _PCG64 | np.random.Generator) -> float:
    """Random building-floor height: 3 * (n_floor - 1) + 1.5 meters.

    The building height Omega is itself a uniform integer in [4, 8], then
    the floor is uniform in [1, Omega]; upper floors are accordingly rarer.
    """
    omega = int(rng.integers(4, 9))
    n_floor = int(rng.integers(1, omega + 1))
    return 3.0 * (n_floor - 1) + 1.5


def sample_drop(params: ScenarioParams, index: int, rng: _PCG64 | np.random.Generator) -> UEDrop:
    """Draw U accepted positions; rejected candidates are redrawn.

    The height is drawn after a ground position is accepted, so rejection
    does not consume height randomness.
    """
    center = params.centroid
    edge = params.hex_edge_m
    positions = np.empty((params.users, 3))
    for u in range(params.users):
        while True:
            radius = rng.uniform(0.0, edge)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            xy = center + radius * np.array([np.cos(angle), np.sin(angle)])
            if point_in_hexagon(xy, center, edge):
                break
        if params.ue_height_mode == "fixed":
            z = params.ue_height_m
        else:
            z = floor_height(rng)
        positions[u] = (xy[0], xy[1], z)
    return UEDrop(index=index, positions=positions)


def sample_drops(params: ScenarioParams) -> list[UEDrop]:
    """The full P-drop set for one seed; same seed gives identical drops."""
    rng = _PCG64(params.seed)
    return [sample_drop(params, p, rng) for p in range(1, params.drops + 1)]


_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULTIPLIER = 2549297995355413924 * 2**64 + 4865540595714422341


def _hasher(const: int, multiplier: int):
    """SeedSequence's hash of 32-bit words, whose constant steps at each word."""
    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * multiplier & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


class _PCG64:
    """numpy.random.default_rng(seed)'s stream for `sample_drop`'s two draws: PCG64 seeded
    through SeedSequence, whose output numpy guarantees across versions, unlike its
    Generator's. Drawing from it loads neither numpy.random nor, through it, OpenSSL."""

    def __init__(self, seed: int):
        # SeedSequence(seed).generate_state(4, np.uint64): the seed's 32-bit words, low first,
        # mixed into a pool of four, drawn from the cycled pool as 8 words, paired low first
        seed = operator.index(seed)
        entropy = [seed >> 32 * i & _MASK32 for i in range(max(1, -(-seed.bit_length() // 32)))]
        hashmix = _hasher(0x43B0D7E5, 0x931E8875)
        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for src, dst in permutations(range(4), 2):
            pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[4:]:
            pool = [_mix(value, hashmix(word)) for value in pool]
        draw = _hasher(0x8B51F9DD, 0x58F38DED)
        words = [draw(pool[i % 4]) for i in range(8)]
        s0, s1, s2, s3 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
        self.inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self.state = self.inc + (s0 << 64 | s1)  # PCG64's first step from 0 gives inc
        self._next64()
        self.halves = self._halves()

    def _next64(self) -> int:
        state = self.state = (self.state * _PCG_MULTIPLIER + self.inc) & _MASK128
        word, rotation = (state >> 64 ^ state) & _MASK64, state >> 122
        return (word >> rotation | word << (64 - rotation)) & _MASK64

    def _halves(self):
        """32-bit draws: a 64-bit draw's low half, then its high half, kept past 64-bit draws."""
        while True:
            word = self._next64()
            yield word & _MASK32
            yield word >> 32

    def uniform(self, low: float, high: float) -> float:
        """Generator.uniform(low, high): a float in [low, high)."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)

    def integers(self, low: int, high: int) -> int:
        """Generator.integers(low, high) for 0 < high - low < 2**32: Lemire's 32-bit draw."""
        span = high - low
        if span == 1:
            return low
        m = next(self.halves) * span
        while m & _MASK32 < 2**32 % span:  # the biased low products are redrawn
            m = next(self.halves) * span
        return low + (m >> 32)


def drops_fingerprint(drops: list[UEDrop]) -> str:
    """Stable digest of all drop coordinates, for replay consistency checks."""
    h = sha256()
    for drop in drops:
        h.update(np.ascontiguousarray(drop.positions).tobytes())
    return h.hexdigest()[:16]


def save_drops(drops: list[UEDrop], path, meta: dict | None = None) -> None:
    """Write drops.json a row (one user) at a time, in the bytes of one json.dump."""
    head = json.dumps({"kind": "ue_drops", **(meta or {}), "drops": []})
    with open(path, "w") as fh:
        fh.write(head[:-2])  # up to the rows' opening bracket
        separator = ""
        for d in drops:
            for u, (x, y, z) in enumerate(np.asarray(d.positions).tolist(), 1):
                fh.write(separator + json.dumps({"p": d.index, "u": u, "x": x, "y": y, "z": z}))
                separator = ", "
        fh.write("]}\n")

