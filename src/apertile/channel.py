"""Deterministic line-of-sight channel between element ports and UE ports.

One drop yields a complex matrix with A = 2U rows and 2*M*N columns. Row
a = 2*(u - 1) + O(chi) (1-based) is the chi-polarized RX port of user u,
with O(V) = 1 and O(H) = 2. Columns come in two polarization blocks, V
then H, each in pixel-index order (column m fastest). Entries combine the
free-space (or exponent-overridden) path gain, the TX element pattern
toward the user, the slant polarization coupling under aligned bases, and
the propagation phase exp(-j 2 pi d / lambda) at the exact element-to-user
distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import POLARIZATIONS, ArrayGeometry, ElementPattern
from .tiling import AggregationVector
from .units import dbm_to_watts


@dataclass(frozen=True)
class LinkBudget:
    """Total TX power, per-port noise power, and coverage floor, in watts."""

    tx_power_w: float
    noise_power_w: float
    coverage_threshold_w: float

    def __post_init__(self):
        if min(self.tx_power_w, self.noise_power_w, self.coverage_threshold_w) <= 0:
            raise ValueError("budget powers must be positive")

    @classmethod
    def from_dbm(cls, tx_power_dbm, noise_power_dbm, coverage_threshold_dbm):
        return cls(
            tx_power_w=float(dbm_to_watts(tx_power_dbm)),
            noise_power_w=float(dbm_to_watts(noise_power_dbm)),
            coverage_threshold_w=float(dbm_to_watts(coverage_threshold_dbm)),
        )


@dataclass(frozen=True)
class ChannelModel:
    """Propagation settings: "fspl" or a path-loss-exponent override.

    Exponent 2 reproduces free space; other exponents rescale the amplitude
    as (lambda / 4 pi) d^(-alpha/2) with a 1 m pivot. The penetration loss
    (dB) models indoor users and defaults to 0.
    """

    mode: str = "fspl"
    path_loss_exponent: float = 2.0
    penetration_loss_db: float = 0.0

    def __post_init__(self):
        if self.mode not in ("fspl", "ploss_exp"):
            raise ValueError(f"unknown channel mode {self.mode!r}")
        if self.path_loss_exponent <= 0:
            raise ValueError("path-loss exponent must be positive")

    @property
    def tag(self) -> str:
        if self.mode == "fspl":
            base = "fspl"
        else:
            base = f"ploss_exp({self.path_loss_exponent:g})"
        if self.penetration_loss_db:
            base += f"+pen({self.penetration_loss_db:g}dB)"
        return base

    def amplitude(self, distance_m, wavelength_m):
        """Linear field amplitude of the path gain at the given distance."""
        d = np.asarray(distance_m, dtype=float)
        lam = wavelength_m
        if self.mode == "fspl":
            amp = lam / (4.0 * np.pi * d)
        else:
            amp = lam / (4.0 * np.pi) * d ** (-self.path_loss_exponent / 2.0)
        return amp * 10.0 ** (-self.penetration_loss_db / 20.0)


@dataclass
class ChannelMatrix:
    """(2U, 2MN) complex port-to-port couplings for one drop."""

    matrix: np.ndarray


def _polarization_coupling(pattern: ElementPattern) -> np.ndarray:
    """coupling[chi, psi] = cos(slant_psi - slant_chi) under aligned bases."""
    slants = np.radians([pattern.slant_deg(p) for p in POLARIZATIONS])
    return np.cos(slants[None, :] - slants[:, None])


def assemble_channel(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    drop,
    model: ChannelModel = ChannelModel(),
) -> ChannelMatrix:
    """Full (2U, 2MN) matrix for one drop, independent of any tiling."""
    rx = np.asarray(drop.positions, dtype=float)
    if rx.ndim != 2 or rx.shape[1] != 3 or rx.shape[0] < 1:
        raise ValueError("drop positions must be a (U, 3) array")
    pos = geometry.element_positions()  # (MN, 3)
    delta = rx[:, None, :] - pos[None, :, :]  # (U, MN, 3)
    d = np.linalg.norm(delta, axis=-1)
    if np.any(d == 0.0):
        raise ValueError("an RX position coincides with an array element")
    theta = np.arccos(np.clip(delta[..., 2] / d, -1.0, 1.0))
    phi = np.arctan2(delta[..., 1], delta[..., 0])
    base = (
        np.sqrt(pattern.power_gain(theta, phi))
        * model.amplitude(d, geometry.wavelength_m)
        * np.exp(-2j * np.pi * d / geometry.wavelength_m)
    )  # (U, MN)
    coupling = _polarization_coupling(pattern)  # (chi, psi)
    u_count, mn = base.shape
    full = base[:, None, None, :] * coupling[None, :, :, None]  # (U, chi, psi, MN)
    matrix = full.reshape(2 * u_count, 2 * mn)
    return ChannelMatrix(matrix=matrix)


@dataclass(frozen=True)
class ChannelStack:
    """Every drop's channel, stored column-major: shape (2MN, P, A).

    columns[c, p, a] = G_p[a, c]. Each TX column is one contiguous (P, A)
    block, so aggregating a tile gathers whole blocks instead of striding
    through every row of every drop.
    """

    columns: np.ndarray

    @classmethod
    def fill(cls, channels, drops: int) -> "ChannelStack":
        """Stack `drops` channels (ChannelMatrix or (2U, 2MN) arrays) taken
        one at a time from an iterable, so a generator of assemblies never
        holds more than one matrix."""
        columns = None
        for p, channel in enumerate(channels):
            matrix = channel.matrix if isinstance(channel, ChannelMatrix) else channel
            if columns is None:
                columns = np.empty((matrix.shape[1], drops, matrix.shape[0]), complex)
            columns[:, p, :] = matrix.T
        if columns is None or p != drops - 1:
            raise ValueError(f"expected {drops} channels")
        return cls(columns)


def _pairwise_sum(items: list, floats: int) -> np.ndarray:
    """Sum equally shaped arrays in place, in the order of numpy's pairwise
    summation; returns the item that holds the sum and overwrites others.

    That order, in terms of the element count times `floats` (2 per complex
    value, 1 per real), is sequential below 8, eight float lanes up to 128,
    and a halving recursion above; it is what `np.add.reduce` and
    `np.add.reduceat` use along a reduced axis.
    """
    m = len(items)
    n = floats * m
    if n < 8:
        acc = items[0]
        for x in items[1:]:
            acc += x
        return acc
    if n <= 128:
        width = 8 // floats
        end = m - m % width
        lanes = items[:width]
        for i in range(width, end, width):
            for lane, x in zip(lanes, items[i : i + width]):
                lane += x
        while len(lanes) > 1:
            for a, b in zip(lanes[::2], lanes[1::2]):
                a += b
            lanes = lanes[::2]
        acc = lanes[0]
        for x in items[end:]:
            acc += x
        return acc
    half = n // 2
    half = (half - half % 8) // floats
    acc = _pairwise_sum(items[:half], floats)
    acc += _pairwise_sum(items[half:], floats)
    return acc


def aggregate_channel(G, s: AggregationVector) -> np.ndarray:
    """Per-tile column sums of a channel matrix under an aggregation vector.

    Accepts a ChannelMatrix, a (2U, 2MN) array, any (..., 2U, 2MN) stack, or
    a ChannelStack; returns a C-contiguous (..., 2U, 2Q) array (P drops
    first for a ChannelStack) with columns ordered V tiles 1..Q then H
    tiles: the placement table of the cover's tiles, so the result is bit
    for bit `np.add.reduceat` over each tile's ascending columns.
    """
    if isinstance(G, ChannelStack):
        by_column = G.columns
    else:
        mat = G.matrix if isinstance(G, ChannelMatrix) else np.asarray(G)
        by_column = np.moveaxis(mat, -1, 0)
    values = np.asarray(s.values)
    if by_column.shape[0] != 2 * values.size:
        raise ValueError(
            f"channel has {by_column.shape[0]} TX columns, tiling covers {values.size} elements"
        )
    order = np.argsort(values, kind="stable")
    table = placement_table(by_column, np.split(order, np.cumsum(s.tile_sizes())[:-1]))
    return table.reshape(*table.shape[:-2], -1)


def _tile_sums(by_column: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Sums of the TX columns of equally sized tiles, one gather for all.

    `cells` is (T, n): each row holds one tile's column indices in
    ascending order. Row j of the new (T, ...) result is by_column[cells[j,
    0]] plus the pairwise sum of the rest. Each element is summed on its
    own, so a tile's sum does not depend on which tiles share the call.
    """
    floats = 2 if np.iscomplexobj(by_column) else 1
    # (n, T, ...): a new array, so the sums may overwrite it; g[j] are
    # disjoint blocks, so in-place adds need no overlap copies
    g = by_column[cells.T]
    sums = g[0]
    if cells.shape[1] > 1:
        sums = _pairwise_sum(list(g[1:]), floats)
        sums += g[0]
    return sums


# Sets summed per gather, which bounds its (n, 2T, ...) temporary. Smaller
# chunks were faster in a warm process but slower end to end at 200 drops:
# a worker whose largest freed block is small keeps glibc's mmap and trim
# thresholds low, and pays page faults again on every tiling's arrays.
PLACEMENT_CHUNK = 32


def placement_table(G, cells) -> np.ndarray:
    """The aggregated channel columns of every pixel set, shape (..., 2, R).

    `G` is a ChannelStack or its column-major (2MN, ...) array, and
    `cells[k]` holds set k's 0-based pixel indices in ascending order.
    table[..., 0, k] sums their V columns and table[..., 1, k] their H
    columns. Sets of one size are summed PLACEMENT_CHUNK at a time. For a
    ChannelStack and the placements of an incidence matrix, a tiling of
    placements `rows` (in tile-id order) then has the effective channels
    np.take(table, rows, axis=-1).reshape(P, A, 2Q).
    """
    by_column = G.columns if isinstance(G, ChannelStack) else G
    mn = by_column.shape[0] // 2
    sizes = np.array([len(c) for c in cells])
    by_set = None  # (V or H, set, ...), made C-contiguous as (..., 2, R) once
    for n in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == n)
        for chunk in np.split(rows, range(PLACEMENT_CHUNK, rows.size, PLACEMENT_CHUNK)):
            pixels = np.array([cells[k] for k in chunk])
            sums = _tile_sums(by_column, np.concatenate((pixels, mn + pixels)))
            pair = sums.reshape(2, chunk.size, *sums.shape[1:])
            if chunk.size == sizes.size:
                by_set = pair  # one gather held every set
            else:
                if by_set is None:
                    by_set = np.empty((2, sizes.size) + pair.shape[2:], pair.dtype)
                by_set[:, chunk] = pair
    return np.ascontiguousarray(np.moveaxis(by_set, (0, 1), (-2, -1)))
