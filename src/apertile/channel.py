"""Deterministic line-of-sight channel between element ports and UE ports.

One drop yields a complex matrix with A = 2U rows and 2*M*N columns. Row
a = 2*(u - 1) + O(chi) (1-based) is the chi-polarized RX port of user u,
with O(V) = 1 and O(H) = 2. Columns come in two polarization blocks, V
then H, each in pixel-index order (column m fastest). Entries combine the
free-space (or exponent-overridden) path gain, the TX element pattern
toward the user, the slant polarization coupling under aligned bases, and
the propagation phase exp(-j 2 pi d / lambda) at the exact element-to-user
distance. Only the coupling depends on the polarizations, so the matrix is
separable: entry ((u, chi), (psi, mn)) is base[u, mn] * coupling[chi, psi]
for a (U, MN) base and a real 2x2 coupling. `ChannelStack` keeps the
factors of every drop, and `placement_table` forms each product before it
sums a tile, as `assemble_channel` does, so both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ChannelModel, ElementPattern
from .geometry import POLARIZATIONS, ArrayGeometry
from .tiling import AggregationVector
from .units import dbm_to_watts


@dataclass(frozen=True)
class LinkBudget:
    """Total TX power, per-port noise power, and coverage floor, in watts."""

    tx_power_w: float
    noise_power_w: float
    coverage_threshold_w: float

    def __post_init__(self):
        powers = (self.tx_power_w, self.noise_power_w, self.coverage_threshold_w)
        # written so that NaN fails too
        if not all(0 < w < math.inf for w in powers):
            raise ValueError("budget powers must be positive and finite")

    @classmethod
    def from_dbm(cls, tx_power_dbm, noise_power_dbm, coverage_threshold_dbm):
        return cls(
            tx_power_w=float(dbm_to_watts(tx_power_dbm)),
            noise_power_w=float(dbm_to_watts(noise_power_dbm)),
            coverage_threshold_w=float(dbm_to_watts(coverage_threshold_dbm)),
        )


@dataclass
class ChannelMatrix:
    """(2U, 2MN) complex port-to-port couplings for one drop."""

    matrix: np.ndarray


def _polarization_coupling(pattern: ElementPattern) -> np.ndarray:
    """coupling[chi, psi] = cos(slant_psi - slant_chi) under aligned bases."""
    slants = np.radians([pattern.slant_deg(p) for p in POLARIZATIONS])
    return np.cos(slants[None, :] - slants[:, None])


def _channel_base(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    drop,
    model: ChannelModel,
) -> np.ndarray:
    """(U, MN) path gain, element pattern and propagation phase of one drop:
    the factor that every (chi, psi) block of its channel shares."""
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
    return (
        np.sqrt(pattern.power_gain(theta, phi))
        * model.amplitude(d, geometry.wavelength_m)
        * np.exp(-2j * np.pi * d / geometry.wavelength_m)
    )


def assemble_channel(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    drop,
    model: ChannelModel = ChannelModel(),
) -> ChannelMatrix:
    """Full (2U, 2MN) matrix for one drop, independent of any tiling."""
    base = _channel_base(geometry, pattern, drop, model)  # (U, MN)
    coupling = _polarization_coupling(pattern)  # (chi, psi)
    u_count, mn = base.shape
    full = base[:, None, None, :] * coupling[None, :, :, None]  # (U, chi, psi, MN)
    matrix = full.reshape(2 * u_count, 2 * mn)
    return ChannelMatrix(matrix=matrix)


@dataclass(frozen=True)
class ChannelStack:
    """Every drop's channel as two factors, a base and a coupling.

    `base` (K, P, U') is stored column-major: base[c, p, u] is drop p's
    entry for TX column c and RX group u, so each TX column is one
    contiguous (P, U') block. `coupling` (k, k) is real, and drop p's
    channel is G_p[u k + chi, psi K + c] = base[c, p, u] * coupling[chi,
    psi]. Assembled drops keep k = 2, the slant coupling, with K = MN
    pixels and U' = U users: a quarter of the expanded channel. Any other
    (2U, 2MN) channel is stored as itself, with k = 1 and coupling [[1]].
    """

    base: np.ndarray
    coupling: np.ndarray = field(default_factory=lambda: np.ones((1, 1)))

    @classmethod
    def assemble(
        cls, geometry: ArrayGeometry, pattern: ElementPattern, drops, model: ChannelModel
    ) -> "ChannelStack":
        """The factored stack of `drops`: the base factors and the coupling
        whose products `assemble_channel` forms, so the stack describes the
        same channels bit for bit. Each drop's base is written into the
        column-major base as it is formed, so no more than one is held."""
        if not drops:
            raise ValueError("no drops given")
        users = len(drops[0].positions)
        base = np.empty((geometry.columns * geometry.rows, len(drops), users), complex)
        for p, drop in enumerate(drops):
            base[:, p, :] = _channel_base(geometry, pattern, drop, model).T
        return cls(base, _polarization_coupling(pattern))


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
    for bit `np.add.reduceat` over each tile's ascending columns of the
    expanded channel.
    """
    if isinstance(G, ChannelStack):
        stack = G
    else:
        mat = G.matrix if isinstance(G, ChannelMatrix) else np.asarray(G)
        stack = ChannelStack(np.moveaxis(mat, -1, 0))
    columns = stack.base.shape[0] * len(stack.coupling)
    elements = np.size(s.values)
    if columns != 2 * elements:
        raise ValueError(
            f"channel has {columns} TX columns, tiling covers {elements} elements"
        )
    return effective_channels(placement_table(stack, s.tile_cells()))


def effective_channels(table: np.ndarray, rows=None) -> np.ndarray:
    """A tiling's C-contiguous (..., A, 2Q) effective channels from a
    table of `placement_table`: its tiles' `rows` in tile-id order, or
    every row in order. Row u k + chi of column h Q + q is
    table[rows[q], chi, h, ..., u], so the columns are V tiles 1..Q, then
    H tiles. The rows are gathered through a transposed view of the table,
    and a whole table is copied once through that view."""
    by_port = np.moveaxis(table, (0, 1, 2), (-1, -3, -2))  # (..., U', k, 2, R)
    if rows is not None:
        by_port = by_port[..., rows]
    return by_port.reshape(*by_port.shape[:-4], -1, 2 * by_port.shape[-1])


def _tile_sums(g: np.ndarray) -> np.ndarray:
    """Sums over the first axis of a (n, T, ...) gather, in place.

    Row j of the (T, ...) result is g[0, j] plus the pairwise sum of g[1:,
    j], the order of `np.add.reduceat` over a tile's ascending columns.
    Each element is summed on its own, so a tile's sum does not depend on
    which tiles share the call. The result is a view into g.
    """
    if len(g) == 1:
        return g[0]
    sums = _pairwise_sum(list(g[1:]), 2 if np.iscomplexobj(g) else 1)
    sums += g[0]
    return sums


def _coupled_sums(base: np.ndarray, columns: np.ndarray, coupling: np.ndarray):
    """Yields ((chi, psi), sums) for every coupling entry: sums[j] is the
    sum of the base columns in row j of `columns` (T, n), each column
    multiplied by coupling[chi, psi] first, as `assemble_channel` forms it.

    One gather serves every entry, and entries of equal value share one
    sum; a real multiplier on the float view gives the complex product's
    bits. The entry 1 multiplies nothing and is summed last, over the
    gather itself. A yielded sum is overwritten by the next one.
    """
    g = base[columns.T]  # (n, T, ...): a new array, so the sums may overwrite it
    floats = g.real.dtype
    products = None
    for value in sorted(set(coupling.flat), key=lambda c: c == 1.0):
        if value == 1.0:
            sums = _tile_sums(g)
        else:
            if products is None:
                products = np.empty_like(g)
            np.multiply(g.view(floats), value, out=products.view(floats))
            sums = _tile_sums(products)
        for entry in zip(*np.nonzero(coupling == value)):
            yield entry, sums


# Sets gathered at once, which bounds the gather to (n, 32, P, U'). The 16
# hexominoes of an 8x12 P tiling gather 4.9 MB at 200 drops in one call;
# optimize's tasks call this per drop block, 0.6 MB for a block of 25
# drops. Each evaluating process pins glibc's mmap and trim thresholds
# (optimizer._pin_heap), so such blocks come from a heap that keeps its
# pages between tilings.
PLACEMENT_CHUNK = 32


def placement_table(G: ChannelStack, cells) -> np.ndarray:
    """The aggregated channel columns of every pixel set, placement-major:
    shape (R, k, 2, ..., U') for R sets and the stack's k x k coupling, so
    each set is one contiguous block.

    `cells[r]` holds set r's 0-based pixel indices in ascending order.
    table[r, chi, 0, ..., u] sums their V columns of the expanded channel
    in row u k + chi, and table[r, chi, 1, ..., u] their H columns, each
    column formed as base times coupling before it is summed. Sets of one
    size are gathered from the base PLACEMENT_CHUNK at a time, and each
    coupling entry's sums are written in place as contiguous blocks. For
    the placements of an incidence matrix, a tiling of placements `rows`
    (in tile-id order) then has the effective channels
    effective_channels(table, rows).
    """
    base, coupling = G.base, G.coupling
    k = len(coupling)
    halves = 2 // k  # V and H halves of each base column block
    mn = base.shape[0] * k // 2
    sizes = np.array([len(c) for c in cells])
    table = np.empty((sizes.size, k, 2) + base.shape[1:], base.dtype)
    for n in sorted(set(sizes.tolist())):
        rows = np.flatnonzero(sizes == n)
        for chunk in np.split(rows, range(PLACEMENT_CHUNK, rows.size, PLACEMENT_CHUNK)):
            pixels = np.array([cells[j] for j in chunk])
            columns = np.concatenate([h * mn + pixels for h in range(halves)])
            for (chi, psi), sums in _coupled_sums(base, columns, coupling):
                pair = sums.reshape(halves, chunk.size, *sums.shape[1:])
                table[chunk, chi, psi * halves : (psi + 1) * halves] = np.swapaxes(pair, 0, 1)
    return table
