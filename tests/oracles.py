"""Independent reference implementations used only to check the fast paths.

Everything here is deliberately written the slow, obvious way (per-entry
loops, exhaustive recursion) and shares no code with the library internals.
Helpers that only the tests need, such as `load_drops`, live here too.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from apertile.channel import ChannelModel
from apertile.geometry import expand_weights_dual
from apertile.scenario import ScenarioParams, UEDrop
from apertile.shapes import PolyominoShape, normalize_cells


def element_position(geometry, m: int, n: int) -> np.ndarray:
    """Position (0, y_m, z_n) in meters of element column m, row n, the
    per-element reference for `ArrayGeometry.element_positions`."""
    y = (m - 1) * geometry.spacing_y_m
    z = geometry.bs_height_m + (n - (geometry.rows + 1) / 2.0) * geometry.spacing_z_m
    return np.array([0.0, y, z])


def brute_force_placements(aperture, shape: PolyominoShape) -> set[frozenset[int]]:
    """Every admissible covered-pixel set of a shape, by scanning all anchors
    of all 8 raw transforms."""
    variants = set()
    cells = list(shape.cells)
    for _ in range(2):
        for _ in range(4):
            variants.add(normalize_cells(cells))
            cells = [(-c, r) for r, c in cells]  # rotate
        cells = [(r, -c) for r, c in cells]  # mirror
    out = set()
    for cellset in variants:
        for n0 in range(1, aperture.rows + 1):
            for m0 in range(1, aperture.columns + 1):
                covered = set()
                ok = True
                for dr, dc in cellset:
                    m, n = m0 + dc, n0 + dr
                    if not (1 <= m <= aperture.columns and 1 <= n <= aperture.rows):
                        ok = False
                        break
                    covered.add(m + (n - 1) * aperture.columns)
                if ok:
                    out.add(frozenset(covered))
    return out


def brute_force_covers(rows: list[frozenset[int]], pixel_count: int) -> set[frozenset[int]]:
    """All exact covers as sets of 0-based row indices, by exhaustive
    recursion on the lowest uncovered pixel."""
    universe = frozenset(range(1, pixel_count + 1))
    out: set[frozenset[int]] = set()

    def recurse(covered: frozenset[int], chosen: tuple[int, ...]):
        if covered == universe:
            out.add(frozenset(chosen))
            return
        pixel = min(universe - covered)
        for k, cells in enumerate(rows):
            if pixel in cells and not (cells & covered):
                recurse(covered | cells, chosen + (k,))

    recurse(frozenset(), ())
    return out


def reference_covers(L) -> list[tuple[int, ...]]:
    """Every exact cover of the incidence matrix L as a tuple of 0-based row
    indices, in the library's depth-first order, by an unmemoized search:
    branch on the uncovered pixel with the fewest candidate rows disjoint
    from the covered pixels (lowest pixel index on ties), and try those
    rows in increasing index."""
    rows = [frozenset(pixels) for pixels in L.rows]
    pixels = range(1, L.aperture.size + 1)
    out: list[tuple[int, ...]] = []

    def recurse(covered: frozenset[int], chosen: tuple[int, ...]):
        free = [i for i in pixels if i not in covered]
        if not free:
            out.append(chosen)
            return
        candidates = {
            i: [k for k, cells in enumerate(rows) if i in cells and not (cells & covered)]
            for i in free
        }
        pixel = min(free, key=lambda i: (len(candidates[i]), i))
        for k in candidates[pixel]:
            recurse(covered | rows[k], chosen + (k,))

    recurse(frozenset(), ())
    return out


def naive_far_field(geometry, pattern, element_weights, theta, phi, pol):
    """Direct double loop over (m, n) for the radiated field."""
    from apertile.geometry import element_field

    total = np.zeros(2, dtype=complex)
    k = 2.0 * np.pi / geometry.wavelength_m
    for n in range(1, geometry.rows + 1):
        for m in range(1, geometry.columns + 1):
            i = m + (n - 1) * geometry.columns
            pos = element_position(geometry, m, n)
            phase = k * (pos[1] * np.sin(theta) * np.sin(phi) + pos[2] * np.cos(theta))
            total += (
                element_field(pattern, theta, phi, pol)
                * element_weights[i - 1]
                * np.exp(1j * phase)
            )
    return total


def los_green(geometry, pattern, tx, rx_position, rx_polarization, model=ChannelModel()):
    """Single coupling between one TX element port (m, n, psi) and one RX
    port, the per-element reference for `assemble_channel`."""
    m, n, psi = tx
    delta = np.asarray(rx_position, dtype=float) - element_position(geometry, m, n)
    d = float(np.linalg.norm(delta))
    theta = np.arccos(delta[2] / d)
    phi = np.arctan2(delta[1], delta[0])
    gain = np.sqrt(pattern.power_gain(theta, phi))
    coupling = np.cos(
        np.radians(pattern.slant_deg(psi)) - np.radians(pattern.slant_deg(rx_polarization))
    )
    amp = model.amplitude(d, geometry.wavelength_m)
    phase = np.exp(-2j * np.pi * d / geometry.wavelength_m)
    return complex(gain * coupling * amp * phase)


def element_weight_norms(V, s):
    """Per-beam L2 norm of a precoder's expanded element weights."""
    w = expand_weights_dual(s, np.asarray(V.coefficients).T)
    return np.linalg.norm(w, axis=-1)


def elementwise_port_powers(G_full, cover, coefficients, tx_power_w, beams, port):
    """Desired/interference power at one port from element-level sums.

    Expands each beam's sub-array coefficients to element weights by
    explicit membership lookup and applies the per-element channel row.
    """
    values = np.asarray(cover.values)
    mn = values.size
    A = coefficients.shape[1]
    q = cover.tile_count
    gains = np.zeros(A, dtype=complex)
    for beam in range(A):
        acc = 0.0 + 0.0j
        for psi in range(2):
            for i in range(mn):
                w = coefficients[psi * q + (values[i] - 1), beam]
                acc += w * G_full[port, psi * mn + i]
        gains[beam] = acc
    scale = tx_power_w / beams
    desired = scale * abs(gains[port]) ** 2
    interference = scale * (np.sum(np.abs(gains) ** 2) - abs(gains[port]) ** 2)
    return desired, interference


def reduceat_aggregate(G, s):
    """Per-tile column sums of a (..., 2U, 2MN) array by one gather and
    `np.add.reduceat`, the reference `aggregate_channel` must match bit for
    bit."""
    mat = np.asarray(G)
    values = np.asarray(s.values)
    mn = values.size
    order = np.argsort(values, kind="stable")
    sizes = s.tile_sizes()
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    cols = np.concatenate((order, mn + order))
    return np.add.reduceat(mat[..., cols], np.concatenate((starts, mn + starts)), axis=-1)


def eigvalsh_cap_decision(H, condition_cap):
    """Per-drop cap test on (P, A, 2Q) channels from the eigenvalues of H H^H:
    full rank and sqrt(lambda_max / lambda_min) <= cap."""
    gram = H @ np.conj(np.swapaxes(H, -1, -2))
    lam = np.linalg.eigvalsh(gram)
    ok = lam[:, 0] > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.sqrt(lam[:, -1] / np.where(ok, lam[:, 0], 1.0))
    return ok & (cond <= condition_cap)


def eigvalsh_first_capacities(H, sizes, condition_cap, budget, beams):
    """(P, A) port capacities and desired powers by deciding the cap with
    eigvalsh before solving; None when a drop fails the cap."""
    if not eigvalsh_cap_decision(H, condition_cap).all():
        return None
    gram = H @ np.conj(np.swapaxes(H, -1, -2))
    V = np.conj(np.swapaxes(np.linalg.solve(gram, H), -1, -2))
    norms = np.sqrt(np.einsum("q,pqa->pa", sizes, V.real**2 + V.imag**2))
    product = H @ (V / norms[:, None, :])
    power = product.real**2 + product.imag**2
    diagonal = np.einsum("paa->pa", power)
    p_des = budget.tx_power_w / beams * diagonal
    p_mui = budget.tx_power_w / beams * (power.sum(axis=2) - diagonal)
    return np.log2(1.0 + p_des / (p_mui + budget.noise_power_w)), p_des


def hexagon_vertices(center, edge):
    return np.array(
        [
            center + edge * np.array([np.cos(np.radians(60 * k)), np.sin(np.radians(60 * k))])
            for k in range(6)
        ]
    )


def point_in_hexagon_crossings(point, center, edge) -> bool:
    """Half-plane test built from consecutive vertex cross products."""
    verts = hexagon_vertices(np.asarray(center, float), edge)
    p = np.asarray(point, float)
    signs = []
    for k in range(6):
        a, b = verts[k], verts[(k + 1) % 6]
        cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        signs.append(cross)
    return all(s > 0 for s in signs) or all(s < 0 for s in signs)


def scenario_defaults(kind: str, **overrides) -> ScenarioParams:
    """Urban-macro (25 m site, 500 m ISD) or urban-micro (10 m, 200 m)."""
    presets = {
        "uma": dict(kind="uma", isd_m=500.0, bs_height_m=25.0),
        "umi": dict(kind="umi", isd_m=200.0, bs_height_m=10.0),
    }
    if kind not in presets:
        raise ValueError(f"unknown scenario kind {kind!r}; known: {sorted(presets)}")
    return replace(ScenarioParams(**presets[kind]), **overrides)


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def load_drops(path) -> list[UEDrop]:
    """Read back the drops `scenario.save_drops` wrote, users in order."""
    with open(path) as fh:
        doc = json.load(fh)
    by_p: dict[int, list[tuple[int, list[float]]]] = {}
    for row in doc["drops"]:
        by_p.setdefault(int(row["p"]), []).append(
            (int(row["u"]), [row["x"], row["y"], row["z"]])
        )
    drops = []
    for p in sorted(by_p):
        users = sorted(by_p[p])
        drops.append(UEDrop(index=p, positions=np.array([pos for _, pos in users])))
    return drops
