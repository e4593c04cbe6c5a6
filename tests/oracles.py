"""Independent reference implementations used only to check the fast paths.

Everything here is deliberately written the slow, obvious way (per-entry
loops, exhaustive recursion) and shares no code with the library internals.
Helpers that only the tests need, such as `load_drops`, live here too.
"""

from __future__ import annotations

import json
import string
from dataclasses import replace

import numpy as np

from apertile.channel import ChannelModel, ChannelStack
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


def column_major_stack(channels) -> ChannelStack:
    """Whole (2U, 2MN) channels, arrays or ChannelMatrix, as a ChannelStack
    with a 1x1 coupling: base[c, p, a] = G_p[a, c], copied column-major."""
    matrices = np.array([getattr(G, "matrix", G) for G in channels], dtype=complex)
    return ChannelStack(np.ascontiguousarray(np.moveaxis(matrices, -1, 0)))


def eigvalsh_cap_decision(H, condition_cap):
    """Per-drop cap test on (P, A, 2Q) channels from the eigenvalues of H H^H:
    full rank and sqrt(lambda_max / lambda_min) <= cap."""
    gram = H @ np.conj(np.swapaxes(H, -1, -2))
    lam = np.linalg.eigvalsh(gram)
    ok = lam[:, 0] > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.sqrt(lam[:, -1] / np.where(ok, lam[:, 0], 1.0))
    return ok & (cond <= condition_cap)


def normal_equations_zero_force(H, sizes, condition_cap):
    """`precoding._zero_force` as it stood before its in-place rewrite,
    arithmetic copied verbatim: (ok, V, norms, power), the last three None
    when solve meets an exactly singular Gram matrix."""
    gram = H @ np.conj(np.swapaxes(H, -1, -2))
    tau = min(condition_cap / 100.0, 1e6)
    try:
        V = np.conj(np.swapaxes(np.linalg.solve(gram, H), -1, -2))  # (P, 2Q, A)
    except np.linalg.LinAlgError:
        ok = eigvalsh_cap_decision(H, condition_cap)
        if ok.all():
            raise
        return ok, None, None, None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        magnitude = V.real**2 + V.imag**2
        norms = np.sqrt(np.einsum("q,pqa->pa", sizes, magnitude))
        V_normalized = V / norms[:, None, :]
        product = H @ V_normalized  # (P, A, A)
        power = product.real**2 + product.imag**2
        residual_f2 = (
            np.einsum("pa,pa->p", norms**2, power.sum(axis=1))
            - 2.0 * np.einsum("pa,pa->p", norms, np.einsum("paa->pa", product).real)
            + H.shape[1]
        )
        h_f2 = np.einsum("paa->p", gram).real
        v_f2 = magnitude.sum(axis=(1, 2))
        ok = (residual_f2 <= 0.25) & (2.0 * np.sqrt(h_f2 * v_f2) <= tau)
    if not ok.all():
        open_drops = ~ok
        ok[open_drops] = eigvalsh_cap_decision(H[open_drops], condition_cap)
    return ok, V, norms, power


def normal_equations_record(H, sizes, budget, beams, condition_cap):
    """The record fields of `optimizer._evaluate` on one block of every
    drop, with the scoring arithmetic as it stood before its in-place
    rewrite, copied verbatim: (per-drop sum rates, average, eta, min power,
    covered, feasible, per-UE capacities)."""
    ok, V, norms, power = normal_equations_zero_force(H, sizes, condition_cap)
    drops, ports, columns = H.shape
    users = ports // 2
    feasible = bool(ok.all())
    if feasible:
        diagonal = np.einsum("paa->pa", power)
        per_beam_power = budget.tx_power_w / (users if beams is None else beams)
        p_des = per_beam_power * diagonal
        p_mui = per_beam_power * (power.sum(axis=2) - diagonal)
        snr = p_des / (p_mui + budget.noise_power_w)
        port_capacity = np.log2(1.0 + snr)  # (P, A)
        per_drop = port_capacity.sum(axis=1)
        eta = p_des.min(axis=0)
        per_ue = port_capacity.reshape(drops, users, 2).sum(axis=2)
    else:
        per_drop, eta, per_ue = np.full(drops, np.nan), np.full(ports, np.nan), None
    min_power = float(eta.min())
    covered = feasible and bool(min_power >= budget.coverage_threshold_w)
    return per_drop, float(per_drop.mean()), eta, min_power, covered, feasible, per_ue


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


def ascii_grid(cover, aperture) -> str:
    """A cover's ASCII grid read off its per-pixel tile ids, top row first:
    tile q's symbol is the q-th of 0-9, A-Z, a-z, repeating past the last."""
    symbols = string.digits + string.ascii_uppercase + string.ascii_lowercase
    values = np.asarray(cover.values).reshape(aperture.rows, aperture.columns)
    lines = ["".join(symbols[(q - 1) % len(symbols)] for q in row) for row in values[::-1]]
    return "\n".join(lines)


def summarize_ledger_rows(rows, baseline_capacity=None) -> dict:
    """`optimizer.summarize_ledger` as it stood when it took a list of
    rows and summarized their (rows, 5) float array."""
    if not rows:
        raise ValueError("empty ledger")
    _t, caps, pows, covered, _feasible = np.array(rows, dtype=float).T
    finite = np.isfinite(caps)
    if not finite.any():
        raise ValueError("no feasible rows in ledger")
    caps_f = caps[finite]
    pows_f = pows[np.isfinite(pows)]
    reductions = {"min": np.min, "max": np.max, "avg": np.mean, "var": np.var}
    out = {
        "rows": len(rows),
        "feasible_rows": int(finite.sum()),
        "coverage_fraction": float(covered.mean()),
        "capacity": {key: float(f(caps_f)) for key, f in reductions.items()},
        "min_power_dbm": {key: float(f(pows_f)) for key, f in reductions.items()},
    }
    if baseline_capacity is not None:
        count = int(np.sum(caps_f > baseline_capacity))
        out["baseline_capacity_bps_hz"] = float(baseline_capacity)
        out["beating_baseline"], out["beating_fraction"] = count, count / len(rows)
    return out


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


def dump_drops(drops: list[UEDrop], path, meta: dict | None = None) -> None:
    """drops.json as one json.dump of the whole document, rows in a list:
    the bytes `scenario.save_drops` must write a row at a time."""
    rows = [
        {"p": d.index, "u": u + 1, "x": x, "y": y, "z": z}
        for d in drops
        for u, (x, y, z) in enumerate(np.asarray(d.positions).tolist())
    ]
    doc = {"kind": "ue_drops", **(meta or {}), "drops": rows}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


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


def savez_precoders(precoders, path, meta: dict | None = None) -> None:
    """The precoder .npz as np.savez writes it from whole stacked arrays:
    the members `precoding.save_precoders` and optimize's streamed file
    must reproduce, name for name and byte for byte."""
    from apertile.precoding import _ORDERING_NOTE

    payload = {
        "coefficients": np.stack([np.asarray(p.coefficients) for p in precoders]),
        "ordering": _ORDERING_NOTE,
    }
    for key, value in (meta or {}).items():
        payload[f"meta_{key}"] = np.asarray(str(value))
    if all(p.scale is not None for p in precoders):
        payload["scales"] = np.stack([np.asarray(p.scale) for p in precoders])
    np.savez(str(path), **payload)


def same_npz_members(got, want) -> bool:
    """Whether two .npz files hold the same members in the same order, each
    the same bytes (the .npy header, so dtype and shape, and the data)."""
    import zipfile

    with zipfile.ZipFile(got) as g, zipfile.ZipFile(want) as w:
        names = w.namelist()
        return g.namelist() == names and all(g.read(n) == w.read(n) for n in names)
