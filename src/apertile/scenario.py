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
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScenarioParams:
    kind: str  # "uma" | "umi" | free-form tag
    isd_m: float
    bs_height_m: float
    ue_height_mode: str = "fixed"  # "fixed" | "floor"
    ue_height_m: float = 1.5
    drops: int = 200
    users: int = 16
    seed: int = 1
    # cell centroid override; defaults to (d_H, 0) when None
    centroid_x_m: float | None = None
    centroid_y_m: float | None = None

    def __post_init__(self):
        if self.isd_m <= 0:
            raise ValueError("ISD must be positive")
        if self.drops < 1 or self.users < 1:
            raise ValueError("need at least one drop and one user")
        if self.ue_height_mode not in ("fixed", "floor"):
            raise ValueError(f"unknown UE height mode {self.ue_height_mode!r}")

    @property
    def hex_edge_m(self) -> float:
        return self.isd_m / 3.0

    @property
    def centroid(self) -> np.ndarray:
        x = self.hex_edge_m if self.centroid_x_m is None else self.centroid_x_m
        y = 0.0 if self.centroid_y_m is None else self.centroid_y_m
        return np.array([x, y])


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


def floor_height(rng: np.random.Generator) -> float:
    """Random building-floor height: 3 * (n_floor - 1) + 1.5 meters.

    The building height Omega is itself a uniform integer in [4, 8], then
    the floor is uniform in [1, Omega]; upper floors are accordingly rarer.
    """
    omega = int(rng.integers(4, 9))
    n_floor = int(rng.integers(1, omega + 1))
    return 3.0 * (n_floor - 1) + 1.5


def sample_drop(params: ScenarioParams, index: int, rng: np.random.Generator) -> UEDrop:
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
    rng = np.random.default_rng(params.seed)
    return [sample_drop(params, p, rng) for p in range(1, params.drops + 1)]


def drops_fingerprint(drops: list[UEDrop]) -> str:
    """Stable digest of all drop coordinates, for replay consistency checks."""
    import hashlib

    h = hashlib.sha256()
    for drop in drops:
        h.update(np.ascontiguousarray(drop.positions).tobytes())
    return h.hexdigest()[:16]


def save_drops(drops: list[UEDrop], path, meta: dict | None = None) -> None:
    rows = [
        {"p": d.index, "u": u + 1, "x": x, "y": y, "z": z}
        for d in drops
        for u, (x, y, z) in enumerate(np.asarray(d.positions).tolist())
    ]
    doc = {"kind": "ue_drops", **(meta or {}), "drops": rows}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")

