"""Panel geometry, analytic element pattern, weight expansion, far field.

The panel lies in the (y, z) plane with boresight along +x. Observation
directions use physics spherical coordinates: theta is the polar angle from
the +z axis, phi the azimuth from +x in the (x, y) plane, so boresight is
(theta, phi) = (90 deg, 0). Element (m, n) sits at (0, y_m, z_n) with
y_m = (m - 1) d_y and z_n = h_BS + (n - (N + 1)/2) d_z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ElementPattern
from .tiling import AggregationVector
from .units import SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class ArrayGeometry:
    columns: int  # M, along y
    rows: int  # N, along z
    spacing_y_m: float
    spacing_z_m: float
    bs_height_m: float
    frequency_hz: float

    def __post_init__(self):
        if self.columns < 1 or self.rows < 1:
            raise ValueError("panel must have positive dimensions")
        # written so that NaN fails too
        positive = (self.spacing_y_m, self.spacing_z_m, self.frequency_hz)
        if not all(0 < x < math.inf for x in positive):
            raise ValueError("spacings and frequency must be positive and finite")
        if not math.isfinite(self.bs_height_m):
            raise ValueError("base-station height must be finite")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz

    @property
    def element_count(self) -> int:
        return self.columns * self.rows

    def element_positions(self) -> np.ndarray:
        """(M*N, 3) array in pixel-index order (column m runs fastest)."""
        m = np.arange(1, self.columns + 1)
        n = np.arange(1, self.rows + 1)
        y = (m - 1) * self.spacing_y_m
        z = self.bs_height_m + (n - (self.rows + 1) / 2.0) * self.spacing_z_m
        out = np.zeros((self.element_count, 3))
        out[:, 1] = np.tile(y, self.rows)
        out[:, 2] = np.repeat(z, self.columns)
        return out


#: TX/RX polarization ports in fixed order; the port-index offset of V is 1
#: and of H is 2 (1-based), i.e. V rows come first within each user.
POLARIZATIONS = ("V", "H")


def element_field(pattern: ElementPattern, theta, phi, pol: str) -> np.ndarray:
    """Complex (theta-hat, phi-hat) field components of one element port.

    The slant-polarized element radiates the square root of its power gain
    along the unit polarization vector (cos slant, sin slant) in the local
    spherical basis; the two components stack on the last axis.
    """
    zeta = np.radians(pattern.slant_deg(pol))
    amp = np.sqrt(pattern.power_gain(theta, phi))
    comps = np.stack(
        [amp * np.cos(zeta), amp * np.sin(zeta)], axis=-1
    )
    return comps.astype(complex)


def expand_weights(s: AggregationVector, v: np.ndarray) -> np.ndarray:
    """Per-element weights from per-tile coefficients, w[i] = v[s_i].

    `v` carries the tile axis last with exactly Q entries; any leading axes
    (beam, polarization) broadcast through.
    """
    v = np.asarray(v)
    if v.shape[-1] != s.tile_count:
        raise ValueError(
            f"coefficient axis has {v.shape[-1]} entries, tiling has {s.tile_count} tiles"
        )
    return v[..., np.asarray(s.values) - 1]


def expand_weights_dual(s: AggregationVector, v: np.ndarray) -> np.ndarray:
    """Expansion for stacked dual-polarization coefficients (last axis 2Q)."""
    v = np.asarray(v)
    q = s.tile_count
    if v.shape[-1] != 2 * q:
        raise ValueError(
            f"stacked coefficient axis has {v.shape[-1]} entries, expected {2 * q}"
        )
    paired = v.reshape(v.shape[:-1] + (2, q))
    expanded = expand_weights(s, paired)
    return expanded.reshape(v.shape[:-1] + (2 * len(s.values),))


def far_field(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    weights: np.ndarray,
    theta: float,
    phi: float,
    pol: str,
) -> np.ndarray:
    """Radiated complex (theta-hat, phi-hat) field at one angle of port `pol`
    driven by the (M*N,) element weights in pixel order.

    Plane-wave phase kernel exp(j k (y_m sin(theta) sin(phi) + z_n cos(theta)))
    summed over all elements.
    """
    pos = geometry.element_positions()
    k = 2.0 * np.pi / geometry.wavelength_m
    phase = k * (pos[:, 1] * np.sin(theta) * np.sin(phi) + pos[:, 2] * np.cos(theta))
    array_factor = np.sum(weights * np.exp(1j * phase))
    return element_field(pattern, theta, phi, pol) * array_factor
