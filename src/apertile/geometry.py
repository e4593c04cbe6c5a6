"""Panel geometry, analytic element pattern, weight expansion, far field.

The panel lies in the (y, z) plane with boresight along +x. Observation
directions use physics spherical coordinates: theta is the polar angle from
the +z axis, phi the azimuth from +x in the (x, y) plane, so boresight is
(theta, phi) = (90 deg, 0). Element (m, n) sits at (0, y_m, z_n) with
y_m = (m - 1) d_y and z_n = h_BS + (n - (N + 1)/2) d_z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tiling import AggregationVector
from .units import SPEED_OF_LIGHT_M_S, db_to_linear


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
        if self.spacing_y_m <= 0 or self.spacing_z_m <= 0 or self.frequency_hz <= 0:
            raise ValueError("spacings and frequency must be positive")

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


def port_offset(pol: str) -> int:
    if pol not in POLARIZATIONS:
        raise ValueError(f"polarization must be one of {POLARIZATIONS}, got {pol!r}")
    return POLARIZATIONS.index(pol) + 1


@dataclass(frozen=True)
class ElementPattern:
    """Parabolic-in-dB directional element with slant linear polarization.

    Azimuth and elevation cuts each roll off as 12 (angle / beamwidth)^2 dB,
    clamped at the front-to-back attenuation; the combined rolloff is clamped
    there too. Slant angles define the ideal +-45 deg polarization basis.
    """

    boresight_gain_dbi: float = 8.0
    azimuth_beamwidth_deg: float = 65.0
    elevation_beamwidth_deg: float = 65.0
    front_to_back_db: float = 30.0
    slant_v_deg: float = -45.0
    slant_h_deg: float = 45.0

    def __post_init__(self):
        for bw in (self.azimuth_beamwidth_deg, self.elevation_beamwidth_deg):
            if not (0.0 < bw < 180.0):
                raise ValueError(f"beamwidth {bw} outside (0, 180) deg")

    def slant_deg(self, pol: str) -> float:
        port_offset(pol)
        return self.slant_v_deg if pol == "V" else self.slant_h_deg

    def power_gain_db(self, theta, phi):
        """Directional power gain in dBi; accepts scalars or arrays (rad)."""
        phi_deg = np.degrees(np.arctan2(np.sin(phi), np.cos(phi)))
        theta_deg = np.degrees(theta)
        fb = self.front_to_back_db
        a_az = -np.minimum(12.0 * (phi_deg / self.azimuth_beamwidth_deg) ** 2, fb)
        a_el = -np.minimum(
            12.0 * ((theta_deg - 90.0) / self.elevation_beamwidth_deg) ** 2, fb
        )
        return self.boresight_gain_dbi - np.minimum(-(a_az + a_el), fb)

    def power_gain(self, theta, phi):
        return db_to_linear(self.power_gain_db(theta, phi))


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


@dataclass
class BeamWeights:
    """Sub-array coefficients per beam and TX polarization, plus expansion.

    `coefficients[b - 1, p]` is the Q-vector driving beam b on polarization
    p (0 = V, 1 = H); element weights follow by tile-membership lookup.
    """

    aggregation: AggregationVector
    coefficients: np.ndarray  # (B, 2, Q) complex

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.ndim != 3 or c.shape[1] != 2 or c.shape[2] != self.aggregation.tile_count:
            raise ValueError(
                f"coefficients must be (B, 2, Q={self.aggregation.tile_count}), got {c.shape}"
            )
        self.coefficients = c

    @property
    def beam_count(self) -> int:
        return self.coefficients.shape[0]

    def element_weights(self) -> np.ndarray:
        """(B, 2, M*N) per-element weights in pixel order."""
        return expand_weights(self.aggregation, self.coefficients)


def far_field(
    geometry: ArrayGeometry,
    pattern: ElementPattern,
    weights: BeamWeights,
    theta: float,
    phi: float,
    beam: int,
    pol: str,
) -> np.ndarray:
    """Radiated complex (theta-hat, phi-hat) field of one beam at one angle.

    Plane-wave phase kernel exp(j k (y_m sin(theta) sin(phi) + z_n cos(theta)))
    summed over all elements.
    """
    if not (1 <= beam <= weights.beam_count):
        raise ValueError(f"beam {beam} outside [1, {weights.beam_count}]")
    w = weights.element_weights()[beam - 1, POLARIZATIONS.index(pol)]
    pos = geometry.element_positions()
    k = 2.0 * np.pi / geometry.wavelength_m
    phase = k * (pos[:, 1] * np.sin(theta) * np.sin(phi) + pos[:, 2] * np.cos(theta))
    array_factor = np.sum(w * np.exp(1j * phase))
    return element_field(pattern, theta, phi, pol) * array_factor
