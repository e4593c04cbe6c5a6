"""Received-power decomposition, SINR, capacities, coverage, distributions.

Every RX port gets its own beam, so with A ports the precoder has A columns
and the per-beam radiated power is the total TX power divided by the beam
count per polarization (B, equal to the user count in the standard
pipeline). Desired and interfering powers come from the product of the
effective channel with the normalized precoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import LinkBudget
from .precoding import PrecodingMatrix
from .units import watts_to_dbm


@dataclass
class PortPowerReport:
    """Power decomposition at one RX port (all in watts)."""

    desired_w: float
    interference_w: float
    noise_w: float

    @property
    def sinr(self) -> float:
        return self.desired_w / (self.interference_w + self.noise_w)

    @property
    def capacity_bps_hz(self) -> float:
        return float(np.log2(1.0 + self.sinr))


def port_powers(
    h_row: np.ndarray,
    V: PrecodingMatrix | np.ndarray,
    budget: LinkBudget,
    port: int,
    beams: int | None = None,
) -> PortPowerReport:
    """Desired and multi-user interference power at one RX port.

    `h_row` is that port's row of the effective channel; `port` is its
    0-based column in the precoder. Each beam carries tx_power / beams,
    interfering beams add incoherently.
    """
    coeffs = V.coefficients if isinstance(V, PrecodingMatrix) else np.asarray(V)
    if not 0 <= port < coeffs.shape[1]:
        raise ValueError(f"port {port} outside [0, {coeffs.shape[1]})")
    if beams is None:
        beams = coeffs.shape[1] // 2
    gains = np.asarray(h_row) @ coeffs
    power = np.abs(gains) ** 2 * (budget.tx_power_w / beams)
    desired = float(power[port])
    return PortPowerReport(
        desired_w=desired,
        interference_w=float(power.sum() - desired),
        noise_w=budget.noise_power_w,
    )


@dataclass
class EvaluationRecord:
    """Everything measured for one tiling against one drop set."""

    tiling_index: int
    per_drop_sum_rates: np.ndarray  # (P,)
    average_sum_rate: float
    eta_desired_w: np.ndarray  # (A,) per-port minimum desired power over drops
    min_desired_power_w: float
    covered: bool
    feasible: bool = True
    per_ue_capacities: np.ndarray | None = None  # (P, U)
    drops_fingerprint: str | None = None

    def eta_desired_dbm(self) -> np.ndarray:
        return watts_to_dbm(self.eta_desired_w)

    @property
    def min_power_dbm(self) -> float:
        """min_desired_power_w in dBm, as the ledger and every report give it."""
        return float(watts_to_dbm(self.min_desired_power_w))


@dataclass
class CapacityDistribution:
    """Histogram PDF over equal-width bins and its running-sum CDF."""

    bin_edges: np.ndarray  # (bins + 1,)
    pdf: np.ndarray  # (bins,) masses summing to 1
    cdf: np.ndarray  # (bins,) nondecreasing, last entry 1


def distribution(values, bins: int = 20) -> CapacityDistribution:
    """PDF/CDF of per-user capacities over `bins` equal-width bins.

    All-equal inputs degenerate to a single bin carrying the full mass.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise ValueError("no capacity samples")
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        return CapacityDistribution(
            bin_edges=np.array([lo, hi]), pdf=np.array([1.0]), cdf=np.array([1.0])
        )
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    pdf = counts / values.size
    return CapacityDistribution(bin_edges=edges, pdf=pdf, cdf=np.cumsum(pdf))


def eta_statistics(eta_desired_dbm) -> dict:
    """min/max/mean/variance of the per-port minimum desired powers, in dBm
    (variance therefore in dB^2)."""
    eta = np.asarray(eta_desired_dbm, dtype=float)
    if eta.size == 0:
        raise ValueError("no ports")
    return {
        "min": float(eta.min()),
        "max": float(eta.max()),
        "avg": float(eta.mean()),
        "var_db2": float(eta.var()),
    }
