"""dB/dBm conversions. Internal computations stay in SI (watts, Hz, meters)."""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0


def dbm_to_watts(dbm):
    return 1e-3 * 10.0 ** (np.asarray(dbm, dtype=float) / 10.0)


def watts_to_dbm(watts):
    return 10.0 * np.log10(np.asarray(watts, dtype=float) / 1e-3)


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)
