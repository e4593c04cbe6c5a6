"""Zero-forcing sub-array coefficients and beam power normalization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tiling import AggregationVector


class ChannelRankError(RuntimeError):
    """Effective channel is rank deficient or too ill conditioned to invert."""


@dataclass
class PrecodingMatrix:
    """(2Q, A) coefficients; column b drives the beam serving RX port b.

    `scale` holds the multiplier applied to each column by the power
    normalization (None before normalization); dividing a column by its
    scale recovers the raw zero-forcing solution.
    """

    coefficients: np.ndarray
    scale: np.ndarray | None = None


def zero_forcing(H, condition_cap: float = 1e8) -> PrecodingMatrix:
    """Minimum-norm right inverse of the effective channel.

    Computes conj(H).T @ inv(H @ conj(H).T), so H @ V is the identity on
    the RX ports: the batched kernel `_zero_force` run on one drop. Raises
    ChannelRankError when H has more rows than columns, is rank deficient,
    or its condition number exceeds the cap.
    """
    H = np.asarray(H, dtype=complex)
    ports, dof = H.shape
    if ports > dof:
        raise ChannelRankError(
            f"{ports} RX ports exceed {dof} sub-array degrees of freedom"
        )
    ok, V, _, _ = _zero_force(H[None], np.ones(dof), condition_cap)
    if not ok[0]:
        raise ChannelRankError(
            "effective channel is rank deficient or its condition number "
            f"exceeds cap {condition_cap:.3e}"
        )
    return PrecodingMatrix(coefficients=V[0])


def normalize_beams(V: PrecodingMatrix, s: AggregationVector) -> PrecodingMatrix:
    """Scale each beam so its expanded element-weight vector has unit norm.

    Column scaling preserves the zero-forcing nulls; the returned `scale`
    entries are the applied multipliers (1 / pre-scale weight norm).
    """
    coeffs = np.asarray(V.coefficients, dtype=complex)
    q = s.tile_count
    if coeffs.shape[0] != 2 * q:
        raise ValueError(
            f"precoder has {coeffs.shape[0]} coefficient rows, tiling implies {2 * q}"
        )
    sizes = np.concatenate([s.tile_sizes()] * 2).astype(float)
    norms = np.sqrt(sizes @ (coeffs.real**2 + coeffs.imag**2))
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize an all-zero beam column")
    return PrecodingMatrix(coefficients=coeffs / norms, scale=1.0 / norms)


# --- batched zero forcing with a certified cap decision -------------------

# Largest condition number the certificate in `_zero_force` may settle. Up to
# cond(H) = 1e6 the Gram matrix has cond <= 1e12, where eigvalsh's computed
# condition number is accurate to far better than the certificate's margin.
CERTIFIED_COND_LIMIT = 1e6


def _cap_decision(gram: np.ndarray, condition_cap: float) -> np.ndarray:
    """Per-drop cap test from the eigenvalues of the (P, A, A) Gram matrices."""
    lam = np.linalg.eigvalsh(gram)
    ok = lam[:, 0] > 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        cond = np.sqrt(lam[:, -1] / np.where(ok, lam[:, 0], 1.0))
    return ok & (cond <= condition_cap)


def _zero_force(H: np.ndarray, sizes: np.ndarray, condition_cap: float):
    """Zero-force a (P, A, 2Q) batch of effective channels and decide the cap.

    Returns (ok, V, norms, power): ok[p] is the decision of `_cap_decision`
    for drop p; V (P, 2Q, A) holds the raw beams, norms (P, A) their
    element-weight norms (weights `sizes`), and power (P, A, A) =
    |H @ V / norms|^2. The last three are None when `solve` meets an
    exactly singular Gram matrix; eigvalsh then decides every drop.

    eigvalsh runs only on the drops that a norm certificate leaves open.
    If ||HV - I||_F <= 1/2, then sigma_min(H) >= 1 / (2 ||V||_2), so
    cond(H) <= 2 ||H||_F ||V||_F; when that is at most
    tau = min(cap / 100, CERTIFIED_COND_LIMIT), eigvalsh would pass the
    drop too. Both norms come from arrays the scoring forms anyway.
    """
    gram = H @ np.conj(np.swapaxes(H, -1, -2))
    tau = min(condition_cap / 100.0, CERTIFIED_COND_LIMIT)
    try:
        V = np.conj(np.swapaxes(np.linalg.solve(gram, H), -1, -2))  # (P, 2Q, A)
    except np.linalg.LinAlgError:
        ok = _cap_decision(gram, condition_cap)
        if ok.all():
            raise
        return ok, None, None, None
    # drops over the cap may overflow here; they fail the certificate
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        magnitude = V.real**2 + V.imag**2
        norms = np.sqrt(np.einsum("q,pqa->pa", sizes, magnitude))
        V_normalized = V / norms[:, None, :]
        product = H @ V_normalized  # (P, A, A)
        power = product.real**2 + product.imag**2
        # ||HV - I||_F^2, where column a of HV is norms[a] * product[:, a]
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
        ok[open_drops] = _cap_decision(gram[open_drops], condition_cap)
    return ok, V, norms, power


def _precoders(V: np.ndarray, norms: np.ndarray) -> list[PrecodingMatrix]:
    """One normalized PrecodingMatrix per drop from `_zero_force`'s V and norms."""
    V_normalized = V / norms[:, None, :]
    return [PrecodingMatrix(coefficients=v, scale=1.0 / n) for v, n in zip(V_normalized, norms)]


# --- export ----------------------------------------------------------------

_ORDERING_NOTE = (
    "rows: psi blocks V then H, each tile q = 1..Q; cols: served RX port "
    "a = 2*(u-1)+O(chi), O(V)=1, O(H)=2"
)


def save_precoders(precoders: list[PrecodingMatrix], path, meta: dict | None = None) -> None:
    """Persist per-drop precoders for replay/debug as an uncompressed .npz.

    Compression saves about a fifth of the bytes for over ten times the
    write time; `np.load` reads either form.
    """
    payload = {
        "coefficients": np.stack([np.asarray(p.coefficients) for p in precoders]),
        "ordering": _ORDERING_NOTE,
    }
    for key, value in (meta or {}).items():
        payload[f"meta_{key}"] = np.asarray(str(value))
    if all(p.scale is not None for p in precoders):
        payload["scales"] = np.stack([np.asarray(p.scale) for p in precoders])
    np.savez(str(path), **payload)
