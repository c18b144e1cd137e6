"""Positive definiteness tests and transfer between group and subgroup.

Two independent routes decide positive definiteness: the spectral test
(the FFT transform of :func:`delsarte.fourier.dft` real and nonnegative)
and a Gram-matrix eigenvalue test on the dense difference table, which
shares no code with the transform. For real functions the two agree
exactly when the function is even; non-even input is rejected, never
symmetrized, since a silent fix would mask caller bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleTooLarge
from .fourier import FunctionOnG, _difference_table, dft
from .groups import DualElement, GroupSpec, Subgroup, _require_same_spec

_MAX_GRAM_ORDER = 1024  # largest |G| gram_oracle accepts: its two |G| x |G| arrays take 16 MB


@dataclass(frozen=True, slots=True)
class PosDefReport:
    """Outcome of the spectral test.

    For even real input, ``is_posdef`` is equivalent to
    ``min_spectrum >= -tol * scale``; non-even input fails through
    ``max_imag`` and the witness is the character with the largest
    imaginary part instead of the spectral argmin.
    """

    is_posdef: bool
    min_spectrum: float
    witness: DualElement | None
    max_imag: float
    tol: float
    scale: float


def is_positive_definite(f: FunctionOnG, tol: float = 1e-9) -> PosDefReport:
    """Spectral positive-definiteness test.

    The tolerance scales with (1 + max|f|) * |G|, matching the error
    accumulation of the transform.
    """
    return _spectral_report(f, dft(f).values, tol)


def _spectral_report(f: FunctionOnG, vals: np.ndarray, tol: float) -> PosDefReport:
    """The spectral test on an already computed transform ``vals`` of f."""
    scale = (1.0 + f.norm_inf()) * f.spec.order
    threshold = tol * scale
    re = vals.real
    im = np.abs(vals.imag)
    i_min = int(np.argmin(re))
    i_im = int(np.argmax(im))
    min_spectrum = float(re[i_min])
    max_imag = float(im[i_im])
    if max_imag > threshold:
        return PosDefReport(False, min_spectrum, f.spec.dual_at(i_im), max_imag, tol, scale)
    ok = min_spectrum >= -threshold
    return PosDefReport(ok, min_spectrum, f.spec.dual_at(i_min), max_imag, tol, scale)


def gram_oracle(f: FunctionOnG) -> bool:
    """Positive semidefiniteness of the difference matrix M[j,k] = f(g_j - g_k).

    Eigenvalue test with tolerance -1e-9 * max|f| * |G|. The matrix is read
    through a dense difference table built for this call and dropped after
    it, never through the FFT, so the oracle stays independent of
    :func:`is_positive_definite` and caches nothing. It costs 16 |G|^2
    bytes and O(|G|^3) time, so it raises :class:`OracleTooLarge` before
    allocating anything when |G| exceeds ``_MAX_GRAM_ORDER`` (1024).
    """
    n = f.spec.order
    if n > _MAX_GRAM_ORDER:
        raise OracleTooLarge(f"order {n} exceeds the Gram oracle limit of {_MAX_GRAM_ORDER}")
    m = f.values[_difference_table(f.spec)]
    sym_tol = 1e-12 * (1.0 + f.norm_inf())
    if float(np.max(np.abs(m - m.T))) > sym_tol:
        return False
    eig_min = float(np.linalg.eigvalsh(m)[0])
    return eig_min >= -1e-9 * f.norm_inf() * n


def positive_part(f: FunctionOnG) -> FunctionOnG:
    return FunctionOnG(f.spec, np.maximum(f.values, 0.0))


def negative_part(f: FunctionOnG) -> FunctionOnG:
    return FunctionOnG(f.spec, np.maximum(-f.values, 0.0))


def trivial_extension(f: FunctionOnG, h: Subgroup, group: GroupSpec) -> FunctionOnG:
    """Extend a function on the subgroup (canonical coordinates) by zero.

    Positive definiteness survives the extension, which is what makes
    subgroup reduction lossless.
    """
    _require_same_spec(h.parent, group)
    _require_same_spec(f.spec, h.canonical_spec)
    out = np.zeros(group.order)
    out[h.embedding] = f.values
    return FunctionOnG(group, out)


def restrict_function(f: FunctionOnG, h: Subgroup) -> FunctionOnG:
    """Restriction to the subgroup, in its canonical coordinates; preserves
    positive definiteness."""
    _require_same_spec(f.spec, h.parent)
    return FunctionOnG(h.canonical_spec, f.values[h.embedding])
