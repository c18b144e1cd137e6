"""Fourier analysis on finite abelian groups.

Normalization: counting measure on the group, (1/|G|) * counting measure on
the dual. This is the unique pair for which inversion holds verbatim
(f = conj_fourier(dft(f))) and for which the total dual mass of a function
with f(0) = 1 comes out as 1. Every module in the package uses it.

Canonical order is C order over the cyclic factors, so a table on G is an
array of shape ``orders`` raveled, and every transform and convolution is a
multidimensional FFT of that array in O(|G| log |G|) time and O(|G|) memory.
The dense character and difference tables (``_char_matrix``,
``_diff_table``) are kept as the naive O(|G|^2) reference the tests compare
the FFT against; the character table is ``groups.character_table`` of the
whole group against itself. Only the Gram oracle in :mod:`delsarte.posdef`
reads difference indices, built per call by :func:`_difference_table`, so
that it stays independent of the transform and keeps no table alive.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import AsymmetricBump, GroupMismatch
from .groups import DualElement, GroupElement, GroupSpec, _require_same_spec, character_table, coords_table
from .groups import element_indices, negation

REAL_TOL = 1e-9  # imaginary residue allowed by conj_fourier_real, relative to 1 + max|k|


@functools.lru_cache(maxsize=16)
def _char_matrix(spec: GroupSpec) -> np.ndarray:
    """CHI[i, j] = chi_i(g_j); the dense reference for the FFT transforms."""
    c = coords_table(spec)
    m = character_table(spec, c, c)
    m.setflags(write=False)
    return m


def _difference_table(spec: GroupSpec) -> np.ndarray:
    """D[a, b] = canonical index of g_a - g_b, built on each call."""
    c = coords_table(spec)
    d = np.zeros((spec.order, spec.order), dtype=np.int64)
    for j, n in enumerate(spec.orders):
        d = d * n + (c[:, j][:, None] - c[:, j][None, :]) % n
    d.setflags(write=False)
    return d


# the cached copy: the tests' dense reference for convolutions and bumps
_diff_table = functools.lru_cache(maxsize=16)(_difference_table)


@dataclass(frozen=True, eq=False, slots=True)
class FunctionOnG:
    """Real-valued function on a group, tabulated in canonical element order."""

    spec: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.spec.order,):
            raise GroupMismatch(f"expected {self.spec.order} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("function values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def delta(cls, spec: GroupSpec) -> "FunctionOnG":
        v = np.zeros(spec.order)
        v[0] = 1.0
        return cls(spec, v)

    @classmethod
    def constant(cls, spec: GroupSpec, value: float = 1.0) -> "FunctionOnG":
        return cls(spec, np.full(spec.order, float(value)))

    def value_at(self, g: GroupElement) -> float:
        _require_same_spec(self.spec, g.spec)
        return float(self.values[g.index])

    def at_zero(self) -> float:
        return float(self.values[0])

    def total(self) -> float:
        return float(np.sum(self.values))

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Complex-valued function on the dual, tabulated in canonical order."""

    spec: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.complex128)
        if v.shape != (self.spec.order,):
            raise GroupMismatch(f"expected {self.spec.order} values, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def value_at(self, chi: DualElement) -> complex:
        _require_same_spec(self.spec, chi.spec)
        return complex(self.values[chi.index])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values)))


def _fft(spec: GroupSpec, values: np.ndarray) -> np.ndarray:
    return np.fft.fftn(values.reshape(spec.orders)).ravel()


def _ifft(spec: GroupSpec, values: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(values.reshape(spec.orders)).ravel()


def dft(f: FunctionOnG) -> Spectrum:
    """fhat(chi) = sum_g f(g) conj(chi(g)) under the counting measure."""
    return Spectrum(f.spec, _fft(f.spec, f.values))


def conj_fourier(k: Spectrum) -> np.ndarray:
    """Conjugate transform g -> (1/|G|) sum_chi k(chi) chi(g).

    The result is a complex array in canonical element order; callers that
    expect a real function assert realness via :func:`conj_fourier_real`.
    """
    return _ifft(k.spec, k.values)


def conj_fourier_real(k: Spectrum) -> FunctionOnG:
    """Conjugate transform of a spectrum known to come from a real function."""
    vals = conj_fourier(k)
    scale = 1.0 + k.norm_inf()
    worst = float(np.max(np.abs(vals.imag)))
    if worst > REAL_TOL * scale:
        raise ValueError(f"conjugate transform is not real: max imaginary part {worst:g}")
    return FunctionOnG(k.spec, vals.real)


def convolve(f: FunctionOnG, h: FunctionOnG) -> FunctionOnG:
    """(f * h)(g) = sum_s f(s) h(g - s)."""
    _require_same_spec(f.spec, h.spec)
    out = _ifft(f.spec, _fft(f.spec, f.values) * _fft(f.spec, h.values))
    return FunctionOnG(f.spec, out.real)


def reflect(f: FunctionOnG) -> FunctionOnG:
    """g -> f(-g)."""
    return FunctionOnG(f.spec, f.values[negation(f.spec)])


def conv_square(phi: FunctionOnG) -> FunctionOnG:
    """phi convolved with its reflection; always positive definite, with
    value sum(phi^2) at the identity and spectrum |phihat|^2."""
    return convolve(phi, reflect(phi))


def bump_theta(b: Iterable[DualElement], gamma: DualElement) -> Spectrum:
    """Translated convolution square of a symmetric character-set indicator.

    The convolution is taken on the dual group with weight 1/|G| per
    character. The result is supported in the product set gamma*B*B, peaks
    at gamma with value |B|/|G|, and its conjugate transform equals
    gamma(g) * |conj_fourier(1_B)(g)|^2.
    """
    spec = gamma.spec
    members = element_indices(spec, b)
    if not len(members):
        raise AsymmetricBump("bump base set is empty")
    if members[0] != 0:
        raise AsymmetricBump("bump base set must contain the unit character")
    u = np.zeros(spec.order)
    u[members] = 1.0
    unpaired = members[u[negation(spec)[members]] == 0]
    if len(unpaired):
        raise AsymmetricBump(f"bump base set is not conjugation-closed at {spec.coords_at(int(unpaired[0]))}")
    # autocorrelation of the indicator: integer counts |B cap (B + chi)|
    counts = np.rint(_ifft(spec, np.abs(_fft(spec, u)) ** 2).real).astype(np.int64)
    theta = np.roll(counts.reshape(spec.orders), gamma.coords, axis=tuple(range(spec.rank)))
    return Spectrum(spec, theta.ravel() / spec.order)
