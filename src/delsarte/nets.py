"""Finite approximation nets for normalized positive definite functions.

Cover the spectral support by cells of radius epsilon around finitely many
center characters (sup distance over a chosen sample set K), make the cells
disjoint in construction order, project the spectrum of a function onto the
cells and floor the projected masses to a uniform grid of granularity m.
For any admissible f the quantized character combination approximates f
within 2*epsilon uniformly on K: the cell projection costs at most epsilon
(total spectral mass is f(0) = 1) and the quantization at most n/m < epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySetError, NetPreconditionError
from .fourier import FunctionOnG, dft
from .groups import DualElement, GroupElement, _require_same_spec, char_eval, character_table, element_indices, index_array
from .posdef import _spectral_report

NET_TOL = 1e-9  # tolerance of the entry conditions of project_coeffs


@dataclass(frozen=True, eq=False)
class EpsilonNet:
    """Disjoint cells covering the support, one center each, plus the
    quantization granularity m > n_centers / epsilon."""

    k: tuple[GroupElement, ...]
    epsilon: float
    centers: tuple[DualElement, ...]
    partition: tuple[tuple[DualElement, ...], ...]
    m: int

    @property
    def n_centers(self) -> int:
        return len(self.centers)

    def grid_size(self) -> int:
        """Cardinality of the candidate set {sum r_j chi_j : r_j on the grid}."""
        return (self.m + 1) ** self.n_centers


def character_distance(a: DualElement, b: DualElement, k: Sequence[GroupElement]) -> float:
    """max over g in k of |a(g) - b(g)|; at most 2, and 0 when k = {0}."""
    return max(abs(char_eval(a, g) - char_eval(b, g)) for g in k)


def build_net(q: Iterable[DualElement], k: Iterable[GroupElement], epsilon: float) -> EpsilonNet:
    """Greedy disjoint cover of q in canonical order.

    The first uncovered character becomes the next center; its cell is
    everything not yet covered within epsilon of it. The granularity is the
    smallest integer exceeding n_centers / epsilon.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    q, k = list(q), list(k)
    if not q:
        raise EmptySetError("support set is empty")
    if not k:
        raise EmptySetError("sample set is empty")
    spec = q[0].spec
    q_sorted = list(map(spec.dual_at, element_indices(spec, q).tolist()))
    k_sorted = list(map(spec.element_at, element_indices(spec, k).tolist()))

    # distances rounded as in character_distance: np.hypot matches the scalar
    # complex abs bit for bit, np.abs on a complex array may not
    values = character_table(spec, [chi.coords for chi in q_sorted], [g.coords for g in k_sorted])
    centers: list[DualElement] = []
    cells: list[tuple[DualElement, ...]] = []
    pending = np.arange(len(q_sorted))
    while len(pending):
        diff = values[pending] - values[pending[0]]
        near = np.hypot(diff.real, diff.imag).max(axis=1) < epsilon
        centers.append(q_sorted[pending[0]])
        cells.append(tuple(q_sorted[i] for i in pending[near]))
        pending = pending[~near]

    n = len(centers)
    if n / epsilon >= 2**53:  # m + 1 would round to m, and the fence below never ends
        smallest = math.nextafter(n / 2**53, math.inf)
        raise ValueError(
            f"epsilon {epsilon!r} is too small for {n} centers; the smallest usable epsilon is {smallest!r}"
        )
    m = math.floor(n / epsilon) + 1
    while m * epsilon <= n:  # float fence
        m += 1
    return EpsilonNet(tuple(k_sorted), float(epsilon), tuple(centers), tuple(cells), m)


def project_coeffs(f: FunctionOnG, net: EpsilonNet) -> np.ndarray:
    """Spectral mass per cell: (1/|G|) * sum of the transform over the cell.

    Requires a positive definite f on the net's group with f(0) = 1 whose
    spectrum lives on the net's support, each within ``NET_TOL``; then every
    coefficient is nonnegative and they sum to 1.
    """
    _require_same_spec(f.spec, net.centers[0].spec)
    spectrum = dft(f).values
    pd = _spectral_report(f, spectrum, NET_TOL)
    if not pd.is_posdef:
        raise NetPreconditionError("function is not positive definite")
    if abs(f.at_zero() - 1.0) > NET_TOL:
        raise NetPreconditionError(f"f(0) = {f.at_zero():g}, expected 1")
    # in partition order, not sorted: cell_of below labels the members by position
    members = index_array(f.spec, [chi.coords for cell in net.partition for chi in cell])
    outside = np.ones(f.spec.order, dtype=bool)
    outside[members] = False
    leak = np.hypot(spectrum[outside].real, spectrum[outside].imag)
    if leak.size and leak.max() > NET_TOL * pd.scale:
        raise NetPreconditionError(f"spectrum leaks outside the net support by {leak.max():g}")
    # bincount adds in member order, as a running sum over each cell
    cell_of = np.repeat(np.arange(net.n_centers), [len(cell) for cell in net.partition])
    mass = np.bincount(cell_of, weights=spectrum.real[members], minlength=net.n_centers) / f.spec.order
    negative = np.flatnonzero(mass < -NET_TOL * pd.scale)
    if len(negative):
        raise NetPreconditionError(f"negative cell mass {mass[negative[0]]:g}")
    return np.maximum(mass, 0.0)


def quantize(coeffs: Sequence[float], m: int) -> np.ndarray:
    """Floor each coefficient to the grid {0, 1/m, ..., 1}.

    A grid product m * c_j that rounds up across an integer can only land
    d_j exactly on c_j, so 0 <= c_j - d_j < 1/m still holds.
    """
    if m < 1:
        raise ValueError("granularity must be a positive integer")
    arr = np.asarray(coeffs, dtype=float)
    if arr.size and (arr.min() < -1e-12 or arr.max() > 1.0 + 1e-9):
        raise ValueError("coefficients must lie in [0, 1]")
    return np.floor(np.maximum(arr, 0.0) * m) / m


def net_approximation_error(f: FunctionOnG, net: EpsilonNet) -> float:
    """Sup over the sample set of |f - sum_j d_j center_j| with the
    quantized coefficients d; below 2*epsilon for admissible input."""
    return net_approximation(f, net)[2]


def net_approximation(f: FunctionOnG, net: EpsilonNet) -> tuple[np.ndarray, np.ndarray, float]:
    """The cell masses of f, their quantized values and the approximation
    error, from one transform of f."""
    coeffs = project_coeffs(f, net)
    quantized = quantize(coeffs, net.m)
    k_coords = [g.coords for g in net.k]
    values = character_table(f.spec, [chi.coords for chi in net.centers], k_coords)
    approx = np.zeros(len(net.k), dtype=complex)
    for d, row in zip(quantized, values):  # center by center, as a running sum
        if d:
            approx = approx + d * row
    diff = f.values[index_array(f.spec, k_coords)] - approx
    return coeffs, quantized, float(np.hypot(diff.real, diff.imag).max())
