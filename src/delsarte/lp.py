"""The extremal problem over Fourier coefficients, as a linear program.

An instance fixes a finite abelian group, a window W of allowed positivity
and a spectral support set Q. The admissible class consists of the real
positive definite f with f(0) = 1, f <= 0 off W and spectrum supported in
Q; the target is the largest total mass sum_g f(g), realized by an explicit
extremal function plus a dual certificate.

The decisive formulation choice: parametrize f by one nonnegative variable
per conjugation orbit of Q_eff = Q cap conj(Q). Positive definiteness and
the spectral support condition then collapse into variable nonnegativity,
f(0) = 1 is one equality, and the off-window sign condition is one linear
row per {g, -g} class outside W, so the whole problem is a small dense LP
rather than an SDP. A real f with nonnegative spectrum weights conjugate
characters equally, which is why only Q_eff can carry spectrum; every such
f is even, so the rows of g and -g are the same row.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    EmptyEffectiveSupport,
    InvalidInstance,
    OracleTooLarge,
    OriginNotInW,
)
from .fourier import FunctionOnG, dft
from .groups import (
    DualElement,
    GroupElement,
    GroupSpec,
    _require_same_spec,
    coords_table,
    element_indices,
    negation,
    negation_classes,
    phase_numerators,
)
from .posdef import PosDefReport, _spectral_report
from .simplex import (
    INFEASIBLE,
    OPTIMAL,
    ExactCheckReport,
    LinearProgram,
    simplex_solve,
)


class Status(str, enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class DelsarteInstance:
    """Problem data (group, W, Q).

    W must contain the identity: f(0) = 1 together with f <= 0 off W is
    unsatisfiable otherwise, so such instances are rejected outright. Q may
    be empty; no function is admissible then, and the solver reports the
    instance as infeasible.

    W and Q are held as ``w_index`` and ``q_index``, their sorted, distinct
    canonical indices in read-only int64 arrays; everything downstream reads
    these. :meth:`from_sets` takes sets of elements and characters instead,
    and the sets ``w`` and ``q`` are built from the arrays on each read.
    Equality, hashing and pickling go by the group and the arrays.
    """

    group: GroupSpec
    w_index: np.ndarray
    q_index: np.ndarray

    def __post_init__(self) -> None:
        order = self.group.order
        for name in ("w_index", "q_index"):
            given = np.asarray(getattr(self, name))
            # a float, bool or string entry is no index, even where it
            # converts; elements come as an object array, whose conversion
            # raises TypeError
            not_int = given.size and given.dtype.kind not in "iu"
            idx = given if not_int and given.dtype.kind != "O" else given.astype(np.int64)
            if not_int or idx.ndim != 1 or np.any(idx[1:] <= idx[:-1]) or np.any((idx < 0) | (idx >= order)):
                raise ValueError(f"expected sorted, distinct canonical indices of a group of order {order}")
            idx.setflags(write=False)
            object.__setattr__(self, name, idx)
        if not len(self.w_index):
            raise InvalidInstance("W must be nonempty")
        if self.w_index[0] != 0:
            raise OriginNotInW("W must contain the identity element")

    @classmethod
    def from_sets(cls, group: GroupSpec, w: Iterable[GroupElement], q: Iterable[DualElement]) -> "DelsarteInstance":
        """The instance on sets of elements and characters of ``group``."""
        return cls(group, element_indices(group, w), element_indices(group, q))

    @property
    def w(self) -> frozenset[GroupElement]:
        return frozenset(map(self.group.element_at, self.w_index.tolist()))

    @property
    def q(self) -> frozenset[DualElement]:
        return frozenset(map(self.group.dual_at, self.q_index.tolist()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.group == other.group
            and np.array_equal(self.w_index, other.w_index)
            and np.array_equal(self.q_index, other.q_index)
        )

    def __hash__(self) -> int:
        return hash((self.group, self.w_index.tobytes(), self.q_index.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(group={self.group!r}, w={self.w!r}, q={self.q!r})"

    def __reduce__(self):
        # the index lists, rebuilt through the constructor: read-only again
        return type(self), (self.group, self.w_index.tolist(), self.q_index.tolist())

    def off_support(self) -> tuple[GroupElement, ...]:
        """One element per {g, -g} class outside W, in canonical order; one
        LP row each. The class keeps its smallest member outside W."""
        return tuple(map(self.group.element_at, _off_support_index(self).tolist()))

    def payload(self) -> dict:
        """The group orders and the W and Q coordinate lists, keyed as in an
        instance file: what :meth:`digest` hashes and the file writer writes."""
        table = coords_table(self.group)
        return {"group": list(self.group.orders), "W": table[self.w_index].tolist(), "Q": table[self.q_index].tolist()}

    def digest(self) -> str:
        return payload_digest(self.payload())


def payload_digest(payload: dict) -> str:
    """The digest of a :meth:`DelsarteInstance.payload`."""
    blob = json.dumps(payload, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _off_support_index(inst: DelsarteInstance) -> np.ndarray:
    """Canonical indices of :meth:`DelsarteInstance.off_support`."""
    outside = np.ones(inst.group.order, dtype=bool)
    outside[inst.w_index] = False
    return negation_classes(inst.group, outside)


@dataclass(frozen=True, eq=False, slots=True)
class OrbitBasis:
    """Conjugation orbits of the symmetrized support, with real columns.

    One basis function per orbit: chi + conj(chi) for a true pair, chi
    itself for a self-conjugate (real-valued) character. ``reps`` holds the
    canonical index of each orbit's smallest member, ascending and
    read-only; the conjugate ``partners``, the weights and the element
    orbits are read off it. Columns are built from canonicalized phases
    min(p, L - p), which makes every column exactly even in g, bit for bit.
    The (|G|, orbits) column matrix is built on each use and not kept.
    """

    spec: GroupSpec
    reps: np.ndarray

    @property
    def partners(self) -> np.ndarray:
        return negation(self.spec)[self.reps]

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(np.where(self.partners == self.reps, 1, 2).tolist())

    @property
    def trivial_index(self) -> int | None:
        return 0 if self.reps[0] == 0 else None

    @property
    def n_orbits(self) -> int:
        return len(self.reps)

    @property
    def orbits(self) -> tuple[tuple[DualElement, ...], ...]:
        pairs = zip(self.reps.tolist(), self.partners.tolist())
        return tuple(tuple(map(self.spec.dual_at, sorted({i, j}))) for i, j in pairs)

    @property
    def columns(self) -> np.ndarray:
        lcm = self.spec.exponent
        coords = coords_table(self.spec)
        # built C-ordered, (|G|, orbits): a transposed (F-ordered) matrix
        # makes columns @ a round g and -g differently
        p = phase_numerators(self.spec, coords, coords[self.reps])
        p = np.minimum(p, lcm - p)
        cols = np.where(self.partners == self.reps, np.where(p == 0, 1.0, -1.0), 2.0 * np.cos((2.0 * np.pi / lcm) * p))
        cols.setflags(write=False)
        return cols

    def synthesize(self, coeffs: Iterable[float]) -> FunctionOnG:
        a = np.asarray(list(coeffs) if not isinstance(coeffs, np.ndarray) else coeffs, dtype=float)
        if a.shape != (self.n_orbits,):
            raise ValueError(f"expected {self.n_orbits} coefficients")
        return FunctionOnG(self.spec, self.columns @ a)


def orbit_basis_from_index(spec: GroupSpec, q_index: np.ndarray) -> OrbitBasis:
    """The orbit basis of the characters with canonical indices ``q_index``:
    one orbit per conjugation orbit of Q cap conj(Q), in ascending order."""
    in_q = np.zeros(spec.order, dtype=bool)
    in_q[q_index] = True
    reps = negation_classes(spec, in_q & in_q[negation(spec)])
    if not len(reps):
        raise EmptyEffectiveSupport("no conjugation-closed part: Q cap conj(Q) is empty")
    reps.setflags(write=False)
    return OrbitBasis(spec, reps)


def build_orbit_basis(q: Iterable[DualElement]) -> OrbitBasis:
    """:func:`orbit_basis_from_index` on a set of characters of one group."""
    members = list(q)
    if not members:
        raise EmptyEffectiveSupport("support set is empty")
    spec = members[0].spec
    return orbit_basis_from_index(spec, element_indices(spec, members))


@dataclass(frozen=True, slots=True)
class MembershipReport:
    """Per-condition residuals of class membership."""

    is_member: bool
    posdef: PosDefReport
    normalization_error: float
    off_support_violation: float
    off_spectrum_violation: float
    tol: float


def feasibility_check(
    f: FunctionOnG, inst: DelsarteInstance, tol: float = 1e-9
) -> MembershipReport:
    """Check all four membership conditions and report worst violations.

    Positive definiteness and the off-Q spectral bound use the transform
    scale (1 + max|f|) * |G| of the spectral report; f(0) = 1 and the
    off-window sign condition are absolute.
    """
    return _membership(f, dft(f), inst, tol)


def _membership(
    f: FunctionOnG, spectrum: FunctionOnG, inst: DelsarteInstance, tol: float = 1e-9
) -> MembershipReport:
    """:func:`feasibility_check` on an already computed transform of f."""
    _require_same_spec(f.spec, inst.group)
    pd = _spectral_report(f, spectrum.values, tol)
    norm_err = abs(float(f.values[0]) - 1.0)
    off_w = np.delete(f.values, inst.w_index)
    off_w_violation = max(0.0, float(np.max(off_w))) if len(off_w) else 0.0
    # hypot, not np.abs: the complex np.abs loop may round the last bit differently
    off_q_spec = np.delete(spectrum.values, inst.q_index)
    off_q_violation = float(np.max(np.hypot(off_q_spec.real, off_q_spec.imag))) if len(off_q_spec) else 0.0
    is_member = (
        pd.is_posdef
        and norm_err <= tol
        and off_w_violation <= tol
        and off_q_violation <= tol * pd.scale
    )
    return MembershipReport(is_member, pd, norm_err, off_w_violation, off_q_violation, tol)


@dataclass(frozen=True, eq=False)
class DelsarteProgram:
    """LP data for an instance: one variable per orbit, the normalization
    equality, one sign row per {g, -g} class outside the window."""

    basis: OrbitBasis
    off_support: tuple[GroupElement, ...]
    program: LinearProgram


def build_lp(inst: DelsarteInstance) -> DelsarteProgram:
    basis = orbit_basis_from_index(inst.group, inst.q_index)
    rows = _off_support_index(inst)
    off = tuple(map(inst.group.element_at, rows.tolist()))
    c = np.zeros(basis.n_orbits)
    if basis.trivial_index is not None:
        c[basis.trivial_index] = float(inst.group.order)
    a_eq = np.array([basis.weights], dtype=float)
    b_eq = np.array([1.0])
    a_ub = basis.columns[rows, :]
    return DelsarteProgram(basis, off, LinearProgram(c, a_eq, b_eq, a_ub, np.zeros(len(off))))


@dataclass(frozen=True, slots=True)
class DualCertificate:
    """Lagrange multipliers proving the upper bound.

    y0 multiplies the normalization row, and there is one multiplier per
    {g, -g} class outside W, listed against the class representative in
    ``off_support``. ``certified_upper_bound`` is the bound U that
    :func:`_certify` proves from them through :func:`safe_upper_bound`.
    """

    normalization_multiplier: float
    off_support: tuple[GroupElement, ...]
    multipliers: tuple[float, ...]
    certified_upper_bound: float


@dataclass(frozen=True, eq=False, slots=True)
class DelsarteSolution:
    status: Status
    value: float | None = None
    f: FunctionOnG | None = None
    fourier_coeffs: tuple[float, ...] | None = None
    basis: OrbitBasis | None = None
    dual: DualCertificate | None = None
    residuals: MembershipReport | None = None
    exact: ExactCheckReport | None = None  # the solver leaves it None; callers may attach exact_basis_check
    lp_objective: float | None = None
    iterations: int = 0


CERTIFICATE_TOL = 1e-7  # tolerance of the certificate rule, _certify

_U = 2.0**-53  # unit roundoff of float64 (round to nearest)
_ETA = math.ulp(0.0)  # smallest subnormal: the absolute error of an underflowing product
# |2cos(2 pi p / L) as OrbitBasis.columns computes it - the true value|, per
# entry, for integer phases 0 <= p <= L/2. The angle (2 * pi / L) * p takes
# three roundings (pi, the division, the product), so it is off by at most
# gamma_3 * pi, and cos is 1-Lipschitz; numpy's float64 cos (C library or
# SIMD kernel) is within 4 ulp, and an ulp of a value in [-1, 1] is at most
# 2**-52; doubling is exact. The +-1 entries of self-conjugate orbits are
# exact, so the allowance only overstates them. The tests hold every entry
# against 120-bit values.
_COS_ALLOWANCE = 2.0 * (3 * _U / (1 - 3 * _U) * math.pi + 4 * 2.0**-52)


def safe_upper_bound(prog: DelsarteProgram, y0: float, y: np.ndarray) -> float:
    """A proven upper bound on the optimum of the instance's LP, from any
    multipliers y0 (free) and y >= 0, feasible or not.

    With r = c - y0 * w - A^T y, every admissible x (w.x = 1, A x <= 0,
    x >= 0) has c.x = y0 + y.(A x) + r.x <= y0 + sum_o max(0, r_o) / w_o:
    y.(A x) <= 0 because the sign rows have a zero right-hand side, and
    w.x = 1 with w_o >= 1 keeps each x_o in [0, 1 / w_o]. This is the
    box-bounded safe bound of A. Neumaier & O. Shcherbina, "Safe bounds in
    linear and mixed-integer linear programming", Math. Program. 99 (2004).
    Here A is the exact cosine matrix, which the float rows only
    approximate, so r_o is widened by a proven allowance e_o (see the
    comments) and the result is rounded upward: it bounds the true LP,
    not only its float model. An infeasible dual only loosens the bound.
    The bound proves only optimum <= U; that a value is not above the
    optimum needs a feasible primal point, which :func:`_certify` checks.
    Non-finite multipliers prove nothing and give +inf. Costs two
    matrix-vector products.
    """
    y = np.asarray(y, dtype=float)
    if not (math.isfinite(y0) and np.all(np.isfinite(y))):
        return math.inf
    lp = prog.program
    w = lp.a_eq[0]
    a = lp.a_ub
    k = a.shape[0] + 2  # terms of r_o = c_o - y0 * w_o - sum_g A_go * y_g
    r = lp.c - y0 * w - a.T @ y
    # e_o >= |r_o - r_o(exact data, exact arithmetic)|, three parts:
    # 1. float dot products: in any evaluation order a k-term dot product is
    #    off by at most gamma_k * sum |terms|, gamma_k = k u / (1 - k u)
    #    (N. Higham, Accuracy and Stability of Numerical Algorithms, ch. 3,
    #    (3.5)), plus eta per product that underflows;
    # 2. the cosines: A is off the exact rows by at most _COS_ALLOWANCE per
    #    entry, which moves (A^T y)_o by at most _COS_ALLOWANCE * sum(y);
    # 3. e itself is computed in floats from nonnegative terms: the sums t
    #    and sum(y) lose at most a factor 1 - gamma_k, the constants and the
    #    remaining operations at most six roundings, a factor (1 - u)^6; so
    #    each part below carries a factor 2 where
    #    1 / ((1 - u)^6 (1 - gamma_k) (1 - k u)) <= 2 suffices (k u < 1/8).
    t = np.abs(lp.c) + abs(y0) * w + np.abs(a).T @ y
    e = (2 * k * _U) * t + 2 * _COS_ALLOWANCE * float(np.sum(y)) + 2 * k * _ETA
    # rounding on the final sum: each step rounds to nearest, so nextafter
    # toward +inf lands at or above the exact result; fsum rounds the sum of
    # its (exact) float terms correctly
    terms = np.nextafter(np.maximum(np.nextafter(r + e, np.inf), 0.0) / w, np.inf)
    return float(np.nextafter(math.fsum([y0, *terms.tolist()]), np.inf))


@dataclass(frozen=True)
class CertificateReport:
    """The verdict of :func:`_certify`; ``gap`` is U - value."""

    ok: bool
    upper_bound: float
    gap: float
    primal_violation: float
    multiplier_negativity: float


def _certify(prog: DelsarteProgram, value: float, x: np.ndarray, y0: float, y: np.ndarray) -> CertificateReport:
    """The one certificate rule, for the solver and the audit. Within tol =
    ``CERTIFICATE_TOL``: the multipliers y are >= 0; U =
    :func:`safe_upper_bound` of y0 and max(y, 0), which proves optimum <= U,
    lies within tol * (1 + |value|) of the value; and the point x satisfies
    w.x = 1, A x <= 0, x >= 0 and c.x = value (relative to 1 + |value|),
    which proves value <= optimum."""
    lp = prog.program
    bound = safe_upper_bound(prog, y0, np.maximum(y, 0.0))
    scale = 1.0 + abs(value)
    # np.max, not max: a NaN anywhere fails the check
    primal = float(np.max([
        abs(float(lp.a_eq[0] @ x) - 1.0),
        -float(np.min(x)),
        float(np.max(lp.a_ub @ x, initial=0.0)),
        abs(float(lp.c @ x) - value) / scale,
    ]))
    negativity = float(np.max(-y, initial=0.0))
    ok = (
        negativity <= CERTIFICATE_TOL
        and abs(bound - value) <= CERTIFICATE_TOL * scale
        and primal <= CERTIFICATE_TOL
    )
    return CertificateReport(ok, bound, bound - value, primal, negativity)


def solve_delsarte(inst: DelsarteInstance, tol: float = 1e-9) -> DelsarteSolution:
    """Solve the instance.

    On success the extremal function, its orbit coefficients, feasibility
    residuals and a dual certificate are attached. The reported value is
    |G| times the trivial-orbit coefficient, which is the exact analytic
    total mass of the synthesized function (nontrivial columns sum to zero
    over the group); if the trivial character is outside the effective
    support the value is exactly 0. Every optimal solve, at every group
    order, must pass :func:`_certify` on its LP point and multipliers, or
    it is demoted to a numerical failure; the certificate carries the
    rule's bound U as ``certified_upper_bound``.
    """
    try:
        prog = build_lp(inst)
    except EmptyEffectiveSupport:
        return DelsarteSolution(Status.INFEASIBLE)
    res = simplex_solve(prog.program)
    if res.status == INFEASIBLE:
        return DelsarteSolution(Status.INFEASIBLE, iterations=res.iterations)
    if res.status != OPTIMAL:
        return DelsarteSolution(Status.NUMERICAL_FAILURE, iterations=res.iterations)

    coeffs = np.maximum(res.x, 0.0)
    f = prog.basis.synthesize(coeffs)
    if prog.basis.trivial_index is not None:
        value = float(inst.group.order * coeffs[prog.basis.trivial_index])
    else:
        value = 0.0
    residuals = feasibility_check(f, inst, tol)
    y0 = float(res.duals_eq[0])
    multipliers = tuple(max(0.0, float(y)) for y in res.duals_ub)
    report = _certify(prog, value, res.x, y0, np.array(multipliers))
    dual = DualCertificate(
        normalization_multiplier=y0,
        off_support=prog.off_support,
        multipliers=multipliers,
        certified_upper_bound=report.upper_bound,
    )
    return DelsarteSolution(
        Status.OPTIMAL if report.ok else Status.NUMERICAL_FAILURE,
        value=value,
        f=f,
        fourier_coeffs=tuple(float(x) for x in coeffs),
        basis=prog.basis,
        dual=dual,
        residuals=residuals,
        lp_objective=res.value,
        iterations=res.iterations,
    )


def verify_certificate(sol: DelsarteSolution, inst: DelsarteInstance) -> CertificateReport:
    """Audit a solution against freshly built LP data by :func:`_certify`,
    the rule :func:`solve_delsarte` applies, on the recorded value, orbit
    coefficients and multipliers. U is recomputed; the carried
    ``certified_upper_bound`` is not read."""
    if sol.status != Status.OPTIMAL or sol.dual is None:
        raise InvalidInstance("certificate verification needs an optimal solution")
    prog = build_lp(inst)
    if prog.off_support != sol.dual.off_support or len(sol.dual.multipliers) != len(prog.off_support):
        raise InvalidInstance("certificate rows do not match the instance")
    if len(sol.fourier_coeffs) != prog.basis.n_orbits:
        raise InvalidInstance("orbit coefficients do not match the instance")
    return _certify(
        prog,
        sol.value,
        np.array(sol.fourier_coeffs, dtype=float),
        sol.dual.normalization_multiplier,
        np.array(sol.dual.multipliers, dtype=float),
    )


@dataclass
class OracleResult:
    status: Status
    value: float | None
    vertices: list[np.ndarray] | None = None
    # (row_a, row_b, lam), LP row indices: the Gordan certificate of an
    # instance settled before enumeration (see vertex_enum_oracle)
    certificate: tuple[int, int, float] | None = None


_MAX_ORACLE_ORBITS = 8
_MAX_ORACLE_ROWS = 24
_ORACLE_CHUNK = 1024  # square systems per chunk: at most 512 KB of matrices (8 x 8)
_MAX_ORACLE_VERTICES = 512  # vertices collected at most
_ORACLE_RESIDUAL = 1e-7  # a candidate must solve its system to this max-norm residual


def _gordan_pair(signs: np.ndarray, delta: float, slack: float) -> tuple[int, int, float] | None:
    """The first pair i < j of rows of ``signs`` (in ``np.triu_indices``
    order) with a lam in [0, 1] such that lam signs[i] + (1 - lam) signs[j]
    >= delta + slack at every coordinate, as (i, j, lam), or None."""
    if len(signs) < 2:
        return None
    i, j = np.triu_indices(len(signs), 1)
    a, b = signs[i], signs[j]
    # lam >= (delta - b_k) / (a_k - b_k) where a_k > b_k, <= where a_k < b_k;
    # the midpoint of that interval is tried
    with np.errstate(divide="ignore", invalid="ignore"):
        bounds = (delta - b) / (a - b)
    lam_lo = np.where(a > b, bounds, 0.0).max(axis=1, initial=0.0)
    lam_hi = np.where(a < b, bounds, 1.0).min(axis=1, initial=1.0)
    lam = 0.5 * (lam_lo + lam_hi)
    y = lam[:, None] * a + (1.0 - lam[:, None]) * b
    found = np.flatnonzero((lam_lo <= lam_hi) & (y >= delta + slack).all(axis=1))
    if not len(found):
        return None
    k = found[0]
    return int(i[k]), int(j[k]), float(lam[k])


def vertex_enum_oracle(inst: DelsarteInstance, collect_vertices: bool = False) -> OracleResult:
    """Independent optimality oracle by basic-solution enumeration, after a
    two-row emptiness certificate.

    Every vertex of the feasible polytope satisfies the normalization
    equality plus n-1 further active constraints drawn from the sign rows
    and the nonnegativity bounds. A vertex whose active bounds are x_Z = 0
    solves, on its free coordinates F = [n] minus Z, the square system
    [w_F; A_{S,F}] x_F = e1 for a set S of |F| - 1 sign rows. The rows are
    those of ``build_lp(inst)``, which the oracle builds from the instance
    alone, one per {g, -g} class; only distinct hyperplanes enter S: exact
    duplicate rows are dropped, and so is a row equal to a unit row e_j,
    whose hyperplane x_j = 0 the zero sets already cover.

    Every system is solved, in one batched LU call per chunk; an exactly
    singular one gives a NaN row. A candidate x (x_Z = 0) counts only if it
    passes five tests, in this order: x >= -tol, the determinant
    |det M| > 1e-10 * |w| * prod |a_s| (full rows; taken only of the systems
    that pass x >= -tol), the residual |M x - e1| <= 1e-7 (max norm),
    A x <= tol over every row, and |w.x - 1| <= tol, with tol = 1e-9 (1 + n);
    the best objective over the candidates that pass wins. Each test reads
    one system alone, so its order changes no verdict. The oracle enumerates
    every basic solution that can pass. With w_max = max w, a_max = max |A|,
    t = max(tol, 1e-7) and delta = 2 w_max (t + a_max n tol) / (1 - t), it
    skips, by rule (a), every free set F on which one of the distinct sign
    rows, a, has a_j >= delta for all j in F. Let P and N be the sums of the
    positive and negative parts of x_F. A candidate that passes x >= -tol
    has N <= n tol, and one that passes |w.x - 1| <= tol has
    w_max P >= w.x >= 1 - tol (w > 0), so
    a.x >= delta P - a_max N >= 2 (t + a_max n tol) - a_max n tol > tol:
    it fails A x <= tol.

    The factor 2 in delta leaves a margin far above the rounding of the
    tests' float sums (a relative n * 2**-53 of sums of terms at most
    a_max (P + N) or w_max (P + N)). A skipped system therefore changes no
    status, value or vertex.

    Before enumerating, the oracle looks for a Gordan certificate of
    emptiness on two distinct sign rows a, b (P. Gordan, Math. Ann. 6,
    1873): a lam in [0, 1] with y = lam a + (1 - lam) b >= delta at every
    coordinate. Per pair the admissible lam form an interval, one bound per
    coordinate; its midpoint is tried, and y is confirmed on the float row
    with a slack of 4 * 2**-53 * a_max, above the rounding of y itself. Such
    a y is rule (a)'s witness for every free set at once: |y_j| <= a_max, so
    a candidate has y.x >= delta P - a_max N > tol, while a.x, b.x <= tol
    give y.x = lam a.x + (1 - lam) b.x <= tol. No candidate can pass, so the
    oracle returns infeasible with ``certificate = (row_a, row_b, lam)``,
    indices of ``build_lp(inst).program.a_ub``, and solves no system: the
    enumeration would have found nothing either, so no status, value or
    vertex changes.

    The surviving pairs (Z, S) are enumerated in the order of the full
    enumeration (zero sets by size, F in lexicographic order, S in
    lexicographic order within each F; every F of a level reads S from one
    shared table) and streamed in chunks of a fixed size, so memory stays
    bounded. Size limits: at most 8 orbits and at most 24 constraint rows
    including the equality, counted as one row per {g, -g} class outside W,
    as the LP has them; both are checked before the LP is built.
    """
    try:
        basis = orbit_basis_from_index(inst.group, inst.q_index)
    except EmptyEffectiveSupport:
        return OracleResult(Status.INFEASIBLE, None)
    n = basis.n_orbits
    n_rows = len(_off_support_index(inst)) + 1
    if n > _MAX_ORACLE_ORBITS:
        raise OracleTooLarge(f"{n} orbits exceeds the oracle limit of {_MAX_ORACLE_ORBITS}")
    if n_rows > _MAX_ORACLE_ROWS:
        raise OracleTooLarge(f"{n_rows} rows exceeds the oracle limit of {_MAX_ORACLE_ROWS}")

    program = build_lp(inst).program
    trivial = basis.trivial_index
    w, rows = program.a_eq[0], program.a_ub
    m = rows.shape[0]
    # row 0 is the equality, rows 1.. the distinct sign rows in first-seen
    # order, without those equal to a unit row (float equality, as tuples)
    units = set(map(tuple, np.eye(n).tolist()))
    distinct = [r for r in dict.fromkeys(map(tuple, rows.tolist())) if r not in units]
    stacked = np.array([w.tolist(), *distinct])
    row_norms = np.maximum(np.linalg.norm(stacked, axis=1), 1e-300)
    n_sign = stacked.shape[0] - 1
    tol = 1e-9 * (1.0 + n)
    t = max(tol, _ORACLE_RESIDUAL)
    a_max = float(np.abs(rows).max(initial=0.0))
    delta = 2.0 * float(w.max()) * (t + a_max * n * tol) / (1.0 - t)
    pair = _gordan_pair(stacked[1:], delta, 4 * _U * a_max)
    if pair is not None:
        row_a, row_b = (rows.tolist().index(list(distinct[i])) for i in pair[:2])
        return OracleResult(Status.INFEASIBLE, None, certificate=(row_a, row_b, pair[2]))

    best: float | None = None
    feasible_found = False
    vertices: list[np.ndarray] = []
    seen: set[bytes] = set()

    for n_zero in range(n):
        f = n - n_zero
        per_free = math.comb(n_sign, f - 1)
        if not per_free:
            continue
        frees = np.array(list(itertools.combinations(range(n), f)), dtype=np.intp)
        # one contiguous (rows, f) block of columns per free set
        blocks = np.ascontiguousarray(stacked[:, frees].transpose(1, 0, 2))
        # rule (a): no system at all on a free set where a sign row is >= delta
        kept = np.flatnonzero(~(blocks[:, 1:, :].min(axis=2) >= delta).any(axis=1))
        n_systems = len(kept) * per_free
        # every sign set S in lexicographic order, shared by the level's free
        # sets: position p solves frees[kept[p // per_free]] with sign_sets[p % per_free]
        sign_sets = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(1, n_sign + 1), f - 1)),
            dtype=np.min_scalar_type(n_sign), count=per_free * (f - 1),
        ).reshape(per_free, f - 1)
        e1 = np.eye(f)[0]
        for start in range(0, n_systems, _ORACLE_CHUNK):
            pos = np.arange(start, min(start + _ORACLE_CHUNK, n_systems))
            which = kept[pos // per_free]
            sys_rows = np.zeros((len(pos), f), dtype=np.intp)
            sys_rows[:, 1:] = sign_sets[pos % per_free]
            mats = blocks[which[:, None], sys_rows]
            # np.linalg.solve's kernel: an exactly singular system gives a NaN
            # row, which fails x >= -tol, where np.linalg.solve would raise
            with np.errstate(all="ignore"):
                xs = _umath_linalg.solve(mats, e1[:, None], signature="dd->d")[..., 0]
            # filtered even when nothing passes, so the full chunk is freed
            # before the next one is built
            keep = (xs >= -tol).all(axis=1)
            mats, which, xs, sys_rows = mats[keep], which[keep], xs[keep], sys_rows[keep]
            keep = np.abs(np.linalg.det(mats)) > 1e-10 * np.prod(row_norms[sys_rows], axis=1)
            mats, which, xs = mats[keep], which[keep], xs[keep]
            keep = np.abs(np.einsum("bij,bj->bi", mats, xs) - e1).max(axis=1) <= _ORACLE_RESIDUAL
            x = np.zeros((int(np.count_nonzero(keep)), n))
            x[np.arange(len(x))[:, None], frees[which[keep]]] = xs[keep]
            feas = np.abs(x @ w - 1.0) <= tol
            if m:
                feas &= (x @ rows.T).max(axis=1) <= tol
            if not np.any(feas):
                continue
            feasible_found = True
            x_feas = x[feas]
            if trivial is not None:
                top = float(np.max(inst.group.order * x_feas[:, trivial]))
                best = top if best is None else max(best, top)
            else:
                best = 0.0
            if collect_vertices:
                for v in np.maximum(x_feas, 0.0):
                    # + 0.0 turns -0.0 into 0.0, so one vertex has one key
                    key = (np.round(v, 10) + 0.0).tobytes()
                    if key not in seen and len(vertices) < _MAX_ORACLE_VERTICES:
                        seen.add(key)
                        vertices.append(v)
    if not feasible_found:
        return OracleResult(Status.INFEASIBLE, None)
    return OracleResult(Status.OPTIMAL, float(best), vertices if collect_vertices else None)


def oracle_check(sol: DelsarteSolution, inst: DelsarteInstance) -> dict:
    """Run :func:`vertex_enum_oracle` on the instance against a solution's
    status and value; the result record's ``oracle`` entry. ``ok`` means the
    statuses match and, when both are optimal, the values lie within
    1e-8 * (1 + |value|) of each other."""
    try:
        oracle = vertex_enum_oracle(inst)
    except OracleTooLarge as exc:
        return {"ran": False, "reason": str(exc)}
    gap = None
    if sol.status == Status.OPTIMAL and oracle.status == Status.OPTIMAL:
        gap = abs(sol.value - oracle.value)
        ok = gap <= 1e-8 * (1.0 + abs(sol.value))
    else:
        ok = sol.status == oracle.status
    return {"ran": True, "status": oracle.status.value, "value": oracle.value, "gap": gap, "ok": ok}
