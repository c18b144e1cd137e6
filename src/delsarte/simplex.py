"""Dense two-phase simplex with anti-cycling rules and an exact recheck.

Solves   maximize c.x   s.t.   a_eq x = b_eq,  a_ub x <= b_ub,  x >= 0
on small dense data. Tableau arithmetic is float64 with a fixed pivot
tolerance. The data here is heavily degenerate (sign constraints with zero
right-hand sides), so the pivot loop uses most-negative entering with a
lexicographic ratio test, and falls back to Bland's smallest-index rule
after 64 pivots without objective progress; both safeguards keep the walk
finite and deterministic. The duals are read off the final tableau, from
the reduced costs of the unit columns each row started with. The final
basis can be re-derived over exact rationals (every float is an exact
dyadic rational) to confirm primal feasibility, dual feasibility margins
and the objective value, which catches accumulated elimination drift. Most
basic columns are slack or artificial unit vectors, so the recheck
eliminates only the square block of structural basic columns on the rows
those unit columns leave free, by fraction-free integer elimination, and
fills in the unit rows by substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

PIVOT_TOL = 1e-9
EXACT_TOL = 1e-7  # exact-recheck tolerance on primal, dual and relative value residuals

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max c.x  s.t.  a_eq x = b_eq, a_ub x <= b_ub, x >= 0."""

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray

    def __post_init__(self) -> None:
        c = np.atleast_1d(np.asarray(self.c, dtype=np.float64))
        n = c.shape[0]
        a_eq = np.asarray(self.a_eq, dtype=np.float64).reshape(-1, n)
        a_ub = np.asarray(self.a_ub, dtype=np.float64).reshape(-1, n)
        b_eq = np.atleast_1d(np.asarray(self.b_eq, dtype=np.float64))
        b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=np.float64)) if np.size(self.b_ub) else np.zeros(0)
        if b_eq.shape[0] != a_eq.shape[0] or b_ub.shape[0] != a_ub.shape[0]:
            raise ValueError("constraint matrix and right-hand side sizes disagree")
        for name, arr in (("c", c), ("a_eq", a_eq), ("b_eq", b_eq), ("a_ub", a_ub), ("b_ub", b_ub)):
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_eq(self) -> int:
        return self.a_eq.shape[0]

    @property
    def n_ub(self) -> int:
        return self.a_ub.shape[0]


@dataclass
class SimplexResult:
    status: str
    x: np.ndarray | None = None
    value: float | None = None
    duals_eq: np.ndarray | None = None
    duals_ub: np.ndarray | None = None
    basis: tuple[int, ...] | None = None
    iterations: int = 0


def _standard_form(
    lp: LinearProgram,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, list[int]]:
    """Slack-augmented equality system with nonnegative right-hand side.

    Returns (a, b, sign, ncols, art_rows) where sign records rows multiplied
    by -1 and art_rows lists the rows that start with an artificial column:
    the equality rows and the flipped inequality rows. Unflipped inequality
    rows start with their slack basic at value b >= 0.
    """
    n, me, mu = lp.n_vars, lp.n_eq, lp.n_ub
    m = me + mu
    a = np.zeros((m, n + mu))
    a[:me, :n] = lp.a_eq
    a[me:, :n] = lp.a_ub
    if mu:
        a[me:, n:] = np.eye(mu)
    b = np.concatenate([lp.b_eq, lp.b_ub])
    sign = np.ones(m)
    neg = b < 0
    sign[neg] = -1.0
    a[neg] *= -1.0
    b = np.abs(b)
    art_rows = [i for i in range(m) if i < me or neg[i]]
    return a, b, sign, n + mu, art_rows


def _pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    t[row] /= t[row, col]
    factors = t[:, col].copy()
    factors[row] = 0.0
    t -= np.outer(factors, t[row])
    t[:, col] = 0.0
    t[row, col] = 1.0
    basis[row] = col


_STALL_LIMIT = 64


def _lexicographic_leave(t: np.ndarray, col: np.ndarray, ties: np.ndarray, basis: list[int]) -> int:
    """Among rows tied in the ratio test, pick the one whose scaled row is
    lexicographically smallest (the classic anti-cycling perturbation).
    Bit-identical duplicate rows stay tied; the smallest basic variable
    breaks what remains."""
    cand = ties
    width = t.shape[1] - 1
    j = 0
    while cand.size > 1 and j < width:
        vals = t[cand, j] / col[cand]
        low = vals.min()
        cand = cand[vals <= low + 1e-12 * (1.0 + abs(low))]
        j += 1
    if cand.size == 1:
        return int(cand[0])
    basis_arr = np.asarray(basis)
    return int(cand[np.argmin(basis_arr[cand])])


def _run(t: np.ndarray, basis: list[int], allowed_end: int, cap: int) -> tuple[str, int]:
    """Pivot loop tuned for heavily degenerate data (zero right-hand sides).

    Entering: most negative reduced cost, switching to Bland's smallest
    index after a long objective stall as the anti-cycling backstop.
    Leaving: minimum ratio with lexicographic tie-breaking.
    """
    m = t.shape[0] - 1
    iters = 0
    stall = 0
    last_obj = t[m, -1]
    while True:
        obj = t[m, :allowed_end]
        negative = np.nonzero(obj < -PIVOT_TOL)[0]
        if negative.size == 0:
            return OPTIMAL, iters
        iters += 1
        if iters > cap:
            return NUMERICAL_FAILURE, iters
        if stall >= _STALL_LIMIT:
            enter = int(negative[0])
        else:
            enter = int(negative[np.argmin(obj[negative])])
        col = t[:m, enter]
        pivotable = np.nonzero(col > PIVOT_TOL)[0]
        if pivotable.size == 0:
            return UNBOUNDED, iters
        ratios = t[pivotable, -1] / col[pivotable]
        best = float(ratios.min())
        ties = pivotable[ratios <= best + 1e-12]
        if ties.size == 1:
            leave = int(ties[0])
        else:
            leave = _lexicographic_leave(t, col, ties, basis)
        _pivot(t, basis, leave, enter)
        if t[m, -1] > last_obj + 1e-12 * (1.0 + abs(last_obj)):
            stall = 0
            last_obj = t[m, -1]
        else:
            stall += 1


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    n, me, mu = lp.n_vars, lp.n_eq, lp.n_ub
    m = me + mu
    a, b, sign, ncols, art_rows = _standard_form(lp)
    feas_tol = 1e-8 * (1.0 + (float(np.max(b)) if m else 0.0))
    n_art = len(art_rows)
    total = ncols + n_art
    t = np.zeros((m + 1, total + 1))
    t[:m, :ncols] = a
    t[:m, -1] = b
    # each row's starting unit column: its artificial, else its slack
    unit = [n + i - me for i in range(m)]
    for k, i in enumerate(art_rows):
        t[i, ncols + k] = 1.0
        unit[i] = ncols + k
    basis = list(unit)

    cap = 500 + 200 * (m + ncols)

    # phase one: minimize the sum of artificials
    if n_art:
        t[m, ncols:total] = 1.0
        for i in art_rows:
            t[m] -= t[i]
        status, it1 = _run(t, basis, total, cap)
        if status != OPTIMAL:
            return SimplexResult(NUMERICAL_FAILURE, iterations=it1)
        if -t[m, -1] > feas_tol:
            return SimplexResult(INFEASIBLE, iterations=it1)
    else:
        it1 = 0

    # phase two: minimize -c over the original columns; artificial columns
    # stay in the tableau (possibly basic at zero) but may not re-enter
    t[m] = 0.0
    t[m, :n] = -lp.c
    for r in range(m):
        coeff = t[m, basis[r]]
        if coeff != 0.0:
            t[m] -= coeff * t[r]
    status, it2 = _run(t, basis, ncols, cap)
    iters = it1 + it2
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, iterations=iters)
    if status != OPTIMAL:
        return SimplexResult(NUMERICAL_FAILURE, iterations=iters)

    x_std = np.zeros(total)
    for r in range(m):
        x_std[basis[r]] = t[r, -1]
    if n_art and float(np.max(np.abs(x_std[ncols:]))) > feas_tol:
        return SimplexResult(NUMERICAL_FAILURE, iterations=iters)
    x = np.maximum(x_std[:n], 0.0)
    value = float(lp.c @ x)

    # duals off the final tableau: a unit column e_i costs nothing, so its
    # reduced cost in the min form is -y_i (its slack on a flipped row is
    # -e_i, but flipped rows start with an artificial); undoing the row
    # flips and the max->min negation gives y_orig_i = sign_i * t[m, unit_i]
    y = sign * t[m, unit]
    return SimplexResult(
        OPTIMAL,
        x=x,
        value=value,
        duals_eq=y[:me],
        duals_ub=y[me:],
        basis=tuple(basis),
        iterations=iters,
    )


# ---------------------------------------------------------------------------
# exact-rational re-verification of a final basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ExactCheckReport:
    performed: bool
    consistent: bool
    max_primal_violation: float
    max_dual_violation: float
    value_gap: float
    note: str = ""


def _dyadic_row(values) -> tuple[list[int], int]:
    """Integers p and the power of two d with values == p / d exactly.

    Every finite float is a dyadic rational, so the common denominator of a
    row is the largest denominator in it.
    """
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max((q for _, q in ratios), default=1)
    return [p * (den // q) for p, q in ratios], den


def _bareiss_solve(aug: list[list[int]]) -> tuple[list[int], int] | None:
    """Solve the square integer system held as augmented rows [M | r].

    Fraction-free (Bareiss) elimination with row exchanges keeps every entry
    an integer minor of the input, so each division is exact. Returns
    (num, det) with x = num / det (Cramer: det * x is integral), or None
    when M is singular.
    """
    k = len(aug)
    prev = 1
    for p in range(k):
        piv = next((r for r in range(p, k) if aug[r][p]), None)
        if piv is None:
            return None
        aug[p], aug[piv] = aug[piv], aug[p]
        top = aug[p]
        d = top[p]
        for r in range(p + 1, k):
            row = aug[r]
            e = row[p]
            row[p + 1 :] = [(x * d - e * y) // prev for x, y in zip(row[p + 1 :], top[p + 1 :])]
            row[p] = 0
        prev = d
    num = [0] * k
    for i in range(k - 1, -1, -1):
        row = aug[i]
        acc = prev * row[k] - sum(row[j] * num[j] for j in range(i + 1, k))
        num[i] = acc // row[i]
    return num, prev


def exact_basis_check(lp: LinearProgram, result: SimplexResult) -> ExactCheckReport:
    """Re-derive the reported basis over exact rationals.

    The float LP data is reinterpreted as the exact dyadic rationals it
    stores; the basic solution, the duals and the reduced-cost margins are
    then exact, so any disagreement beyond ``EXACT_TOL`` is elimination drift in
    the float tableau rather than data noise.

    Slack and artificial columns are signed unit vectors, so only the block
    of structural basic columns on the rows no unit column covers needs
    elimination (fraction-free, over integers); each unit row's basic value
    follows by substitution, and its dual is zero because unit columns cost
    nothing. Two unit columns on one row, or a non-square block, make the
    basis singular.
    """
    if result.status != OPTIMAL or result.basis is None:
        return ExactCheckReport(False, False, np.inf, np.inf, np.inf, "no optimal basis")
    singular = ExactCheckReport(True, False, np.inf, np.inf, np.inf, "singular basis")
    n, me, mu = lp.n_vars, lp.n_eq, lp.n_ub
    m = me + mu
    a, b, sign, ncols, art_rows = _standard_form(lp)
    a_rows = a[:, :n].tolist()
    b_list = b.tolist()
    row_sign = [int(s) for s in sign]

    unit: dict[int, tuple[int, int]] = {}  # basis position -> (row, +-1)
    struct_pos: list[int] = []
    for r, col in enumerate(result.basis):
        if col < n:
            struct_pos.append(r)
        elif col < ncols:
            unit[r] = (me + col - n, row_sign[me + col - n])
        else:
            unit[r] = (art_rows[col - ncols], 1)
    covered = {i for i, _ in unit.values()}
    free_rows = [i for i in range(m) if i not in covered]
    if len(covered) < len(unit) or len(free_rows) != len(struct_pos):
        return singular
    cols = [result.basis[r] for r in struct_pos]

    # B x = b on the block, then each unit row by substitution
    primal = _bareiss_solve(
        [_dyadic_row([a_rows[i][c] for c in cols] + [b_list[i]])[0] for i in free_rows]
    )
    if primal is None:
        return singular
    x_num, x_det = primal
    x_b = [Fraction(0)] * len(result.basis)
    for r, v in zip(struct_pos, x_num):
        x_b[r] = Fraction(v, x_det)
    for r, (i, s) in unit.items():
        ints, den = _dyadic_row([a_rows[i][c] for c in cols] + [b_list[i]])
        rest = ints[-1] * x_det - sum(p * v for p, v in zip(ints, x_num))
        x_b[r] = Fraction(s * rest, den * x_det)

    # B^T y = c_B: zero on unit rows (unit columns cost nothing), the
    # transposed block elsewhere, nonsingular with the block itself
    y_num, y_det = _bareiss_solve(
        [_dyadic_row([a_rows[i][c] for i in free_rows] + [-float(lp.c[c])])[0] for c in cols]
    )
    y = {i: Fraction(v, y_det) for i, v in zip(free_rows, y_num) if v}

    primal_violation = max((float(-v) for v in x_b), default=0.0)
    basis_set = set(result.basis)
    dual_violation = 0.0
    for col in range(ncols):
        if col in basis_set:
            continue
        if col < n:
            reduced = Fraction(-float(lp.c[col])) - sum(
                yi * Fraction(a_rows[i][col]) for i, yi in y.items()
            )
        else:
            i = me + col - n
            reduced = -y.get(i, 0) * row_sign[i]
        dual_violation = max(dual_violation, float(-reduced))
    x_struct = [Fraction(0)] * n
    for r, col in enumerate(result.basis):
        if col < n:
            x_struct[col] = x_b[r]
    value_exact = sum(Fraction(float(ci)) * xi for ci, xi in zip(lp.c, x_struct))
    value_gap = abs(float(value_exact) - float(result.value))
    scale = 1.0 + abs(float(result.value))
    consistent = (
        primal_violation <= EXACT_TOL
        and dual_violation <= EXACT_TOL
        and value_gap <= EXACT_TOL * scale
    )
    return ExactCheckReport(
        True,
        consistent,
        max(primal_violation, 0.0),
        max(dual_violation, 0.0),
        value_gap,
    )
