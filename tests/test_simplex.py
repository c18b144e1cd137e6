import random
from fractions import Fraction

import numpy as np
import pytest

from delsarte import Status, solve_delsarte, verify_certificate
from delsarte.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    ExactCheckReport,
    LinearProgram,
    SimplexResult,
    exact_basis_check,
    simplex_solve,
)

from conftest import build_instance


def lp(c, a_eq=(), b_eq=(), a_ub=(), b_ub=()):
    n = len(c)
    return LinearProgram(
        np.array(c, dtype=float),
        np.array(a_eq, dtype=float).reshape(-1, n),
        np.array(b_eq, dtype=float),
        np.array(a_ub, dtype=float).reshape(-1, n),
        np.array(b_ub, dtype=float),
    )


def test_single_equality():
    res = simplex_solve(lp([1, 0], a_eq=[[1, 1]], b_eq=[1]))
    assert res.status == OPTIMAL
    assert abs(res.value - 1.0) < 1e-12
    assert np.allclose(res.x, [1, 0], atol=1e-12)


def test_zero_objective_feasible():
    res = simplex_solve(lp([0, 0], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, -1]], b_ub=[0]))
    assert res.status == OPTIMAL
    assert res.value == 0.0


def test_infeasible():
    res = simplex_solve(lp([1, 0], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, 0]], b_ub=[-1]))
    assert res.status == INFEASIBLE


def test_unbounded():
    res = simplex_solve(lp([1, 0], a_ub=[[0, 1]], b_ub=[1]))
    assert res.status == UNBOUNDED


def test_negative_rhs_rows():
    # x1 + x2 >= 2 and 2 x1 + x2 >= 3, minimize 3 x1 + 4 x2: optimum 6 at (2, 0)
    res = simplex_solve(
        lp([-3, -4], a_ub=[[-1, -1], [-2, -1]], b_ub=[-2, -3])
    )
    assert res.status == OPTIMAL
    assert abs(res.value - (-6.0)) < 1e-9
    assert np.allclose(res.x, [2, 0], atol=1e-9)
    # flipped-row duals still certify: b.y == value with y >= 0
    assert res.duals_ub.min() >= -1e-12
    assert abs(res.duals_ub @ np.array([-2.0, -3.0]) - res.value) < 1e-9


def test_degenerate_cycling_prone_instance():
    # classic cycling-prone data; Bland's rule must terminate at 0.05
    res = simplex_solve(
        lp(
            [0.75, -150, 0.02, -6],
            a_ub=[
                [0.25, -60, -0.04, 9],
                [0.5, -90, -0.02, 3],
                [0, 0, 1, 0],
            ],
            b_ub=[0, 0, 1],
        )
    )
    assert res.status == OPTIMAL
    assert abs(res.value - 0.05) < 1e-9


def test_duals_certify_value():
    problem = lp([4, 3], a_ub=[[2, 1], [1, 2]], b_ub=[4, 4])
    res = simplex_solve(problem)
    assert res.status == OPTIMAL
    # strong duality: b.y equals the optimum, duals nonnegative
    assert res.duals_ub.min() >= -1e-12
    assert abs(res.duals_ub @ problem.b_ub - res.value) < 1e-9
    # dual feasibility A^T y >= c
    assert np.all(problem.a_ub.T @ res.duals_ub - problem.c >= -1e-9)


def test_equality_dual_certifies_value():
    problem = lp([5, 1], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, -1]], b_ub=[0])
    res = simplex_solve(problem)
    assert res.status == OPTIMAL
    assert abs(res.value - 3.0) < 1e-12
    bound = res.duals_eq @ problem.b_eq + res.duals_ub @ problem.b_ub
    assert abs(bound - res.value) < 1e-9


def test_exact_basis_check_consistent():
    problem = lp([4, 3], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, -1]], b_ub=[0])
    res = simplex_solve(problem)
    report = exact_basis_check(problem, res)
    assert report.performed and report.consistent
    assert report.value_gap < 1e-12


def test_exact_basis_check_flags_tampering():
    problem = lp([4, 3], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, -1]], b_ub=[0])
    res = simplex_solve(problem)
    res.value = res.value + 0.5
    report = exact_basis_check(problem, res)
    assert report.performed and not report.consistent


def test_random_lps_agree_with_enumeration():
    # brute-force vertex enumeration over inequality subsets as an oracle
    import itertools
    import random

    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        c = [rng.uniform(-2, 2) for _ in range(n)]
        a_ub = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(m)]
        b_ub = [rng.uniform(0.2, 2) for _ in range(m)]  # 0 feasible, bounded unlikely
        rows = np.vstack([np.array(a_ub), np.eye(n)])
        rhs_all = np.concatenate([np.array(b_ub), np.zeros(n)])
        best = None
        for combo in itertools.combinations(range(m + n), n):
            mat = rows[list(combo)]
            if abs(np.linalg.det(mat)) < 1e-9:
                continue
            x = np.linalg.solve(mat, rhs_all[list(combo)])
            if np.all(np.array(a_ub) @ x <= np.array(b_ub) + 1e-9) and np.all(x >= -1e-9):
                val = float(np.array(c) @ x)
                best = val if best is None else max(best, val)
        res = simplex_solve(lp(c, a_ub=a_ub, b_ub=b_ub))
        if res.status == OPTIMAL and best is not None:
            assert abs(res.value - best) < 1e-7 * (1 + abs(best))


# ---------------------------------------------------------------------------
# exact recheck against a dense Fraction Gauss-Jordan reference
# ---------------------------------------------------------------------------


def _fraction_solve(mat, rhs):
    n = len(mat)
    aug = [row[:] + [r] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[-1] for row in aug]


def _dense_exact_check(problem, result, tol=1e-7):
    """The full m x m basis solved over Fractions, field for field the
    report exact_basis_check must produce."""
    n, me, mu = problem.n_vars, problem.n_eq, problem.n_ub
    m = me + mu
    b_raw = np.concatenate([problem.b_eq, problem.b_ub])
    sign = np.where(b_raw < 0, -1.0, 1.0)
    a = np.zeros((m, n + mu))
    a[:me, :n] = problem.a_eq
    a[me:, :n] = problem.a_ub
    a[me:, n:] = np.eye(mu)
    a *= sign[:, None]
    b = np.abs(b_raw)
    ncols = n + mu
    art_rows = [i for i in range(m) if i < me or b_raw[i] < 0]
    af = [[Fraction(float(x)) for x in row] for row in a]
    cf = [Fraction(-float(x)) for x in problem.c] + [Fraction(0)] * (mu + len(art_rows))

    def column(col):
        if col < ncols:
            return [af[r][col] for r in range(m)]
        out = [Fraction(0)] * m
        out[art_rows[col - ncols]] = Fraction(1)
        return out

    bmat = [[Fraction(0)] * m for _ in range(m)]
    for r, col in enumerate(result.basis):
        for i, v in enumerate(column(col)):
            bmat[i][r] = v
    x_b = _fraction_solve(bmat, [Fraction(float(x)) for x in b])
    if x_b is None:
        return ExactCheckReport(True, False, np.inf, np.inf, np.inf, "singular basis")
    y = _fraction_solve([list(row) for row in zip(*bmat)], [cf[c] for c in result.basis])
    primal = max((float(-v) for v in x_b), default=0.0)
    dual = 0.0
    for col in range(ncols):
        if col not in result.basis:
            reduced = cf[col] - sum(yi * ai for yi, ai in zip(y, column(col)))
            dual = max(dual, float(-reduced))
    value = sum(
        (Fraction(float(problem.c[col])) * x_b[r] for r, col in enumerate(result.basis) if col < n),
        Fraction(0),
    )
    gap = abs(float(value) - float(result.value))
    ok = primal <= tol and dual <= tol and gap <= tol * (1.0 + abs(float(result.value)))
    return ExactCheckReport(True, ok, max(primal, 0.0), max(dual, 0.0), gap)


def _random_lp(rng):
    """Feasible, bounded LP around a random point x0 >= 0. Some rows are
    tight at x0 and some right-hand sides are zero (degenerate optima);
    rows below x0's value get a negative right-hand side."""
    n = rng.randint(2, 5)
    me = rng.randint(0, 2)
    mu = rng.randint(1, 6)
    x0 = [rng.choice([0.0, rng.uniform(0, 2)]) for _ in range(n)]

    def row():
        entries = (0.0, 1.0, -1.0, round(rng.uniform(-2, 2), 3), rng.uniform(-2, 2))
        return [rng.choice(entries) for _ in range(n)]

    a_eq = [row() for _ in range(me)]
    b_eq = [sum(p * q for p, q in zip(r, x0)) for r in a_eq]
    a_ub = [row() for _ in range(mu - 1)] + [[1.0] * n]
    b_ub = [sum(p * q for p, q in zip(r, x0)) + rng.choice([0.0, 0.0, rng.uniform(0, 1)]) for r in a_ub]
    if rng.random() < 0.3:
        a_ub.append(a_ub[0])
        b_ub.append(b_ub[0])
    c = [rng.choice([0.0, 1.0, rng.uniform(-2, 2)]) for _ in range(n)]
    return lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def test_exact_basis_check_matches_dense_fraction_reference():
    rng = random.Random(2024)
    optimal = equality = negative = degenerate = 0
    while optimal < 60:
        problem = _random_lp(rng)
        res = simplex_solve(problem)
        if res.status != OPTIMAL:
            continue
        optimal += 1
        equality += problem.n_eq > 0
        negative += bool(np.any(problem.b_ub < 0))
        degenerate += bool(np.any(np.abs(res.x) < 1e-12))
        report = exact_basis_check(problem, res)
        assert report == _dense_exact_check(problem, res)
        assert report.performed and report.consistent
        # any other basis, feasible or not, gets the same report as well
        m = problem.n_eq + problem.n_ub
        others = [j for j in range(problem.n_vars + problem.n_ub) if j not in res.basis]
        if others:
            moved = list(res.basis)
            moved[rng.randrange(m)] = rng.choice(others)
            res.basis = tuple(moved)
            assert exact_basis_check(problem, res) == _dense_exact_check(problem, res)
    assert equality and negative and degenerate


def test_exact_basis_check_flags_repeated_basis_column():
    problem = lp([4, 3], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, -1], [-1, -2]], b_ub=[0, -1])
    res = simplex_solve(problem)
    assert exact_basis_check(problem, res).consistent
    for col in set(res.basis):
        tampered = SimplexResult(**{**res.__dict__, "basis": (col,) * len(res.basis)})
        report = exact_basis_check(problem, tampered)
        assert report.performed and not report.consistent
        assert report == _dense_exact_check(problem, tampered)


def test_exact_basis_check_negative_rhs_slack_and_artificial_share_a_row():
    # row 1 has b < 0: its slack is -e_1 and its artificial +e_1, so a basis
    # holding both is singular
    problem = lp([-3, -4], a_ub=[[-1, -1], [-2, -1]], b_ub=[-2, -3])
    res = simplex_solve(problem)
    assert exact_basis_check(problem, res).consistent
    n, mu = problem.n_vars, problem.n_ub
    slack, artificial = n + 1, n + mu + 1
    tampered = SimplexResult(**{**res.__dict__, "basis": (slack, artificial)})
    report = exact_basis_check(problem, tampered)
    assert report.performed and not report.consistent
    assert report.note == "singular basis"


def test_exact_basis_check_flags_infeasible_duals():
    # max 4 x1 + 3 x2, x1 + x2 = 1, x1 - x2 <= 0: the vertex (0, 1) is
    # primal feasible with value 3, but its duals price x1 at -1
    problem = lp([4, 3], a_eq=[[1, 1]], b_eq=[1], a_ub=[[1, -1]], b_ub=[0])
    res = simplex_solve(problem)
    assert abs(res.value - 3.5) < 1e-12
    vertex = SimplexResult(OPTIMAL, x=np.array([0.0, 1.0]), value=3.0, basis=(1, 2))
    report = exact_basis_check(problem, vertex)
    assert report.performed and not report.consistent
    assert report.max_primal_violation == 0.0 and report.value_gap == 0.0
    assert report.max_dual_violation == 1.0
    assert report == _dense_exact_check(problem, vertex)


def test_tableau_duals_match_a_basis_solve():
    # the duals read off the final tableau against B^T y = c_B solved afresh
    # from the final basis, on LPs with equality rows and flipped rows
    rng = random.Random(77)
    optimal = flipped = 0
    while optimal < 60:
        problem = _random_lp(rng)
        res = simplex_solve(problem)
        if res.status != OPTIMAL:
            continue
        optimal += 1
        n, me, mu = problem.n_vars, problem.n_eq, problem.n_ub
        b_raw = np.concatenate([problem.b_eq, problem.b_ub])
        sign = np.where(b_raw < 0, -1.0, 1.0)
        flipped += bool(np.any(sign[me:] < 0))
        art_rows = [i for i in range(me + mu) if i < me or b_raw[i] < 0]
        slacks = np.vstack([np.zeros((me, mu)), np.eye(mu)])
        a = np.hstack([np.vstack([problem.a_eq, problem.a_ub]), slacks]) * sign[:, None]
        bmat = np.zeros((me + mu, me + mu))
        cost = np.zeros(me + mu)
        for r, col in enumerate(res.basis):
            if col < n + mu:
                bmat[:, r] = a[:, col]
                cost[r] = -problem.c[col] if col < n else 0.0
            else:
                bmat[art_rows[col - n - mu], r] = 1.0
        y = -sign * np.linalg.solve(bmat.T, cost)
        assert np.allclose(np.concatenate([res.duals_eq, res.duals_ub]), y, rtol=0, atol=1e-9)
        assert abs(b_raw @ y - res.value) <= 1e-9 * (1.0 + abs(res.value))
    assert flipped


@pytest.mark.parametrize(
    "n, half_width, value",
    [(128, 4, 5.005324138442286), (192, 5, 5.999999999999984)],
)
def test_ratio_test_ties_on_symmetric_intervals(n, half_width, value):
    # zero right-hand sides tie the ratio test at almost every pivot; the
    # lexicographic tie-break is what keeps these walks short and exact
    # (reference values vouched by HiGHS)
    inst = build_instance([n], [(c % n,) for c in range(-half_width, half_width + 1)])
    sol = solve_delsarte(inst)
    assert sol.status == Status.OPTIMAL
    assert abs(sol.value - value) <= 1e-9 * (1.0 + abs(value))
    assert verify_certificate(sol, inst).ok
