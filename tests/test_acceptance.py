"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are fixed here, not configurable.
"""

import random
import time

import numpy as np

from delsarte import (
    FunctionOnG,
    Spectrum,
    Status,
    bump_theta,
    char_eval,
    conj_fourier,
    conv_square,
    dft,
    feasibility_check,
    gram_oracle,
    is_positive_definite,
    make_group,
    solve_delsarte,
    trivial_extension,
    vertex_enum_oracle,
)
from delsarte.campaigns import (
    extension_campaign,
    golden_cases,
    net_campaign,
    oracle_campaign,
    posdef_campaign,
    random_instance,
    reduction_campaign,
)
from delsarte.groups import character_table, coords_table
from delsarte.lp import DelsarteInstance


def report(num, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    result = oracle_campaign(seed=2024, count=100)
    elapsed = time.perf_counter() - start
    detail = f"max gap {result.stats['max_gap']:.2e}, {elapsed:.1f}s"
    report(1, "solver matches vertex oracle on 100 seeded instances", result.ok and elapsed < 30, detail)


def test_criterion_2_attainment():
    rng = random.Random(515)
    checked = 0
    ok = True
    worst_mass = 0.0
    instances = [inst for _, inst, _ in golden_cases()]
    instances += [random_instance(rng, 12) for _ in range(100)]
    for inst in instances:
        sol = solve_delsarte(inst)
        if sol.status != Status.OPTIMAL:
            continue
        checked += 1
        member = feasibility_check(sol.f, inst, tol=1e-9).is_member
        mass_gap = abs(sol.f.total() - sol.value)
        worst_mass = max(worst_mass, mass_gap)
        if not member or mass_gap > 1e-9 * (1 + abs(sol.value)):
            ok = False
    detail = f"{checked} optimal solves, worst mass gap {worst_mass:.2e}"
    report(2, "every optimal solve exhibits a member function with matching mass", ok and checked > 50, detail)


def test_criterion_3_reduction_equality():
    start = time.perf_counter()
    result = reduction_campaign(seed=3030, count=50)
    elapsed = time.perf_counter() - start
    detail = f"max gap {result.stats['max_gap']:.2e}, {elapsed:.1f}s"
    report(3, "reduced instance matches on 50 seeded proper-subgroup instances", result.ok and elapsed < 30, detail)


def test_criterion_4_golden_values():
    ok = True
    details = []
    for name, inst, expected in golden_cases():
        sol = solve_delsarte(inst)
        if expected is None:
            good = sol.status == Status.INFEASIBLE
        else:
            good = sol.status == Status.OPTIMAL and abs(sol.value - expected) <= 1e-9
        if not good:
            ok = False
            details.append(f"{name}: got {sol.status.value} {sol.value}")
    report(4, "golden values (intervals 2, whole window |G|, origin 1, trivial-Q infeasible)", ok, "; ".join(details))


def test_criterion_5_posdef_suite():
    result = posdef_campaign(seed=505, count=200)
    report(5, "200 convolution squares and 200 positive definite samples pass the peak/mass laws", result.ok)


def test_criterion_6_extension_suite():
    result = extension_campaign(seed=606, count=100)
    report(6, "100 trivial extensions pass both the spectral and Gram tests", result.ok)


def test_criterion_7_net_suite():
    result = net_campaign(seed=707, count=10)
    detail = f"worst bound margin {result.stats['worst_bound_margin']:.3g}"
    report(7, "net approximation below 2*epsilon with quantization residuals below 1/m", result.ok, detail)


def _abelian_specs_up_to(limit):
    def partitions_into_prime_powers(n):
        # all multisets of integers >= 2 with product n (orders of cyclic factors)
        if n == 1:
            return [[]]
        out = []
        for d in range(2, n + 1):
            if n % d == 0:
                for rest in partitions_into_prime_powers(n // d):
                    if not rest or rest[0] >= d:
                        out.append([d] + rest)
        return out

    specs = [make_group([1])]
    seen = {(1,)}
    for n in range(2, limit + 1):
        for factors in partitions_into_prime_powers(n):
            # canonical form: invariant factors via the group itself
            from delsarte import whole_group

            spec = make_group(sorted(factors))
            canon = whole_group(spec).canonical_orders
            if canon not in seen:
                seen.add(canon)
                specs.append(make_group(list(canon)))
    return specs


def test_criterion_8_fourier_suite():
    rng = random.Random(88)
    # inversion round trip on 500 random functions
    ok_inv = True
    for _ in range(500):
        orders = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
        spec = make_group(orders)
        if spec.order > 32:
            continue
        f = FunctionOnG(spec, [rng.uniform(-2, 2) for _ in range(spec.order)])
        back = conj_fourier(dft(f))
        if np.max(np.abs(back - f.values)) > 1e-12 * (1 + f.norm_inf()):
            ok_inv = False
        lhs = float(np.sum(f.values**2))
        rhs = float(np.sum(np.abs(dft(f).values) ** 2)) / spec.order
        if abs(lhs - rhs) > 1e-12 * (1 + lhs):
            ok_inv = False

    # bump identity for every symmetric base set in every group of order <= 16
    ok_bump = True
    worst = 0.0
    n_sets = 0
    for spec in _abelian_specs_up_to(16):
        duals = list(spec.duals())
        # conjugation classes of nontrivial characters; the unit is always in
        classes = []
        seen = set()
        for chi in duals:
            key = min(chi.index, chi.conjugate().index)
            if key in seen or key == 0:
                continue
            seen.add(key)
            orbit = {chi, chi.conjugate()}
            classes.append(sorted(orbit, key=lambda c: c.index))
        unit = spec.trivial_character()
        gamma_values = character_table(spec, coords_table(spec), coords_table(spec))
        for mask in range(2 ** len(classes)):
            members = {unit}
            for bit, orbit in enumerate(classes):
                if mask >> bit & 1:
                    members.update(orbit)
            indicator = Spectrum(spec, [1.0 if chi in members else 0.0 for chi in duals])
            base_sq = np.abs(conj_fourier(indicator)) ** 2
            for gamma in (unit, duals[(n_sets + 7) % spec.order]):
                theta = bump_theta(members, gamma)
                lhs = conj_fourier(theta)
                rhs = gamma_values[gamma.index] * base_sq
                err = float(np.max(np.abs(lhs - rhs)))
                worst = max(worst, err)
                if err > 1e-12:
                    ok_bump = False
            n_sets += 1
    detail = f"{n_sets} symmetric base sets, worst bump error {worst:.2e}"
    report(8, "inversion, Parseval, and the bump identity hold at 1e-12", ok_inv and ok_bump, detail)


def test_criterion_9_monotonicity_and_bounds():
    rng = random.Random(909)
    ok = True
    pairs = 0
    for _ in range(60):
        inst = random_instance(rng, 12)
        spec = inst.group
        extra_w = [g for g in spec.elements() if g not in inst.w]
        w_big = inst.w | set(rng.sample(extra_w, min(2, len(extra_w)))) if extra_w else inst.w
        extra_q = [c for c in spec.duals() if c not in inst.q]
        q_big = set(inst.q)
        for chi in extra_q[:2]:
            q_big |= {chi, chi.conjugate()}
        small = solve_delsarte(inst)
        big = solve_delsarte(DelsarteInstance.from_sets(spec, frozenset(w_big), frozenset(q_big)))
        for sol, w in ((small, inst.w), (big, w_big)):
            if sol.status == Status.OPTIMAL and not (-1e-9 <= sol.value <= len(w) + 1e-9 * (1 + len(w))):
                ok = False
        if small.status == Status.OPTIMAL and big.status == Status.OPTIMAL:
            pairs += 1
            if small.value > big.value + 1e-9:
                ok = False
    report(9, "values monotone under window/support growth and inside [0, |W|]", ok and pairs > 20, f"{pairs} feasible nested pairs")
