"""Seeded verification campaigns behind the ``verify`` command.

Each campaign draws a deterministic stream of cases from a master seed,
records one reproduction seed per case, and returns a summary that the CLI
and the acceptance tests render. Failures carry the case seed so any single
case can be replayed in isolation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DelsarteError
from .fourier import FunctionOnG, Spectrum, conj_fourier_real, conv_square
from .groups import GroupElement, GroupSpec, Subgroup, generated_subgroup, make_group, negation, negation_classes
from .lp import DelsarteInstance, Status, oracle_check, solve_delsarte, solve_with_program
from .nets import build_net, net_approximation
from .posdef import gram_oracle, is_positive_definite, restrict_function, trivial_extension
from .reduction import restriction_fibers, verify_equivalence

MAX_RANK = 3  # cyclic factors of a random group, at most


@dataclass
class CaseFailure:
    index: int
    seed: int
    detail: str


@dataclass
class CampaignResult:
    suite: str
    seed: int
    count: int
    failures: list[CaseFailure] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        out = [f"suite={self.suite} seed={self.seed} count={self.count}"]
        for f in self.failures:
            out.append(f"  case {f.index} FAIL seed={f.seed}: {f.detail}")
        stats = " ".join(f"{k}={v:.3g}" for k, v in sorted(self.stats.items()))
        verdict = "PASS" if self.ok else "FAIL"
        passed = self.count - len(self.failures)
        out.append(f"{verdict} {self.suite}: {passed}/{self.count} cases{(' ' + stats) if stats else ''}")
        return out


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


def random_group(rng: random.Random, max_order: int = 12) -> GroupSpec:
    while True:
        rank = rng.randint(1, MAX_RANK)
        orders = [rng.randint(1, 6) for _ in range(rank)]
        if 2 <= math.prod(orders) <= max_order:
            return make_group(orders)


def random_window(rng: random.Random, spec: GroupSpec) -> frozenset[GroupElement]:
    p = rng.uniform(0.15, 0.9)
    members = {spec.zero()}
    for g in spec.elements():
        if not g.is_zero() and rng.random() < p:
            members.add(g)
    return frozenset(members)


def random_conjugation_closed_q(rng: random.Random, spec: GroupSpec) -> frozenset:
    neg = negation(spec)
    reps = negation_classes(spec, np.ones(spec.order, dtype=bool)).tolist()  # one per conjugation orbit
    p = rng.uniform(0.2, 0.95)
    chosen = [i for i in reps if rng.random() < p] or [rng.choice(reps)]
    return frozenset(spec.dual_at(j) for i in chosen for j in (i, int(neg[i])))


def random_positive_definite(rng: random.Random, spec: GroupSpec) -> FunctionOnG:
    """Positive definite by construction, with f(0) = 1: either a convolution
    square or the conjugate transform of a random symmetric nonnegative
    spectrum, divided by its value at 0."""
    if rng.random() < 0.5:
        while True:
            phi = FunctionOnG(spec, [rng.uniform(-1, 1) for _ in range(spec.order)])
            f = conv_square(phi)
            if f.at_zero() > 1e-6:
                break
    else:
        vals = np.zeros(spec.order, dtype=complex)
        neg = negation(spec)
        for i in negation_classes(spec, np.ones(spec.order, dtype=bool)):
            vals[i] = vals[neg[i]] = rng.uniform(0.0, 1.0)
        if not np.any(vals):
            vals[0] = 1.0
        f = conj_fourier_real(Spectrum(spec, vals))
        if f.at_zero() <= 1e-9:
            f = FunctionOnG.delta(spec)
    return FunctionOnG(spec, f.values / f.at_zero())


def random_even_function(rng: random.Random, spec: GroupSpec) -> FunctionOnG:
    vals = np.array([rng.uniform(-1, 1) for _ in range(spec.order)])
    return FunctionOnG(spec, vals[np.minimum(np.arange(spec.order), negation(spec))])


def random_subgroup(rng: random.Random, spec: GroupSpec, proper: bool = False) -> Subgroup:
    for _ in range(64):
        picks = [spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(1, 2))]
        h = generated_subgroup([spec.zero()] + picks)
        if not proper or h.order < spec.order:
            return h
    return generated_subgroup([spec.zero()])


def random_instance(rng: random.Random, max_order: int = 12) -> DelsarteInstance:
    spec = random_group(rng, max_order)
    return DelsarteInstance.from_sets(spec, random_window(rng, spec), random_conjugation_closed_q(rng, spec))


def random_fiber_union_q(rng: random.Random, spec: GroupSpec, g0) -> frozenset:
    """Conjugation-closed union of restriction fibers of the subgroup.

    On such supports the subgroup reduction provably preserves the extremal
    value; partial fibers can lose feasibility (see delsarte.reduction).
    """
    fibers = restriction_fibers(spec, g0)
    chosen: set = set()
    for gamma in fibers:
        if rng.random() < 0.5:
            chosen.add(gamma)
            chosen.add(gamma.conjugate())
    if not chosen:
        gamma = sorted(fibers, key=lambda c: c.index)[rng.randrange(len(fibers))]
        chosen = {gamma, gamma.conjugate()}
    return frozenset(chi for gamma in chosen for chi in fibers[gamma])


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def case_stream(seed: int, count: int) -> Iterator[tuple[int, int, random.Random]]:
    """``count`` cases drawn from the master seed: (index, case seed, a
    generator seeded with it). The case seed alone replays the case."""
    master = random.Random(seed)
    for i in range(count):
        case_seed = master.randrange(2**32)
        yield i, case_seed, random.Random(case_seed)


def posdef_campaign(seed: int, count: int) -> CampaignResult:
    """Convolution squares are positive definite; positive definite functions
    peak at 0 and have nonnegative total mass; the spectral and Gram tests
    agree on random even functions."""
    result = CampaignResult("posdef", seed, count)
    worst_min_spec = 0.0
    for i, case_seed, rng in case_stream(seed, count):
        spec = random_group(rng, 16)
        phi = FunctionOnG(spec, [rng.uniform(-1, 1) for _ in range(spec.order)])
        square = conv_square(phi)
        report = is_positive_definite(square)
        l2 = float(np.sum(phi.values**2))
        if not report.is_posdef or report.min_spectrum < -1e-10 * max(l2, 1e-30):
            result.failures.append(
                CaseFailure(i, case_seed, f"convolution square rejected: min spec {report.min_spectrum:g}")
            )
            continue
        worst_min_spec = min(worst_min_spec, report.min_spectrum)

        f = random_positive_definite(rng, spec)
        if f.norm_inf() > f.at_zero() + 1e-12:
            result.failures.append(
                CaseFailure(i, case_seed, f"peak bound violated: max|f| = {f.norm_inf():g} > f(0) = {f.at_zero():g}")
            )
            continue
        if f.total() < -1e-10 * spec.order * f.norm_inf():
            result.failures.append(CaseFailure(i, case_seed, f"negative total mass {f.total():g}"))
            continue

        even = random_even_function(rng, spec)
        if is_positive_definite(even).is_posdef != gram_oracle(even):
            result.failures.append(CaseFailure(i, case_seed, "spectral and Gram tests disagree"))
    result.stats["worst_min_spectrum"] = worst_min_spec
    return result


def extension_campaign(seed: int, count: int) -> CampaignResult:
    """Trivial extensions of positive definite subgroup functions pass both
    tests; restrictions of positive definite functions pass both tests."""
    result = CampaignResult("extension", seed, count)
    for i, case_seed, rng in case_stream(seed, count):
        spec = random_group(rng, 16)
        h = random_subgroup(rng, spec)
        f0 = random_positive_definite(rng, h.canonical_spec)
        ext = trivial_extension(f0, h, spec)
        if not is_positive_definite(ext).is_posdef:
            result.failures.append(CaseFailure(i, case_seed, "extension fails the spectral test"))
            continue
        if not gram_oracle(ext):
            result.failures.append(CaseFailure(i, case_seed, "extension fails the Gram test"))
            continue
        f = random_positive_definite(rng, spec)
        restr = restrict_function(f, h)
        if not is_positive_definite(restr).is_posdef or not gram_oracle(restr):
            result.failures.append(CaseFailure(i, case_seed, "restriction loses positive definiteness"))
    return result


def oracle_campaign(seed: int, count: int) -> CampaignResult:
    """Simplex value vs exhaustive vertex enumeration, plus attainment: every
    optimal solve returns a member function whose mass equals the value."""
    result = CampaignResult("oracle", seed, count)
    max_gap = 0.0
    for i, case_seed, rng in case_stream(seed, count):
        inst = random_instance(rng, 12)
        sol, prog = solve_with_program(inst)
        check = oracle_check(sol, inst, prog)  # order <= 12 stays within the oracle's limits
        if check["gap"] is not None:
            max_gap = max(max_gap, check["gap"])
        if not check["ok"]:
            if check["gap"] is None:
                detail = f"verdicts differ: solver {sol.status.value}, oracle {check['status']}"
            else:
                detail = f"value gap {check['gap']:g}: solver {sol.value!r}, oracle {check['value']!r}"
            result.failures.append(CaseFailure(i, case_seed, detail))
            continue
        if sol.status == Status.OPTIMAL:
            if not sol.residuals.is_member:
                result.failures.append(CaseFailure(i, case_seed, "optimal f fails membership"))
                continue
            if abs(sol.f.total() - sol.value) > 1e-9 * (1.0 + abs(sol.value)):
                result.failures.append(
                    CaseFailure(i, case_seed, f"mass {sol.f.total():g} differs from value {sol.value:g}")
                )
    result.stats["max_gap"] = max_gap
    return result


def reduction_campaign(seed: int, count: int) -> CampaignResult:
    """Instances whose window sits inside a proper subgroup, with supports
    built from full restriction fibers: the reduced problem must have the
    same status and value, and membership must transfer across trivial
    extension on sampled functions."""
    result = CampaignResult("reduction", seed, count)
    max_gap = 0.0
    for i, case_seed, rng in case_stream(seed, count):
        spec = random_group(rng, 16)
        h = random_subgroup(rng, spec, proper=True)
        members = list(h.elements)
        window = {spec.zero()}
        for g in members:
            if rng.random() < 0.7:
                window.add(g)
        g0 = generated_subgroup(window)
        inst = DelsarteInstance.from_sets(spec, frozenset(window), random_fiber_union_q(rng, spec, g0))
        report = verify_equivalence(inst, samples=12, seed=case_seed)
        if report.gap is not None:
            max_gap = max(max_gap, report.gap)
        if not report.ok:
            detail = (
                f"statuses {report.original_status.value}/{report.reduced_status.value}"
                f" gap={report.gap!r} membership {report.membership_agreements}/{report.membership_samples}"
            )
            result.failures.append(CaseFailure(i, case_seed, detail))
    result.stats["max_gap"] = max_gap
    return result


def golden_cases() -> list[tuple[str, DelsarteInstance, float | None]]:
    """Named instances with values pinned by the vertex oracle; expected
    value None means infeasible."""
    cases = []
    z4 = make_group([4])
    cases.append(("z4_interval", DelsarteInstance.from_sets(z4, frozenset(z4.element((c,)) for c in (3, 0, 1)), frozenset(z4.duals())), 2.0))
    z6 = make_group([6])
    cases.append(("z6_interval", DelsarteInstance.from_sets(z6, frozenset(z6.element((c,)) for c in (5, 0, 1)), frozenset(z6.duals())), 2.0))
    z5 = make_group([5])
    cases.append(("z5_whole_window", DelsarteInstance.from_sets(z5, frozenset(z5.elements()), frozenset(z5.duals())), 5.0))
    z23 = make_group([2, 3])
    cases.append(("z2x3_whole_window", DelsarteInstance.from_sets(z23, frozenset(z23.elements()), frozenset(z23.duals())), 6.0))
    for n in (2, 5, 8):
        zn = make_group([n])
        cases.append((f"z{n}_origin", DelsarteInstance.from_sets(zn, frozenset([zn.zero()]), frozenset(zn.duals())), 1.0))
    cases.append(
        (
            "z4_trivial_support",
            DelsarteInstance.from_sets(z4, frozenset([z4.zero(), z4.element((1,))]), frozenset([z4.trivial_character()])),
            None,
        )
    )
    return cases


def net_campaign(seed: int, count: int) -> CampaignResult:
    """Approximation bound on the golden extremal functions for a ladder of
    epsilons, plus seeded random (function, sample set) combinations."""
    result = CampaignResult("net", seed, count)
    epsilons = (0.05, 0.2, 1.0)
    worst_margin = np.inf
    index = 0

    def run_case(f: FunctionOnG, q, k, eps: float, case_seed: int, label: str) -> None:
        nonlocal index, worst_margin
        net = build_net(q, k, eps)
        coeffs, quantized, err = net_approximation(f, net)
        residual = float(np.max(coeffs - quantized)) if len(coeffs) else 0.0
        total = float(np.sum(coeffs))
        problems = []
        if err >= 2 * eps:
            problems.append(f"error {err:g} >= {2 * eps:g}")
        if residual >= 1.0 / net.m:
            problems.append(f"quantization residual {residual:g} >= 1/{net.m}")
        if abs(total - 1.0) > 1e-10:
            problems.append(f"cell masses sum to {total:g}")
        if problems:
            result.failures.append(CaseFailure(index, case_seed, f"{label}: " + "; ".join(problems)))
        worst_margin = min(worst_margin, 2 * eps - err)
        index += 1

    golden = [(name, inst, solve_delsarte(inst)) for name, inst, _ in golden_cases()]
    for name, inst, sol in golden:
        if sol.status != Status.OPTIMAL:
            continue
        for eps in epsilons:
            run_case(sol.f, inst.q, list(inst.group.elements()), eps, seed, name)
    for _, case_seed, rng in case_stream(seed, count):
        spec = random_group(rng, 12)
        f = random_positive_definite(rng, spec)
        size = rng.randint(1, spec.order)
        k = rng.sample(list(spec.elements()), size)
        run_case(f, list(spec.duals()), k, rng.choice(epsilons), case_seed, "random")
    result.count = index
    result.stats["worst_bound_margin"] = float(worst_margin)
    return result


# the campaigns behind ``verify``, each with its default case count
SUITES = {
    "posdef": (posdef_campaign, 200),
    "extension": (extension_campaign, 100),
    "net": (net_campaign, 12),
    "oracle": (oracle_campaign, 100),
    "reduction": (reduction_campaign, 50),
}


def run_campaign(suite: str, seed: int, count: int | None = None) -> CampaignResult:
    if suite not in SUITES:
        raise DelsarteError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    campaign, default_count = SUITES[suite]
    return campaign(seed, default_count if count is None else count)
