"""Reduction of an instance to the subgroup generated by its window.

Since the window contains the identity, it lies inside the subgroup G0
generated by its difference set, and the problem transfers to G0 with
support Q* (characters of G0 all of whose extensions lie in Q): trivial
extensions of reduced-admissible functions are admissible with the same
mass, so the original value is never below the reduced one, and membership
transfers both ways for functions supported in G0.

The converse value inequality needs Q to decompose into full restriction
fibers. For such Q the restriction of any admissible function has spectrum
inside Q* = Q0 and the two extremal values agree; for partial fibers the
original problem can be strictly feasible while the reduced one is empty
(``EquivalenceReport.boundary_value_lost``). ``verify_equivalence`` checks
everything numerically on a given instance and reports which regime it is
in.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import NotOptimal, OracleTooLarge
from .fourier import FunctionOnG, dft
from .groups import DualElement, GroupSpec, Subgroup, _require_same_spec, element_indices
from .groups import generated_subgroup_from_index, negation, negation_classes
from .lp import (
    DelsarteInstance,
    DelsarteSolution,
    OrbitBasis,
    Status,
    _membership,
    orbit_basis_from_index,
    solve_delsarte,
    vertex_enum_oracle,
)
from .posdef import trivial_extension

EQUIVALENCE_TOL = 1e-8  # relative value gap verify_equivalence allows between the two solves


@dataclass(frozen=True, eq=False)
class ReducedInstance:
    """An instance, the subgroup G0 generated by its window, and the instance
    moved onto G0. ``q0_index`` holds the canonical indices in G0's dual of
    Q0, the restrictions of Q's members, sorted and read-only."""

    original: DelsarteInstance
    g0: Subgroup
    q0_index: np.ndarray
    reduced: DelsarteInstance

    @property
    def qstar(self) -> frozenset[DualElement]:
        """Q*, the reduced instance's support."""
        return self.reduced.q


def restriction_fibers(
    group: GroupSpec, g0: Subgroup
) -> dict[DualElement, tuple[DualElement, ...]]:
    """Partition of the parent dual by restriction to the subgroup, read off
    ``g0.restriction_map``; every fiber has exactly [G:G0] members."""
    _require_same_spec(group, g0.parent)
    fibers: dict[int, list[DualElement]] = {}
    for chi, gamma in zip(group.duals(), g0.restriction_map.tolist()):
        fibers.setdefault(gamma, []).append(chi)
    return {g0.canonical_spec.dual_at(gamma): tuple(chis) for gamma, chis in fibers.items()}


def _fiber_supports(group: GroupSpec, g0: Subgroup, q_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The canonical indices of (Q*, Q0) in the subgroup's dual, ascending,
    for the parent characters with canonical indices ``q_index``: the
    subgroup characters whose whole fiber ([G:G0] members) lies in that
    set, and those whose fiber meets it (its restrictions)."""
    _require_same_spec(group, g0.parent)
    in_q = np.zeros(group.order, dtype=bool)
    in_q[q_index] = True
    counts = np.bincount(g0.restriction_map[in_q], minlength=g0.order)
    return np.flatnonzero(counts == g0.index_in_parent), np.flatnonzero(counts > 0)


def q_star(group: GroupSpec, g0: Subgroup, q: frozenset[DualElement]) -> frozenset[DualElement]:
    """Subgroup characters all of whose parent extensions lie in q."""
    qs = _fiber_supports(group, g0, element_indices(group, q))[0]
    return frozenset(map(g0.canonical_spec.dual_at, qs.tolist()))


def q_zero(group: GroupSpec, g0: Subgroup, q: frozenset[DualElement]) -> frozenset[DualElement]:
    """Restrictions to the subgroup of the members of q."""
    q0 = _fiber_supports(group, g0, element_indices(group, q))[1]
    return frozenset(map(g0.canonical_spec.dual_at, q0.tolist()))


def reduce_instance(inst: DelsarteInstance) -> ReducedInstance:
    """Move the instance onto the subgroup generated by the window.

    The reduced support is Q*, which may come out empty; the reduced
    instance then has no admissible functions and neither does the
    original.
    """
    g0 = generated_subgroup_from_index(inst.group, inst.w_index)
    qs, q0 = _fiber_supports(inst.group, g0, inst.q_index)
    q0.setflags(write=False)
    reduced = DelsarteInstance(g0.canonical_spec, np.sort(g0.position[inst.w_index]), qs)
    return ReducedInstance(inst, g0, q0, reduced)


def lift_solution(sol: DelsarteSolution, rinst: ReducedInstance) -> DelsarteSolution:
    """Zero-extend an optimal reduced solution back to the original group.

    The total mass is preserved exactly (the extension only adds zeros), the
    extension stays admissible for the original instance, and its orbit
    coefficients with respect to the original support are recomputed from
    the transform. Membership is checked at the tolerance of the reduced
    solve. No dual certificate is lifted; re-solve or run
    ``verify_equivalence`` if one is needed.
    """
    if sol.status != Status.OPTIMAL:
        raise NotOptimal(f"cannot lift a solution with status {sol.status.value}")
    group = rinst.original.group
    f_lift = trivial_extension(sol.f, rinst.g0, group)
    spectrum = dft(f_lift)
    residuals = _membership(f_lift, spectrum, rinst.original, sol.residuals.tol)
    basis = orbit_basis_from_index(group, rinst.original.q_index)
    coeffs = spectrum.values.real[basis.reps] / group.order
    coeffs = tuple(np.where(coeffs > 0.0, coeffs, 0.0).tolist())
    return DelsarteSolution(
        Status.OPTIMAL,
        value=sol.value,
        f=f_lift,
        fourier_coeffs=coeffs,
        basis=basis,
        dual=None,
        residuals=residuals,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of solving an instance against its subgroup reduction.

    ``boundary_value_lost`` marks the one mode where the value equality
    genuinely fails: the original problem is feasible while the reduced one
    is not. This happens only when Q contains partial restriction fibers;
    the restriction of an admissible function carries spectrum on the image
    of Q, which can exceed the co-image Q*. When Q is a union of fibers the
    equality always holds, and the converse direction (reduced feasible
    implies original feasible with the same value) holds for every Q via
    trivial extension.
    """

    original_status: Status
    reduced_status: Status
    value_original: float | None
    value_reduced: float | None
    gap: float | None
    statuses_match: bool
    boundary_value_lost: bool
    membership_samples: int
    membership_agreements: int
    spectrum_transfer_error: float
    lift_mass_error: float
    qstar_size: int
    q0_size: int
    qstar_within_q0: bool
    ok: bool


def _membership_samples(rinst: ReducedInstance, sol_red: DelsarteSolution, count: int, seed: int) -> list[FunctionOnG]:
    """Functions on the reduced group to exercise the membership transfer:
    feasible LP vertices, random mixtures of them, plus deliberate
    violations of each membership condition."""
    basis = sol_red.basis
    vertex_coeffs: list[np.ndarray] = [np.array(sol_red.fourier_coeffs)]
    try:
        oracle = vertex_enum_oracle(rinst.reduced, collect_vertices=True)
        if oracle.vertices:
            vertex_coeffs.extend(oracle.vertices)
    except OracleTooLarge:
        pass
    rng = random.Random(seed)
    samples = [basis.synthesize(a) for a in vertex_coeffs[: max(2, count // 2)]]
    while len(samples) < count - 3 and vertex_coeffs:
        weights = np.array([rng.random() for _ in vertex_coeffs])
        weights /= weights.sum()
        mix = sum(w * a for w, a in zip(weights, vertex_coeffs))
        samples.append(basis.synthesize(mix))
    base = samples[0]
    # scaled copy: breaks the normalization on both sides
    samples.append(FunctionOnG(base.spec, base.values * 1.25))
    # off-window positive value, mirrored to keep evenness
    off = rinst.reduced.off_support()
    if off:
        bad = base.values.copy()
        bad[off[0].index] = bad[(-off[0]).index] = 0.31
        samples.append(FunctionOnG(base.spec, bad))
    # spectral mass outside the reduced support, renormalized
    spec = base.spec
    outside = np.ones(spec.order, dtype=bool)
    outside[rinst.reduced.q_index] = False
    classes = negation_classes(spec, outside & outside[negation(spec)])
    if len(classes):
        bumped = base.values + 0.2 * OrbitBasis(spec, classes[:1]).columns[:, 0]
        samples.append(FunctionOnG(spec, bumped / bumped[0]))
    return samples[:count] if count < len(samples) else samples


def verify_equivalence(inst: DelsarteInstance, samples: int = 20, seed: int = 0) -> EquivalenceReport:
    """Solve the instance and its reduction, compare values and statuses
    (within ``EQUIVALENCE_TOL``, relative), and spot-check that membership
    transfers across trivial extension.

    The transfer check also confirms the transform identity
    lifted_hat(chi) = reduced_hat(chi restricted) for every parent
    character whose restriction lies in the reduced support's fibers.
    """
    rinst = reduce_instance(inst)
    sol_orig = solve_delsarte(inst)
    sol_red = solve_delsarte(rinst.reduced)
    statuses_match = sol_orig.status == sol_red.status
    boundary = (
        sol_orig.status == Status.OPTIMAL and sol_red.status == Status.INFEASIBLE
    )
    gap = None
    if sol_orig.status == Status.OPTIMAL and sol_red.status == Status.OPTIMAL:
        gap = abs(sol_orig.value - sol_red.value)

    checked = 0
    agreements = 0
    transfer_err = 0.0
    lift_mass_err = 0.0
    if sol_red.status == Status.OPTIMAL:
        lifted = lift_solution(sol_red, rinst)
        lift_mass_err = abs(lifted.f.total() - sol_red.f.total())
        for f0 in _membership_samples(rinst, sol_red, samples, seed):
            f_ext = trivial_extension(f0, rinst.g0, inst.group)
            spec_red, spec_ext = dft(f0), dft(f_ext)
            member_red = _membership(f0, spec_red, rinst.reduced).is_member
            member_orig = _membership(f_ext, spec_ext, inst).is_member
            checked += 1
            if member_red == member_orig:
                agreements += 1
            diff = spec_ext.values - spec_red.values[rinst.g0.restriction_map]
            transfer_err = max(transfer_err, float(np.max(np.hypot(diff.real, diff.imag))))

    scale = 1.0 + max(abs(sol_orig.value or 0.0), abs(sol_red.value or 0.0))
    qstar_within_q0 = bool(np.all(np.isin(rinst.reduced.q_index, rinst.q0_index)))
    ok = (
        statuses_match
        and (gap is None or gap <= EQUIVALENCE_TOL * scale)
        and agreements == checked
        and qstar_within_q0
        and lift_mass_err <= 1e-12 * scale
    )
    return EquivalenceReport(
        original_status=sol_orig.status,
        reduced_status=sol_red.status,
        value_original=sol_orig.value,
        value_reduced=sol_red.value,
        gap=gap,
        statuses_match=statuses_match,
        boundary_value_lost=boundary,
        membership_samples=checked,
        membership_agreements=agreements,
        spectrum_transfer_error=transfer_err,
        lift_mass_error=lift_mass_err,
        qstar_size=len(rinst.reduced.q_index),
        q0_size=len(rinst.q0_index),
        qstar_within_q0=qstar_within_q0,
        ok=ok,
    )
