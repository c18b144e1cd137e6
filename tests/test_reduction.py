import random

import numpy as np
import pytest

from delsarte import (
    GroupMismatch,
    NotOptimal,
    Status,
    generated_subgroup,
    lift_solution,
    make_group,
    q_star,
    q_zero,
    reduce_instance,
    restrict_character,
    restriction_fibers,
    solve_delsarte,
    verify_equivalence,
)
from delsarte.campaigns import (
    random_conjugation_closed_q,
    random_fiber_union_q,
    random_group,
    random_subgroup,
)
from delsarte.groups import Subgroup, character_extensions
from delsarte.lp import DelsarteInstance

from conftest import build_instance, full_dual


def test_q_star_full_support_is_full():
    spec = make_group([4])
    g0 = generated_subgroup([spec.zero(), spec.element((2,))])
    qs = q_star(spec, g0, full_dual(spec))
    assert qs == frozenset(g0.canonical_spec.duals())


def test_q_star_trivial_support_is_empty():
    spec = make_group([4])
    g0 = generated_subgroup([spec.zero(), spec.element((2,))])
    qs = q_star(spec, g0, frozenset([spec.trivial_character()]))
    assert qs == frozenset()
    q0 = q_zero(spec, g0, frozenset([spec.trivial_character()]))
    assert q0 == frozenset([g0.canonical_spec.trivial_character()])


def test_q_sets_on_klein_group():
    spec = make_group([2, 2])
    g0 = generated_subgroup([spec.zero(), spec.element((1, 0))])
    q = frozenset([spec.dual((0, 0)), spec.dual((0, 1))])
    assert q_star(spec, g0, q) == frozenset([g0.canonical_spec.trivial_character()])
    assert q_zero(spec, g0, q) == frozenset([g0.canonical_spec.trivial_character()])


def test_q_sets_reject_characters_of_another_group():
    z4, z6 = make_group([4]), make_group([6])
    g0 = generated_subgroup([z4.zero(), z4.element((2,))])
    for q in (full_dual(z6), frozenset([z4.trivial_character(), z6.dual((2,))])):
        for call in (q_star, q_zero):
            with pytest.raises(GroupMismatch):
                call(z4, g0, q)


def test_q_star_within_q_zero():
    rng = random.Random(5)
    for _ in range(40):
        spec = random_group(rng, 16)
        g0 = random_subgroup(rng, spec)
        q = random_conjugation_closed_q(rng, spec)
        qs, q0 = q_star(spec, g0, q), q_zero(spec, g0, q)
        assert qs <= q0


def test_q_star_equals_q_zero_on_fiber_unions():
    rng = random.Random(15)
    for _ in range(20):
        spec = random_group(rng, 16)
        g0 = random_subgroup(rng, spec)
        fibers = restriction_fibers(spec, g0)
        gammas = [g for g in fibers if rng.random() < 0.5]
        q = frozenset(chi for g in gammas for chi in fibers[g])
        if not q:
            continue
        assert q_star(spec, g0, q) == q_zero(spec, g0, q) == frozenset(gammas)


def _reference_fibers(spec, g0):
    """The fiber partition built one parent character at a time."""
    fibers = {}
    for chi in spec.duals():
        fibers.setdefault(restrict_character(chi, g0), []).append(chi)
    return {gamma: tuple(chis) for gamma, chis in fibers.items()}


def _reference_q_sets(fibers, q):
    qs = frozenset(gamma for gamma, fiber in fibers.items() if q.issuperset(fiber))
    q0 = frozenset(gamma for gamma, fiber in fibers.items() if not q.isdisjoint(fiber))
    return qs, q0


def _random_subgroups(rng, count):
    """Random subgroups of parents of rank 1 to 3 and order up to 64, then
    subgroups of Z_8 x Z_512 on one or two random generators."""
    for _ in range(count):
        spec = random_group(rng, 64)
        yield spec, random_subgroup(rng, spec)
    big = make_group([8, 512])
    for _ in range(4):
        picks = [big.element((rng.randrange(8), 16 * rng.randrange(32))) for _ in range(rng.randint(1, 2))]
        yield big, Subgroup.from_generators(big, picks)


def test_restriction_index_matches_restrict_character():
    rng = random.Random(2024)
    ranks = set()
    cases = 0
    for spec, g0 in _random_subgroups(rng, 200):
        want = [restrict_character(chi, g0).index for chi in spec.duals()]
        assert g0.restriction_map.tolist() == want
        assert g0.restriction_map.dtype == np.int64
        ranks.add(spec.rank)
        cases += 1
    assert cases >= 200 and 3 in ranks


def test_q_sets_and_fibers_match_reference_fiber_dict():
    rng = random.Random(61)
    for spec, g0 in _random_subgroups(rng, 60):
        fibers = _reference_fibers(spec, g0)
        assert list(restriction_fibers(spec, g0).items()) == list(fibers.items())
        for gamma in list(fibers)[:3]:
            assert character_extensions(gamma, g0) == fibers[gamma]
        chosen = [g for g in fibers if rng.random() < 0.5]
        supports = [
            random_conjugation_closed_q(rng, spec),
            frozenset(chi for chi in spec.duals() if rng.random() < 0.7),
            frozenset(chi for g in chosen for chi in fibers[g]),
            frozenset(),
        ]
        for q in supports:
            assert (q_star(spec, g0, q), q_zero(spec, g0, q)) == _reference_q_sets(fibers, q)


def test_reduce_when_window_generates_group():
    inst = build_instance([6], [(0,), (1,)])
    rinst = reduce_instance(inst)
    assert rinst.g0.is_whole_group()
    assert rinst.reduced.group.order == 6
    a = solve_delsarte(inst)
    b = solve_delsarte(rinst.reduced)
    assert abs(a.value - b.value) <= 1e-9


def test_reduce_z4_even_window():
    inst = build_instance([4], [(0,), (2,)])
    rinst = reduce_instance(inst)
    assert rinst.g0.canonical_orders == (2,)
    assert {g.coords for g in rinst.reduced.w} == {(0,), (1,)}
    assert rinst.qstar == frozenset(rinst.g0.canonical_spec.duals())
    # both problems attain |W| = 2: the window is the subgroup itself
    rep = verify_equivalence(inst)
    assert rep.ok
    assert abs(rep.value_original - 2.0) <= 1e-9
    assert abs(rep.value_reduced - 2.0) <= 1e-9


def test_reduce_origin_window_lifts_point_mass():
    inst = build_instance([4], [(0,)])
    rinst = reduce_instance(inst)
    assert rinst.g0.order == 1
    sol_red = solve_delsarte(rinst.reduced)
    assert abs(sol_red.value - 1.0) <= 1e-12
    lifted = lift_solution(sol_red, rinst)
    assert np.allclose(lifted.f.values, [1, 0, 0, 0])
    assert lifted.residuals.is_member
    assert lifted.value == sol_red.value
    assert abs(lifted.f.total() - sol_red.f.total()) == 0.0


def test_reduce_product_group_example():
    inst = build_instance([2, 4], [(0, 0), (0, 2)])
    rinst = reduce_instance(inst)
    assert rinst.g0.order == 2
    assert rinst.qstar == frozenset(rinst.g0.canonical_spec.duals())
    sol_red = solve_delsarte(rinst.reduced)
    lifted = lift_solution(sol_red, rinst)
    assert lifted.value == sol_red.value
    assert lifted.residuals.is_member


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_lift_keeps_the_tolerance_of_the_reduced_solve(tol):
    from delsarte.iofmt import result_record

    inst = build_instance([2, 4], [(0, 0), (0, 2)])
    rinst = reduce_instance(inst)
    lifted = lift_solution(solve_delsarte(rinst.reduced, tol=tol), rinst)
    assert lifted.residuals.tol == tol
    assert result_record(inst, lifted, tolerance=tol)["residuals"]["tol"] == tol


def test_lift_requires_optimal():
    inst = build_instance([4], [(0,), (2,)], [(0,)])
    rinst = reduce_instance(inst)
    sol_red = solve_delsarte(rinst.reduced)
    assert sol_red.status == Status.INFEASIBLE
    with pytest.raises(NotOptimal):
        lift_solution(sol_red, rinst)


def test_empty_reduced_support_means_both_infeasible():
    inst = build_instance([4], [(0,), (2,)], [(0,)])
    rinst = reduce_instance(inst)
    assert rinst.qstar == frozenset()
    rep = verify_equivalence(inst)
    assert rep.original_status == Status.INFEASIBLE
    assert rep.reduced_status == Status.INFEASIBLE
    assert rep.ok


def test_equivalence_report_samples_agree(z6_interval=None):
    inst = build_instance([4], [(0,), (2,)])
    rep = verify_equivalence(inst, samples=15, seed=3)
    assert rep.membership_samples > 3  # vertices plus deliberate violations
    assert rep.membership_agreements == rep.membership_samples
    assert rep.spectrum_transfer_error <= 1e-10
    assert rep.lift_mass_error == 0.0
    assert rep.qstar_within_q0


def test_equivalence_transforms_each_sample_twice(monkeypatch):
    # one transform of the reduced sample and one of its extension serve
    # both membership checks and the transfer check
    from delsarte import fourier

    calls = []
    real_fft = fourier._fft

    def counting_fft(spec, values):
        calls.append(spec)
        return real_fft(spec, values)

    monkeypatch.setattr(fourier, "_fft", counting_fft)
    inst = build_instance([2, 4], [(0, 0), (0, 2)])
    counts = []
    for samples in (6, 12):
        calls.clear()
        rep = verify_equivalence(inst, samples=samples, seed=1)
        assert rep.ok
        counts.append((rep.membership_samples, len(calls)))
    (k0, c0), (k1, c1) = counts
    assert k1 > k0 and c1 - c0 == 2 * (k1 - k0)


def test_equivalence_on_random_fiber_union_instances():
    rng = random.Random(42)
    for _ in range(15):
        spec = random_group(rng, 16)
        h = random_subgroup(rng, spec, proper=True)
        window = {spec.zero()}
        for g in h.elements:
            if rng.random() < 0.7:
                window.add(g)
        g0 = generated_subgroup(window)
        inst = DelsarteInstance.from_sets(spec, frozenset(window), random_fiber_union_q(rng, spec, g0))
        rep = verify_equivalence(inst, samples=10, seed=rng.randrange(2**32))
        assert rep.statuses_match
        if rep.gap is not None:
            assert rep.gap <= 1e-8 * (1 + abs(rep.value_original))
        assert rep.membership_agreements == rep.membership_samples
        assert rep.ok


def test_partial_fibers_can_lose_value():
    # Q covers the annihilator fiber fully but every other fiber only in
    # part: the original problem stays feasible with positive mass while the
    # reduced support collapses to the trivial character and dies on the
    # off-window row. The membership biconditional for subgroup-supported
    # functions is untouched; only the value transfer breaks.
    spec = make_group([15])
    w = frozenset(spec.element((c,)) for c in (0, 3, 6, 9))
    q_coords = [0, 5, 10, 3, 12, 6, 9, 1, 14, 7, 8]
    inst = DelsarteInstance.from_sets(spec, w, frozenset(spec.dual((c,)) for c in q_coords))
    rinst = reduce_instance(inst)
    assert rinst.g0.order == 5
    assert {c.coords for c in rinst.qstar} == {(0,)}
    rep = verify_equivalence(inst)
    assert rep.original_status == Status.OPTIMAL
    assert rep.reduced_status == Status.INFEASIBLE
    assert rep.boundary_value_lost
    assert not rep.ok
    assert rep.value_original > 0.1
    # the strictly positive original value is confirmed independently
    from delsarte import vertex_enum_oracle

    oracle = vertex_enum_oracle(inst)
    assert oracle.status == Status.OPTIMAL
    assert abs(oracle.value - rep.value_original) <= 1e-8 * (1 + rep.value_original)


def test_reduced_feasible_implies_original_feasible():
    # lifting is unconditional: the reduced problem can never be feasible
    # while the original is not
    rng = random.Random(77)
    for _ in range(40):
        spec = random_group(rng, 16)
        h = random_subgroup(rng, spec, proper=True)
        window = {spec.zero()}
        for g in h.elements:
            if rng.random() < 0.5:
                window.add(g)
        inst = DelsarteInstance.from_sets(spec, frozenset(window), random_conjugation_closed_q(rng, spec))
        rep = verify_equivalence(inst, samples=4, seed=1)
        if rep.reduced_status == Status.OPTIMAL:
            assert rep.original_status == Status.OPTIMAL
            assert rep.gap <= 1e-8 * (1 + abs(rep.value_original))


def test_reduce_solve_lift_at_order_4096_stays_off_dense_tables():
    # a dense character table at this order is 256 MB; the lift must use
    # the FFT and never fill the reference tables
    import tracemalloc

    from delsarte import dft
    from delsarte.fourier import _char_matrix, _diff_table

    spec = make_group([8, 512])
    w = frozenset(spec.element(c) for c in ((0, 0), (0, 32), (0, 480)))
    inst = DelsarteInstance.from_sets(spec, w, full_dual(spec))
    _char_matrix.cache_clear()
    _diff_table.cache_clear()
    rinst = reduce_instance(inst)
    assert rinst.g0.order == 16
    sol = solve_delsarte(rinst.reduced)
    lifted = lift_solution(sol, rinst)
    assert lifted.status == Status.OPTIMAL and lifted.residuals.is_member
    assert lifted.value == sol.value
    assert _char_matrix.cache_info().currsize == 0
    assert _diff_table.cache_info().currsize == 0
    tracemalloc.start()
    try:
        dft(lifted.f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
