import copy
import dataclasses
import fractions
import itertools
import math
import pathlib
import pickle
import random
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from delsarte import (
    DelsarteInstance,
    EmptyEffectiveSupport,
    FunctionOnG,
    GroupMismatch,
    InvalidInstance,
    OracleTooLarge,
    OriginNotInW,
    Status,
    build_lp,
    build_orbit_basis,
    feasibility_check,
    make_group,
    solve_delsarte,
    verify_certificate,
    vertex_enum_oracle,
)
from delsarte import lp, reduction
from delsarte.campaigns import random_group, random_instance, random_window
from delsarte.groups import coords_table, phase_numerators
from delsarte.iofmt import instance_to_dict, load_instance, parse_instance_dict
from delsarte.reduction import _membership_samples, q_star, reduce_instance, verify_equivalence
from delsarte.simplex import OPTIMAL, SimplexResult, exact_basis_check

from conftest import build_instance, full_dual

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_instances"


def test_instance_validation():
    z4 = make_group([4])
    with pytest.raises(OriginNotInW):
        DelsarteInstance.from_sets(z4, frozenset([z4.element((1,))]), full_dual(z4))
    with pytest.raises(InvalidInstance):
        DelsarteInstance.from_sets(z4, frozenset(), full_dual(z4))
    # an empty Q builds, pickles and solves to infeasible
    empty_q = DelsarteInstance.from_sets(z4, frozenset([z4.zero()]), frozenset())
    assert empty_q.q_index.tolist() == []
    assert pickle.loads(pickle.dumps(empty_q)) == empty_q
    assert solve_delsarte(empty_q).status is Status.INFEASIBLE
    z6 = make_group([6])
    with pytest.raises(GroupMismatch):
        DelsarteInstance.from_sets(z4, frozenset([z4.zero(), z6.element((1,))]), full_dual(z4))
    # the constructor takes only canonical index sets, with the same W checks
    with pytest.raises(OriginNotInW, match="W must contain the identity element"):
        DelsarteInstance(z4, [1], [0])
    with pytest.raises(InvalidInstance, match="W must be nonempty"):
        DelsarteInstance(z4, [], [0])
    for w_index in ([1, 0], [0, 0], [0, 4], [-1, 0], [[0]], [0, 1.5], [False, True], ['x'], ['']):
        with pytest.raises(ValueError, match="expected sorted, distinct canonical indices of a group of order 4"):
            DelsarteInstance(z4, w_index, [0])
    with pytest.raises(ValueError, match="expected sorted, distinct canonical indices"):
        DelsarteInstance(z4, [0], [2, 1])
    # element sets go through from_sets; given to the constructor they raise
    for w in (frozenset([z4.zero()]), [z4.zero(), z4.element((1,))]):
        with pytest.raises(TypeError):
            DelsarteInstance(z4, w, [0])
    with pytest.raises(GroupMismatch):
        DelsarteInstance.from_sets(z4, frozenset([z4.zero()]), frozenset([z6.dual((1,))]))
    assert [f.name for f in dataclasses.fields(DelsarteInstance)] == ["group", "w_index", "q_index"]
    for name in ("group", "w_index", "q_index"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(empty_q, name, np.arange(1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        del empty_q.w_index


def _assert_index_instance(inst, twin):
    """``inst`` stores canonical index arrays and behaves as the
    element-built ``twin``: the same sets, equality, hashing, pickling,
    deep copies and repr."""
    for arr, members in ((inst.w_index, inst.w), (inst.q_index, inst.q)):
        assert arr.dtype == np.int64
        assert arr.tolist() == sorted(m.index for m in members)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[:1] = 0
    assert (inst.group, inst.w, inst.q) == (twin.group, twin.w, twin.q)
    back = pickle.loads(pickle.dumps(inst))
    copied = copy.deepcopy(inst)
    for other in (twin, back, copied):
        assert other == inst and hash(other) == hash(inst)
    # frozenset order may differ between equal sets
    for x in (inst, twin, back):
        assert repr(x) == f"DelsarteInstance(group={x.group!r}, w={x.w!r}, q={x.q!r})"
    for x in (back, copied):
        assert x.w_index.tolist() == inst.w_index.tolist() and not x.w_index.flags.writeable
        assert x.q_index.tolist() == inst.q_index.tolist() and not x.q_index.flags.writeable


def test_instance_index_arrays_match_the_element_sets():
    rng = random.Random(707)
    instances = [random_instance(rng, 64) for _ in range(160)]
    for _ in range(40):
        spec = random_group(rng, 64)
        instances.append(DelsarteInstance.from_sets(spec, random_window(rng, spec), frozenset()))
    for inst in instances:
        _assert_index_instance(inst, DelsarteInstance.from_sets(inst.group, set(inst.w), list(inst.q)))
        # the parse and the reduction build their instances from indices
        parsed, _ = parse_instance_dict(instance_to_dict(inst))
        _assert_index_instance(parsed, inst)
        rinst = reduce_instance(inst)
        g0 = rinst.g0
        twin = DelsarteInstance.from_sets(g0.canonical_spec, {g0.to_canonical(g) for g in inst.w}, q_star(inst.group, g0, inst.q))
        _assert_index_instance(rinst.reduced, twin)
        assert rinst.qstar == rinst.reduced.q


def test_orbit_basis_on_z4():
    z4 = make_group([4])
    basis = build_orbit_basis(full_dual(z4))
    assert [tuple(c.coords for c in orbit) for orbit in basis.orbits] == [
        ((0,),),
        ((1,), (3,)),
        ((2,),),
    ]
    assert basis.weights == (1, 2, 1)
    assert basis.trivial_index == 0
    # column value at zero equals the weight
    assert np.allclose(basis.columns[0], basis.weights)


def test_orbit_basis_empty_effective_support():
    z4 = make_group([4])
    with pytest.raises(EmptyEffectiveSupport):
        build_orbit_basis([z4.dual((1,))])


def test_orbit_basis_on_z2():
    z2 = make_group([2])
    basis = build_orbit_basis(full_dual(z2))
    assert basis.weights == (1, 1)
    assert all(len(orbit) == 1 for orbit in basis.orbits)


def _reference_orbit_partition(q):
    """Orbit partition built one member at a time, conjugating each."""
    members = set(q)
    if not members:
        raise EmptyEffectiveSupport("support set is empty")
    q_eff = {chi for chi in members if chi.conjugate() in members}
    if not q_eff:
        raise EmptyEffectiveSupport("Q cap conj(Q) is empty")
    reps = {}
    for chi in q_eff:
        key = min(chi.index, chi.conjugate().index)
        if key not in reps or chi.index < reps[key].index:
            reps[key] = chi
    orbits, trivial_index = [], None
    for pos, key in enumerate(sorted(reps)):
        chi = reps[key]
        orbits.append((chi,) if chi.is_self_conjugate() else (chi, chi.conjugate()))
        if chi.is_trivial():
            trivial_index = pos
    return tuple(orbits), tuple(len(o) for o in orbits), trivial_index


def _reference_columns(basis):
    """One column per orbit from that orbit's own phase vector: the loop
    ``OrbitBasis.columns`` replaced, kept as its bit-for-bit reference."""
    spec = basis.spec
    lcm = spec.exponent
    lweights = np.array([lcm // n for n in spec.orders], dtype=np.int64)
    coords = coords_table(spec)
    cols = np.empty((spec.order, basis.n_orbits))
    for pos, orbit in enumerate(basis.orbits):
        y = np.array(orbit[0].coords, dtype=np.int64)
        p = (coords @ (y * lweights)) % lcm
        p = np.minimum(p, lcm - p)
        if len(orbit) == 1:
            cols[:, pos] = np.where(p == 0, 1.0, -1.0)
        else:
            cols[:, pos] = 2.0 * np.cos((2.0 * np.pi / lcm) * p)
    return cols


def test_orbit_basis_matches_reference_partition():
    rng = random.Random(404)
    specs = [make_group([2] * k) for k in range(1, 6)] + [make_group([4]), make_group([5, 3])]
    specs += [random_group(rng, 64) for _ in range(60)]
    empty = not_closed = real_nontrivial = no_trivial = 0
    for spec in specs:
        for _ in range(4):
            p = rng.choice([0.05, 0.3, 0.7, 1.0])
            q = frozenset(chi for chi in spec.duals() if rng.random() < p)
            if rng.random() < 0.5:
                q -= {spec.trivial_character()}  # a Q without the trivial character
            try:
                want = _reference_orbit_partition(q)
            except EmptyEffectiveSupport:
                empty += 1
                with pytest.raises(EmptyEffectiveSupport):
                    build_orbit_basis(q)
                continue
            basis = build_orbit_basis(q)
            assert (basis.orbits, basis.weights, basis.trivial_index) == want
            assert basis.reps.tolist() == [orbit[0].index for orbit in basis.orbits]
            not_closed += any(chi.conjugate() not in q for chi in q)
            own = {id(chi) for chi in q}
            assert all(id(chi) in own for orbit in basis.orbits for chi in orbit)
            cols, want_cols = basis.columns, _reference_columns(basis)
            assert cols.flags.c_contiguous and np.array_equal(cols, want_cols)
            a = np.array([rng.random() for _ in range(basis.n_orbits)])
            assert np.array_equal(cols @ a, want_cols @ a)
            real_nontrivial += sum(len(o) == 1 and not o[0].is_trivial() for o in basis.orbits)
            no_trivial += basis.trivial_index is None
    assert empty > 0 and not_closed > 0 and real_nontrivial > 0 and no_trivial > 0


def test_orbit_columns_are_exactly_even():
    rng = random.Random(31)
    for _ in range(20):
        spec = make_group([rng.randint(2, 8), rng.randint(1, 4)])
        basis = build_orbit_basis(spec.duals())
        for g in spec.elements():
            assert np.array_equal(basis.columns[g.index], basis.columns[(-g).index])


def test_feasibility_examples(z4_interval):
    z4 = z4_interval.group
    member = FunctionOnG(z4, [1, 0.5, 0, 0.5])
    report = feasibility_check(member, z4_interval)
    assert report.is_member

    ones = FunctionOnG.constant(z4)
    report = feasibility_check(ones, z4_interval)
    assert not report.is_member
    assert report.off_support_violation == 1.0

    bad = FunctionOnG(z4, [1, 0.9, 0, 0.9])
    report = feasibility_check(bad, z4_interval)
    assert not report.is_member
    assert not report.posdef.is_posdef


def test_build_lp_shapes(z4_interval):
    prog = build_lp(z4_interval)
    assert prog.program.n_vars == 3
    assert prog.program.n_eq == 1
    assert prog.program.n_ub == 1

    whole = build_instance([4], [(c,) for c in range(4)])
    assert build_lp(whole).program.n_ub == 0


def test_build_lp_one_row_per_class():
    # Z_512, half-width 10: 491 elements off W, 245 pairs and {256}
    n = 512
    inst = build_instance([n], [(c % n,) for c in range(-10, 11)])
    prog = build_lp(inst)
    assert prog.program.n_ub == 246
    assert [g.index for g in prog.off_support] == list(range(11, 257))
    # Z_16 x Z_16, 1x1 box: 247 elements off W, 3 of them of order 2
    box = build_instance([16, 16], [(a % 16, b % 16) for a in (-1, 0, 1) for b in (-1, 0, 1)])
    assert build_lp(box).program.n_ub == 125
    # W not symmetric: g stays when -g is in W, else the smaller index stays
    inst = build_instance([8], [(0,), (1,), (2,), (6,)])
    assert [g.index for g in build_lp(inst).off_support] == [3, 4, 7]
    # the class rows are every off-window row, each pair once
    every = [g.index for g in inst.group.elements() if g not in inst.w]
    rows = build_lp(inst).basis.columns[every]
    assert np.array_equal(np.unique(rows, axis=0), np.unique(build_lp(inst).program.a_ub, axis=0))


def test_solve_z4_interval(z4_interval):
    sol = solve_delsarte(z4_interval)
    assert sol.status == Status.OPTIMAL
    assert abs(sol.value - 2.0) <= 1e-9
    assert np.allclose(sol.f.values, [1, 0.5, 0, 0.5], atol=1e-12)
    assert sol.residuals.is_member
    assert_safe_bound(sol)


def test_solve_z6_interval(z6_interval):
    sol = solve_delsarte(z6_interval)
    assert sol.status == Status.OPTIMAL
    assert abs(sol.value - 2.0) <= 1e-9
    assert sol.residuals.is_member
    # the optimal face is not a point here; the classically stated extremal
    # function is also optimal and must match the LP value
    stated = FunctionOnG(z6_interval.group, [1, 0.5, 0, 0, 0, 0.5])
    assert feasibility_check(stated, z6_interval).is_member
    assert abs(stated.total() - sol.value) <= 1e-9


def test_solve_whole_window_gives_group_order():
    for orders in ([5], [2, 3], [2, 2]):
        inst = build_instance(orders, [c.coords for c in make_group(orders).elements()])
        sol = solve_delsarte(inst)
        assert sol.status == Status.OPTIMAL
        assert abs(sol.value - inst.group.order) <= 1e-9
        assert np.allclose(sol.f.values, 1.0, atol=1e-9)


def test_solve_origin_window():
    for n in (2, 5, 8):
        sol = solve_delsarte(build_instance([n], [(0,)]))
        assert sol.status == Status.OPTIMAL
        assert abs(sol.value - 1.0) <= 1e-9


def test_solve_trivial_support_infeasible():
    sol = solve_delsarte(build_instance([4], [(0,), (1,)], [(0,)]))
    assert sol.status == Status.INFEASIBLE
    assert sol.value is None and sol.f is None


def test_solve_asymmetric_support_infeasible():
    # Q = {chi_1} has empty symmetrized support
    sol = solve_delsarte(build_instance([4], [(0,), (1,)], [(1,)]))
    assert sol.status == Status.INFEASIBLE


def test_no_trivial_character_forces_zero_value():
    sol = solve_delsarte(build_instance([4], [(0,)], [(1,), (3,)]))
    assert sol.status == Status.OPTIMAL
    assert sol.value == 0.0
    assert sol.residuals.is_member


def test_solutions_are_exactly_even():
    rng = random.Random(19)
    for _ in range(30):
        inst = random_instance(rng, 12)
        sol = solve_delsarte(inst)
        if sol.status != Status.OPTIMAL:
            continue
        for g in inst.group.elements():
            assert sol.f.values[g.index] == sol.f.values[(-g).index]


def test_vertex_oracle_examples(z4_interval):
    res = vertex_enum_oracle(z4_interval)
    assert res.status == Status.OPTIMAL and abs(res.value - 2.0) <= 1e-9

    res = vertex_enum_oracle(build_instance([2], [(0,)]))
    assert res.status == Status.OPTIMAL and abs(res.value - 1.0) <= 1e-9

    whole = build_instance([3], [(0,), (1,), (2,)])
    res = vertex_enum_oracle(whole)
    assert res.status == Status.OPTIMAL and abs(res.value - 3.0) <= 1e-9


def test_vertex_oracle_size_guard(monkeypatch):
    nine_orbits = build_instance([16], [(0,)])
    assert build_lp(nine_orbits).program.n_vars == 9
    # the row limit counts the LP's rows, one per {g, -g} class off W, plus
    # the equality: on Z_30 29 elements off W but 15 class rows, in reach
    z30 = build_instance([30], [(0,)], [(y % 30,) for y in range(-3, 4)])
    assert build_lp(z30).program.n_vars == 4 and build_lp(z30).program.n_ub == 15
    assert solve_delsarte(z30).status == vertex_enum_oracle(z30).status == Status.INFEASIBLE
    # on Z_48, 24 class rows: one over
    z48 = build_instance([48], [(0,)], [(y % 48,) for y in range(-3, 4)])
    assert build_lp(z48).program.n_ub == 24
    no_closed_part = build_instance([4], [(0,), (1,), (3,)], [(1,)])

    # both limits, and an empty Q cap conj(Q), are settled before the LP is built
    def no_build(inst):
        raise AssertionError("build_lp called")

    monkeypatch.setattr(lp, "build_lp", no_build)
    with pytest.raises(OracleTooLarge, match=r"^9 orbits exceeds the oracle limit of 8$"):
        vertex_enum_oracle(nine_orbits)
    with pytest.raises(OracleTooLarge, match=r"^25 rows exceeds the oracle limit of 24$"):
        vertex_enum_oracle(z48)
    assert vertex_enum_oracle(no_closed_part).status == Status.INFEASIBLE


def test_vertex_oracle_collects_each_vertex_once():
    # -0.0 against 0.0 and sub-1e-10 noise once split one vertex into several
    for inst in (
        build_instance([4], [(0,), (1,)], [(0,), (1,), (3,)]),
        build_instance(
            [5, 2],
            [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (3, 1)],
            [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)],
        ),
    ):
        res = vertex_enum_oracle(inst, collect_vertices=True)
        assert res.status == Status.OPTIMAL and res.vertices
        v = np.array(res.vertices)
        assert v.min() >= 0.0
        gaps = np.abs(v[:, None, :] - v[None, :, :]).max(axis=2)
        np.fill_diagonal(gaps, np.inf)
        assert gaps.min() > 1e-9


def test_vertex_oracle_near_its_limits_on_z32():
    # 8 orbits and 18 elements off W; W is not symmetric, so only 7 of them
    # come in g / -g pairs: 11 class rows, all distinct (12 rows with the
    # equality, the count the oracle's limit reads)
    inst = _near_limit_z32()
    assert len(inst.off_support()) + 1 == 12
    prog = build_lp(inst)
    assert prog.program.n_vars == 8 and prog.program.n_ub == 11
    assert np.unique(prog.program.a_ub, axis=0).shape[0] == 11
    sol = solve_delsarte(inst)
    oracle = vertex_enum_oracle(inst)
    assert sol.status == oracle.status == Status.OPTIMAL
    assert abs(sol.value - oracle.value) <= 1e-8 * (1 + abs(sol.value))
    assert sol.value > 1.5


def _near_limit_z32():
    w = [0, 1, 6, 8, 10, 12, 13, 14, 15, 17, 19, 20, 22, 24]
    q = [0, 3, 4, 8, 10, 13, 15, 16, 17, 19, 22, 24, 28, 29]
    return build_instance([32], [(x,) for x in w], [(y,) for y in q])


def _infeasible_z32():
    # the certify-small benchmark draw that takes the oracle longest: 8
    # orbits, 18 elements off W, 14 distinct class rows, no feasible vertex
    w = [0, 1, 6, 9, 10, 15, 18, 19, 21, 22, 23, 25, 29, 30]
    q = [2, 3, 9, 11, 12, 14, 15, 16, 17, 18, 20, 21, 23, 29, 30]
    return build_instance([32], [(x,) for x in w], [(y,) for y in q])


def _edge_instances():
    one_orbit = build_instance([5], [(c,) for c in range(5)], [(0,)])
    whole_window = build_instance([3, 4], [(a, b) for a in range(3) for b in range(4)])
    three_systems = build_instance([3], [(0,)])
    assert build_lp(one_orbit).program.n_vars == 1
    assert build_lp(whole_window).program.n_ub == 0
    assert (build_lp(three_systems).program.n_vars, build_lp(three_systems).program.n_ub) == (2, 1)
    return [one_orbit, whole_window, three_systems]


def _full_system_oracle(inst):
    """Reference enumeration: the unit rows e_j join the distinct sign rows
    in one pool, and every choice of n - 1 pool rows under the equality is
    an n x n system, det-filtered, solved and tested as a whole. Returns
    the status, the value and the feasible vertices (clipped at 0)."""
    try:
        prog = build_lp(inst)
    except EmptyEffectiveSupport:
        return Status.INFEASIBLE, None, []
    n, trivial = prog.basis.n_orbits, prog.basis.trivial_index
    w, rows = prog.program.a_eq[0], prog.program.a_ub
    pool = np.vstack([rows, np.eye(n)])
    _, first = np.unique(pool, axis=0, return_index=True)
    stacked = np.vstack([w, pool[np.sort(first)]])
    norms = np.maximum(np.linalg.norm(stacked, axis=1), 1e-300)
    tol = 1e-9 * (1.0 + n)
    e1 = np.eye(n)[0]
    best, vertices = None, []
    combos = itertools.combinations(range(1, len(stacked)), n - 1)
    while chunk := list(itertools.islice(combos, 4096)):
        sys_rows = np.array([(0,) + c for c in chunk], dtype=np.intp)
        mats = stacked[sys_rows]
        mats = mats[np.abs(np.linalg.det(mats)) > 1e-10 * np.prod(norms[sys_rows], axis=1)]
        if not len(mats):
            continue
        xs = np.linalg.solve(mats, np.broadcast_to(e1[:, None], (len(mats), n, 1)))[..., 0]
        feas = np.abs(np.einsum("bij,bj->bi", mats, xs) - e1).max(axis=1) <= 1e-7
        feas &= xs.min(axis=1) >= -tol
        if len(rows):
            feas &= (xs @ rows.T).max(axis=1) <= tol
        feas &= np.abs(xs @ w - 1.0) <= tol
        for x in xs[feas]:
            value = inst.group.order * x[trivial] if trivial is not None else 0.0
            best = value if best is None else max(best, value)
            vertices.append(np.maximum(x, 0.0))
    if best is None:
        return Status.INFEASIBLE, None, []
    return Status.OPTIMAL, float(best), vertices


def _level_loop_oracle(inst):
    """Reference enumeration without the sign tests: every pair of a free
    set F (zero sets batched by size) and |F| - 1 distinct sign rows S, in
    the oracle's order, det-filtered, solved and tested exactly as the
    oracle does. Returns an OracleResult with the collected vertices."""
    try:
        prog = build_lp(inst)
    except EmptyEffectiveSupport:
        return lp.OracleResult(Status.INFEASIBLE, None)
    n, trivial = prog.basis.n_orbits, prog.basis.trivial_index
    w, rows = prog.program.a_eq[0], prog.program.a_ub
    pool = np.vstack([np.eye(n), rows])
    _, first = np.unique(pool, axis=0, return_index=True)
    stacked = np.vstack([w, pool[np.sort(first[first >= n])]])
    row_norms = np.maximum(np.linalg.norm(stacked, axis=1), 1e-300)
    n_sign = stacked.shape[0] - 1
    tol = 1e-9 * (1.0 + n)
    best, vertices, seen = None, [], set()
    for n_zero in range(n):
        f = n - n_zero
        per_free = math.comb(n_sign, f - 1)
        if not per_free:
            continue
        frees = np.array(list(itertools.combinations(range(n), f)), dtype=np.intp)
        blocks = np.ascontiguousarray(stacked[:, frees].transpose(1, 0, 2))
        n_systems = len(frees) * per_free
        sign_sets = itertools.chain.from_iterable(
            itertools.chain.from_iterable(itertools.combinations(range(1, n_sign + 1), f - 1) for _ in frees)
        )
        e1 = np.eye(f)[0]
        for start in range(0, n_systems, 4096):
            size = min(4096, n_systems - start)
            sys_rows = np.zeros((size, f), dtype=np.intp)
            sys_rows[:, 1:] = np.fromiter(sign_sets, dtype=np.intp, count=size * (f - 1)).reshape(size, f - 1)
            which = np.arange(start, start + size) // per_free
            mats = blocks[which[:, None], sys_rows]
            good = np.abs(np.linalg.det(mats)) > 1e-10 * np.prod(row_norms[sys_rows], axis=1)
            mats, which = mats[good], which[good]
            if not len(mats):
                continue
            xs = np.linalg.solve(mats, np.broadcast_to(e1[:, None], (len(mats), f, 1)))[..., 0]
            keep = (xs >= -tol).all(axis=1)
            mats, which, xs = mats[keep], which[keep], xs[keep]
            keep = np.abs(np.einsum("bij,bj->bi", mats, xs) - e1).max(axis=1) <= 1e-7
            x = np.zeros((int(np.count_nonzero(keep)), n))
            x[np.arange(len(x))[:, None], frees[which[keep]]] = xs[keep]
            feas = np.abs(x @ w - 1.0) <= tol
            if len(rows):
                feas &= (x @ rows.T).max(axis=1) <= tol
            for v in x[feas]:
                value = float(inst.group.order * v[trivial]) if trivial is not None else 0.0
                best = value if best is None else max(best, value)
                v = np.maximum(v, 0.0)
                key = (np.round(v, 10) + 0.0).tobytes()
                if key not in seen and len(vertices) < lp._MAX_ORACLE_VERTICES:
                    seen.add(key)
                    vertices.append(v)
    if best is None:
        return lp.OracleResult(Status.INFEASIBLE, None)
    return lp.OracleResult(Status.OPTIMAL, best, vertices)


def _comparison_instances():
    rng = random.Random(101)
    instances = [random_instance(rng, 12) for _ in range(60)]
    return instances + [_near_limit_z32(), *_edge_instances(), _infeasible_z32()]


def _lu_counts(monkeypatch, oracle, inst):
    """The oracle's result, the number of square systems it solves and the
    number of determinants it takes. The oracle solves every system it
    enumerates, in lp's batched LU call, and takes the determinants of
    those that pass x >= -tol. The level loop takes the determinant of
    every system first and solves through np.linalg.solve, which is not
    counted, so its systems are its determinants."""
    solves, dets = [], []
    det, kernel = np.linalg.det, lp._umath_linalg

    def counting_det(mats):
        dets.append(len(mats))
        return det(mats)

    def counting_solve(mats, b, **kwargs):
        solves.append(len(mats))
        return kernel.solve(mats, b, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "det", counting_det)
        patch.setattr(lp, "_umath_linalg", types.SimpleNamespace(solve=counting_solve))
        res = oracle(inst)
    return res, sum(solves) or sum(dets), sum(dets)


def _systems_solved(monkeypatch, oracle, inst):
    """The oracle's result and the number of square systems it enumerates:
    every system rule (a) leaves (the level loop has no rule (a))."""
    res, systems, _ = _lu_counts(monkeypatch, oracle, inst)
    return res, systems


def _same_result(res, ref):
    assert (res.status, res.value) == (ref.status, ref.value)
    assert [v.tobytes() for v in res.vertices or []] == [v.tobytes() for v in ref.vertices or []]


def test_vertex_oracle_matches_the_full_system_enumeration():
    n_optimal = 0
    for inst in _comparison_instances():
        res = vertex_enum_oracle(inst, collect_vertices=True)
        status, value, ref_vertices = _full_system_oracle(inst)
        assert res.status == status
        if status != Status.OPTIMAL:
            continue
        n_optimal += 1
        assert abs(res.value - value) <= 1e-12 * (1 + abs(value))
        got, ref = np.array(res.vertices), np.array(ref_vertices)
        assert len(got) < lp._MAX_ORACLE_VERTICES
        gaps = np.abs(got[:, None, :] - ref[None, :, :]).max(axis=2)
        assert gaps.min(axis=1).max() <= 1e-10 and gaps.min(axis=0).max() <= 1e-10
    assert n_optimal >= 20 and _full_system_oracle(_infeasible_z32())[0] == Status.INFEASIBLE


def test_vertex_oracle_is_chunk_invariant(monkeypatch):
    rng = random.Random(2024)
    instances = [random_instance(rng, 12) for _ in range(30)] + _edge_instances()

    def run_all():
        return [vertex_enum_oracle(inst, collect_vertices=True) for inst in instances]

    default = run_all()
    assert sum(r.status == Status.OPTIMAL for r in default) >= 10
    # the near-limit instance solves 44 264 systems: chunks of the default
    # 1024, of 1000 and of 4096 end at different systems
    near = vertex_enum_oracle(_near_limit_z32(), collect_vertices=True)
    assert lp._ORACLE_CHUNK == 1024 and near.status == Status.OPTIMAL
    for chunk in (1, 5, 4096):
        monkeypatch.setattr(lp, "_ORACLE_CHUNK", chunk)
        for ref, res in zip(default, run_all()):
            _same_result(res, ref)
    for chunk in (1000, 4096):
        monkeypatch.setattr(lp, "_ORACLE_CHUNK", chunk)
        _same_result(vertex_enum_oracle(_near_limit_z32(), collect_vertices=True), near)
    assert default[-3].value == 5.0 and default[-2].value == 12.0


def test_pruned_oracle_matches_the_level_loop(monkeypatch):
    # the sign tests only skip systems that cannot pass: status, value and
    # the collected vertices in their order are the level loop's, bit for bit
    rng = random.Random(2026)
    instances = _comparison_instances() + [random_instance(rng, 12) for _ in range(150)]
    solved = reference = n_optimal = 0
    for inst in instances:
        res, count = _systems_solved(monkeypatch, lambda i: vertex_enum_oracle(i, collect_vertices=True), inst)
        ref, ref_count = _systems_solved(monkeypatch, _level_loop_oracle, inst)
        _same_result(res, ref)
        assert count <= ref_count
        solved, reference = solved + count, reference + ref_count
        n_optimal += res.status == Status.OPTIMAL
    assert n_optimal >= 60 and solved < 0.9 * reference


@pytest.mark.parametrize(
    "inst, systems",
    [
        # rule (a): Z_4, Q cap conj(Q) = {0, 2}, one class {1, 3} off W with
        # row (1, -1); of the 3 systems (F = {0, 1} with that row, F = {0}
        # and F = {1} alone), F = {0} goes: the row is 1 there, so x = (1, 0)
        # breaks A x <= 0
        (build_instance([4], [(0,), (2,)], [(0,), (1,), (2,)]), (3, 2)),
        # Z_6, orbits {2, 4} and {3}, one class {1, 5} off W with row
        # (-1, -1): no free set goes, and with rule (b) gone (it dropped that
        # row on F = {0, 1}, where it is negative throughout) all 3 are solved
        (build_instance([6], [(0,), (2,), (3,), (4,)], [(2,), (3,), (4,)]), (3, 3)),
    ],
)
def test_oracle_sign_rules_skip_systems(monkeypatch, inst, systems):
    res, count = _systems_solved(monkeypatch, lambda i: vertex_enum_oracle(i, collect_vertices=True), inst)
    ref, ref_count = _systems_solved(monkeypatch, _level_loop_oracle, inst)
    assert (ref_count, count) == systems
    assert res.status == Status.OPTIMAL and len(res.vertices) == 2
    _same_result(res, ref)


def _oracle_margin(prog):
    """The margin delta of the oracle's sign rule, computed as it does."""
    n, w, rows = prog.basis.n_orbits, prog.program.a_eq[0], prog.program.a_ub
    tol = 1e-9 * (1.0 + n)
    t = max(tol, lp._ORACLE_RESIDUAL)
    return 2.0 * float(w.max()) * (t + float(np.abs(rows).max(initial=0.0)) * n * tol) / (1.0 - t)


def test_gordan_pair_settles_an_empty_instance(monkeypatch):
    # Z_6, Q cap conj(Q) = {0, 2, 3, 4}: orbits {0}, {2, 4}, {3}; W = {0}
    # leaves the classes {1, 5}, {2, 4} and {3}, rows (1, -1, -1),
    # (1, -1, 1) and (1, 2, -1). The last two admit lam in
    # [(1 + delta) / 2, (2 - delta) / 3]; the midpoint 7/12 gives
    # y = (1, 1/4, 1/6) > 0, so no x >= 0 with w.x = 1 has A x <= 0. The
    # level loop solves 15 systems, the sign rule alone would leave 6
    inst = build_instance([6], [(0,)], [(0,), (2,), (3,), (4,)])
    prog = build_lp(inst)
    assert (prog.program.n_vars, prog.program.n_ub) == (3, 3)
    assert np.allclose(prog.program.a_ub, [[1, -1, -1], [1, -1, 1], [1, 2, -1]], rtol=0, atol=1e-15)
    res, count = _systems_solved(monkeypatch, lambda i: vertex_enum_oracle(i, collect_vertices=True), inst)
    ref, ref_count = _systems_solved(monkeypatch, _level_loop_oracle, inst)
    assert (ref_count, count) == (15, 0)
    assert res.status == ref.status == Status.INFEASIBLE
    _same_result(res, ref)
    row_a, row_b, lam = res.certificate
    assert (row_a, row_b) == (1, 2) and abs(lam - 7 / 12) < 1e-6
    assert solve_delsarte(inst).status == Status.INFEASIBLE


def test_gordan_pair_near_miss_still_enumerates(monkeypatch):
    # Z_4, W = {0}, Q = {0, 1, 3}: rows (1, 2 cos(pi/2)) and (1, -2) for the
    # classes {1, 3} and {2}. In floats 2 cos(pi/2) = 1.2e-16 > 0, so the
    # first row alone (lam = 1) is positive everywhere, but at its second
    # coordinate it falls short of delta; the LP is feasible (x = (0, 1/2)
    # meets the first row with equality in exact arithmetic), and the
    # oracle must find that by enumeration
    inst = build_instance([4], [(0,)], [(0,), (1,), (3,)])
    prog = build_lp(inst)
    rows, delta = prog.program.a_ub, _oracle_margin(prog)
    assert rows.shape == (2, 2) and rows[0, 0] == rows[1, 0] == 1.0 and rows[1, 1] == -2.0
    assert 0.0 < rows[0, 1] < 1e-15 < delta
    res, count = _systems_solved(monkeypatch, lambda i: vertex_enum_oracle(i, collect_vertices=True), inst)
    ref, ref_count = _systems_solved(monkeypatch, _level_loop_oracle, inst)
    assert res.certificate is None and count > 0
    assert res.status == Status.OPTIMAL
    _same_result(res, ref)


def test_gordan_certificates_hold_in_exact_arithmetic():
    # every certificate the oracle returns, re-checked in Fraction: lam in
    # [0, 1] and lam a + (1 - lam) b >= delta at every coordinate of the
    # LP rows a and b, as floats read exactly
    rng = random.Random(2027)
    n_certified = 0
    for inst in _comparison_instances() + [random_instance(rng, 12) for _ in range(150)]:
        res = vertex_enum_oracle(inst)
        if res.certificate is None:
            continue
        n_certified += 1
        assert res.status == Status.INFEASIBLE
        prog = build_lp(inst)
        row_a, row_b, lam = res.certificate
        rows = prog.program.a_ub
        assert row_a != row_b and not np.array_equal(rows[row_a], rows[row_b])
        lam, delta = fractions.Fraction(lam), fractions.Fraction(_oracle_margin(prog))
        assert 0 <= lam <= 1
        for a, b in zip(rows[row_a].tolist(), rows[row_b].tolist()):
            assert lam * fractions.Fraction(a) + (1 - lam) * fractions.Fraction(b) >= delta
    assert n_certified >= 15


def test_oracle_takes_the_solved_program(monkeypatch):
    # solve --oracle and the oracle campaign build the LP once; the audit
    # keeps its own build
    inst = _near_limit_z32()
    sol, prog = lp.solve_with_program(inst)
    assert sol.status == Status.OPTIMAL and prog.program.n_vars == 8

    def no_build(inst):
        raise AssertionError("build_lp called")

    monkeypatch.setattr(lp, "build_lp", no_build)
    check = lp.oracle_check(sol, inst, prog)
    assert check["ran"] and check["ok"]
    assert check["value"] == vertex_enum_oracle(inst, prog=prog).value
    with pytest.raises(AssertionError, match="build_lp called"):
        verify_certificate(sol, inst)
    monkeypatch.undo()
    assert check == lp.oracle_check(sol, inst, build_lp(inst))
    # an empty Q cap conj(Q) builds no LP; the oracle settles it alone
    empty = build_instance([4], [(0,), (1,), (3,)], [(1,)])
    sol, prog = lp.solve_with_program(empty)
    assert sol.status == Status.INFEASIBLE and prog is None
    assert lp.oracle_check(sol, empty, prog) == {
        "ran": True, "status": "infeasible", "value": None, "gap": None, "ok": True
    }


@pytest.mark.parametrize("name", ["z4_interval", "z2x4_subgroup_window", "z6_interval"])
def test_equivalence_samples_keep_the_vertex_order(monkeypatch, name):
    # the membership samples mix the oracle's vertices in the order it
    # collects them, so the pruned oracle must give the level loop's samples
    inst, _ = load_instance(f"{SAMPLES}/{name}.json")
    rinst = reduce_instance(inst)
    sol, prog = lp.solve_with_program(rinst.reduced)
    report = verify_equivalence(inst)
    samples = _membership_samples(rinst, sol, prog, 20, 0)
    monkeypatch.setattr(reduction, "vertex_enum_oracle", lambda i, collect_vertices, prog: _level_loop_oracle(i))
    assert verify_equivalence(inst) == report
    ref = _membership_samples(rinst, sol, prog, 20, 0)
    assert [f.values.tobytes() for f in samples] == [f.values.tobytes() for f in ref]
    assert report.ok and report.membership_samples == report.membership_agreements >= 18


def test_vertex_oracle_memory_stays_bounded(monkeypatch):
    # 8 orbits and k distinct class rows: one system per zero set Z and set
    # of 7 - |Z| class rows, of size 8 - |Z|, sum_z C(8, z) C(k, 7 - z) in
    # all before the sign test. Near the limit (k = 11): 50 388 systems, from
    # 330 of size 8 to 8 of size 1, 44 264 of them solved, 10 395 of those
    # with x >= -tol and so a determinant. Infeasible (k = 14): 170 544
    # systems, 145 119 solved, 15 679 determinants. At the row limit
    # (k = 23, every one of the 23 elements off W its own class, on Z_2^5):
    # 2 629 575 systems, 1 359 116 solved, 245 157 of them of size 8, and
    # 244 089 determinants.
    for inst, k, n_systems, n_solved, n_dets, status in (
        (_near_limit_z32(), 11, 50388, 44264, 10395, Status.OPTIMAL),
        (_infeasible_z32(), 14, 170544, 145119, 15679, Status.INFEASIBLE),
        (_row_limit_z2_5(), 23, 2629575, 1359116, 244089, Status.INFEASIBLE),
    ):
        prog = build_lp(inst)
        assert prog.program.n_vars == 8 and np.unique(prog.program.a_ub, axis=0).shape[0] == k
        assert sum(math.comb(8, z) * math.comb(k, 7 - z) for z in range(8)) == n_systems
        tracemalloc.start()
        try:
            res, solved, dets = _lu_counts(monkeypatch, vertex_enum_oracle, inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == status and (solved, dets) == (n_solved, n_dets)
        assert status == Status.INFEASIBLE or res.value > 1.5
        assert peak < 16 * 2**20


def _row_limit_z2_5():
    # 8 real characters spanning the dual of Z_2^5 and 23 elements off W
    # in classes of one (24 rows with the equality, the oracle's limit): 23
    # distinct +-1 rows
    w = [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 0, 1, 1, 0), (0, 0, 1, 1, 1),
         (0, 1, 1, 0, 1), (1, 1, 0, 0, 0), (1, 1, 0, 0, 1), (1, 1, 0, 1, 1)]
    q = [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 1, 1, 1, 1), (1, 0, 0, 0, 0),
         (1, 0, 1, 0, 0), (1, 0, 1, 0, 1), (1, 1, 0, 1, 0)]
    inst = build_instance([2] * 5, w, q)
    assert len(inst.off_support()) + 1 == lp._MAX_ORACLE_ROWS
    return inst


def test_batched_solve_returns_nan_for_a_singular_system():
    # the oracle solves each chunk with the kernel np.linalg.solve wraps:
    # an exactly singular matrix (zero pivot in the LU) gives a NaN row and
    # no error, and every other row is np.linalg.solve's on its matrix
    # alone, bit for bit, whatever batch it came in
    regular = np.array([[0.1, 0.7], [0.3, -1.9]])
    mats = np.array([[[1.0, 2.0], [2.0, 4.0]], regular])
    b = np.eye(2)[:, :1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            xs = lp._umath_linalg.solve(mats, b, signature="dd->d")
    assert xs.shape == (2, 2, 1) and np.isnan(xs[0]).all()
    assert xs[1].tobytes() == np.linalg.solve(regular, b).tobytes()


def test_oracle_passes_singular_systems_through_its_tests(monkeypatch):
    # the chunks of both instances hold exactly singular systems; they come
    # back as NaN rows, fail x >= -tol, and the results are the level
    # loop's, which drops them by their determinant first
    kernel, nan_rows = lp._umath_linalg, []

    def solve(mats, b, **kwargs):
        xs = kernel.solve(mats, b, **kwargs)
        nan_rows.append(int(np.isnan(xs).any(axis=(1, 2)).sum()))
        return xs

    monkeypatch.setattr(lp, "_umath_linalg", types.SimpleNamespace(solve=solve))
    for inst in (_infeasible_z32(), _row_limit_z2_5()):
        nan_rows.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = vertex_enum_oracle(inst, collect_vertices=True)
        assert sum(nan_rows) > 0
        _same_result(res, _level_loop_oracle(inst))


def test_oracle_matches_solver_on_random_instances():
    rng = random.Random(101)
    for _ in range(60):
        inst = random_instance(rng, 12)
        sol = solve_delsarte(inst)
        oracle = vertex_enum_oracle(inst)
        assert sol.status == oracle.status
        if sol.status == Status.OPTIMAL:
            assert abs(sol.value - oracle.value) <= 1e-8 * (1 + abs(sol.value))


def test_certificate_examples(z4_interval):
    sol = solve_delsarte(z4_interval)
    report = verify_certificate(sol, z4_interval)
    assert report.ok
    # the audit recomputes the solver's safe bound, and its gap is U - value
    assert report.upper_bound == sol.dual.certified_upper_bound
    assert report.gap == report.upper_bound - sol.value
    assert abs(report.gap) <= 1e-7 * (1 + sol.value)
    assert report.primal_violation == 0.0 and report.multiplier_negativity == 0.0

    whole = build_instance([4], [(c,) for c in range(4)])
    sol_whole = solve_delsarte(whole)
    assert sol_whole.dual.multipliers == ()
    assert verify_certificate(sol_whole, whole).ok


def test_certificate_flags_inflated_value(z4_interval):
    sol = solve_delsarte(z4_interval)
    inflated = dataclasses.replace(sol, value=sol.value + 0.1)
    report = verify_certificate(inflated, z4_interval)
    assert not report.ok
    assert report.gap < -0.05


def _tampered(sol, coeffs=None, y0=None, multipliers=None):
    dual = sol.dual
    dual = dataclasses.replace(
        dual,
        normalization_multiplier=dual.normalization_multiplier if y0 is None else y0,
        multipliers=dual.multipliers if multipliers is None else multipliers,
    )
    return dataclasses.replace(sol, fourier_coeffs=sol.fourier_coeffs if coeffs is None else coeffs, dual=dual)


def test_certificate_rejects_each_tampering(z4_interval):
    # Z_4, W = {0, +-1}: orbits {0}, {1, 3}, {2} with weights 1, 2, 1; one
    # sign row f(2) = x0 - 2 x1 + x2 <= 0; the optimum x = (1/2, 1/4, 0)
    # has value 2, and both x0 and x1 are basic
    sol = solve_delsarte(z4_interval)
    assert sol.fourier_coeffs == pytest.approx((0.5, 0.25, 0.0), abs=1e-12)
    assert verify_certificate(sol, z4_interval).ok
    # a lower y0 claims a smaller bound; U rises instead, as both basic
    # orbits' reduced costs turn positive
    report = verify_certificate(_tampered(sol, y0=sol.dual.normalization_multiplier - 0.25), z4_interval)
    assert not report.ok and report.gap > 0.2
    report = verify_certificate(_tampered(sol, multipliers=(-0.5,)), z4_interval)
    assert not report.ok and report.multiplier_negativity == 0.5
    with pytest.raises(InvalidInstance, match="certificate rows"):
        verify_certificate(_tampered(sol, multipliers=()), z4_interval)
    # one orbit coefficient dropped or added
    for coeffs in (sol.fourier_coeffs[:-1], sol.fourier_coeffs + (0.0,)):
        with pytest.raises(InvalidInstance, match="orbit coefficients"):
            verify_certificate(_tampered(sol, coeffs=coeffs), z4_interval)
    # same value and normalization, but f(2) = 1 > 0
    report = verify_certificate(_tampered(sol, coeffs=(0.5, 0.0, 0.5)), z4_interval)
    assert not report.ok and report.primal_violation == pytest.approx(1.0)
    assert abs(report.gap) <= 1e-7 * (1 + sol.value)
    # a feasible point (f(2) = 0) of mass 1, recorded next to the value 2
    report = verify_certificate(_tampered(sol, coeffs=(0.25, 0.25, 0.25)), z4_interval)
    assert not report.ok and report.primal_violation == pytest.approx(1.0 / 3.0)
    assert abs(report.gap) <= 1e-7 * (1 + sol.value)
    # NaN proves nothing, in the point or in the multipliers
    assert not verify_certificate(_tampered(sol, coeffs=(0.5, 0.25, float("nan"))), z4_interval).ok
    assert not verify_certificate(_tampered(sol, multipliers=(float("nan"),)), z4_interval).ok


def test_certificate_audit_is_the_solver_rule():
    # on random draws the audit of the recorded certificate agrees with the
    # solver's verdict and recomputes its bound bit for bit; the carried
    # bound is not read, so a bare y0 in its place changes nothing
    rng = random.Random(1301)
    audited = 0
    for _ in range(200):
        inst = random_instance(rng, 64)
        sol = solve_delsarte(inst)
        if sol.dual is None:
            assert sol.status is not Status.OPTIMAL
            continue
        audited += 1
        claimed = dataclasses.replace(sol, status=Status.OPTIMAL)
        report = verify_certificate(claimed, inst)
        assert report.ok == (sol.status is Status.OPTIMAL)
        assert report.upper_bound == sol.dual.certified_upper_bound
        bare = dataclasses.replace(sol.dual, certified_upper_bound=sol.dual.normalization_multiplier)
        assert verify_certificate(dataclasses.replace(claimed, dual=bare), inst) == report
    assert audited >= 100


def test_values_respect_bounds():
    rng = random.Random(57)
    for _ in range(50):
        inst = random_instance(rng, 12)
        sol = solve_delsarte(inst)
        if sol.status == Status.OPTIMAL:
            assert -1e-9 <= sol.value <= len(inst.w) + 1e-9 * (1 + len(inst.w))
            assert abs(sol.f.total() - sol.value) <= 1e-9 * (1 + abs(sol.value))


def test_monotonicity_in_window_and_support():
    rng = random.Random(71)
    for _ in range(40):
        inst = random_instance(rng, 12)
        spec = inst.group
        # enlarge W by one element and Q by one conjugation orbit
        extra_w = [g for g in spec.elements() if g not in inst.w]
        w_big = inst.w | {rng.choice(extra_w)} if extra_w else inst.w
        extra_q = [c for c in spec.duals() if c not in inst.q]
        if extra_q:
            chi = rng.choice(extra_q)
            q_big = inst.q | {chi, chi.conjugate()}
        else:
            q_big = inst.q
        small = solve_delsarte(inst)
        big = solve_delsarte(DelsarteInstance.from_sets(spec, w_big, q_big))
        if small.status == Status.OPTIMAL and big.status == Status.OPTIMAL:
            assert small.value <= big.value + 1e-9


def test_fourier_coeffs_are_nonnegative_and_match_f(z4_interval):
    sol = solve_delsarte(z4_interval)
    assert all(c >= 0 for c in sol.fourier_coeffs)
    rebuilt = sol.basis.synthesize(sol.fourier_coeffs)
    assert np.allclose(rebuilt.values, sol.f.values)


def test_trivial_group_instance():
    sol = solve_delsarte(build_instance([1], [(0,)]))
    assert sol.status == Status.OPTIMAL
    assert abs(sol.value - 1.0) <= 1e-12
    assert np.allclose(sol.f.values, [1.0])


def test_medium_group_interval():
    # desk-scale sanity; the safe bound holds at every group order
    n = 60
    inst = build_instance([n], [(-1,), (0,), (1,)])
    sol = solve_delsarte(inst)
    assert sol.status == Status.OPTIMAL
    assert sol.residuals.is_member
    assert_safe_bound(sol)
    assert 0 <= sol.value <= 3 + 1e-9

    big = build_instance([9, 10], [(0, 0), (0, 1), (0, 9)])
    sol_big = solve_delsarte(big)
    assert sol_big.status == Status.OPTIMAL
    assert_safe_bound(sol_big)
    assert sol_big.residuals.is_member


def assert_safe_bound(sol):
    """The certificate's safe bound lies in [value, value + 1e-9 * (1 + |value|)]."""
    assert 0.0 <= sol.dual.certified_upper_bound - sol.value <= 1e-9 * (1.0 + abs(sol.value))


def test_safe_bound_window_on_random_instances_and_large_intervals():
    rng = random.Random(1201)
    optimal = 0
    for _ in range(200):
        inst = random_instance(rng, 64)
        sol = solve_delsarte(inst)
        assert sol.status != Status.NUMERICAL_FAILURE
        if sol.status == Status.OPTIMAL:
            optimal += 1
            assert_safe_bound(sol)
    assert optimal >= 100
    for n, half_width in ((96, 3), (512, 10)):
        inst = build_instance([n], [(c % n,) for c in range(-half_width, half_width + 1)])
        sol = solve_delsarte(inst)
        assert sol.status == Status.OPTIMAL
        assert_safe_bound(sol)


def test_safe_bound_holds_for_any_multipliers():
    # weak duality needs no dual feasibility: perturbed, zeroed or inflated
    # multipliers loosen the bound but never put it below the optimum
    rng = random.Random(1202)
    np_rng = np.random.default_rng(1202)
    checked = 0
    while checked < 60:
        inst = random_instance(rng, 24)
        sol = solve_delsarte(inst)
        if sol.status != Status.OPTIMAL:
            continue
        checked += 1
        prog = build_lp(inst)
        y = np.array(sol.dual.multipliers)
        y0 = sol.dual.normalization_multiplier
        for y0_try, y_try in (
            (y0, y * np_rng.uniform(0.5, 1.5, y.shape)),
            (y0 - 0.25, np.zeros_like(y)),
            (0.0, np_rng.uniform(0.0, 3.0, y.shape)),
        ):
            assert lp.safe_upper_bound(prog, y0_try, y_try) >= sol.value - 1e-12 * (1.0 + sol.value)
    prog = build_lp(build_instance([4], [(3,), (0,), (1,)]))
    assert lp.safe_upper_bound(prog, float("nan"), np.zeros(1)) == float("inf")
    assert lp.safe_upper_bound(prog, 2.0, np.array([float("inf")])) == float("inf")


def test_safe_bound_cosine_allowance():
    # every float column entry lies within the allowance of its exact value
    # w * cos(2 pi p / L), p the integer phase (self-conjugate orbits are exact)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    for orders in ([7], [12], [60], [64], [96], [512], [4, 6], [8, 8], [2, 2, 4]):
        spec = make_group(orders)
        basis = build_orbit_basis(full_dual(spec))
        coords = coords_table(spec)
        phases = phase_numerators(spec, coords, coords[basis.reps])
        weights = np.broadcast_to(np.array(basis.weights), phases.shape)
        cases = np.unique(np.stack([phases.ravel(), weights.ravel(), basis.columns.ravel()]), axis=1)
        for p, w, value in cases.T.tolist():
            exact = w * mpmath.cos(2 * mpmath.pi * int(p) / spec.exponent)
            assert abs(mpmath.mpf(value) - exact) <= (lp._COS_ALLOWANCE if w == 2 else 0.0)


def _z2_vertex_solve(program):
    # max 2 x0, x0 + x1 = 1, x0 - x1 <= 0: the vertex (0, 1) with x1 and the
    # slack basic is primal feasible (value 0) but its duals price x0 at -2
    return SimplexResult(
        OPTIMAL, x=np.array([0.0, 1.0]), value=0.0,
        duals_eq=np.array([0.0]), duals_ub=np.array([0.0]), basis=(1, 2),
    )


def test_safe_bound_demotes_a_dual_infeasible_vertex(monkeypatch):
    # the LP of Z_2 with W = {0}, Q = whole dual has the constraint matrix of
    # test_exact_basis_check_flags_infeasible_duals, and the same vertex
    inst = build_instance([2], [(0,)])
    prog = build_lp(inst).program
    assert prog.c.tolist() == [2.0, 0.0] and prog.a_eq.tolist() == [[1.0, 1.0]] and prog.a_ub.tolist() == [[1.0, -1.0]]
    assert not exact_basis_check(prog, _z2_vertex_solve(prog)).consistent
    assert solve_delsarte(inst).status == Status.OPTIMAL
    monkeypatch.setattr(lp, "simplex_solve", _z2_vertex_solve)
    sol = solve_delsarte(inst)
    assert sol.status == Status.NUMERICAL_FAILURE
    assert sol.value == 0.0 and sol.dual.certified_upper_bound >= 2.0


def test_primal_check_demotes_a_dual_feasible_infeasible_vertex(monkeypatch):
    # on the same LP, x = (1, 0) with basis (x0, slack) prices every column
    # at a reduced cost <= 0, so U = y0 = 2 = value; but x0 - x1 = 1 > 0
    # breaks the sign row, and the true optimum is 1
    def solve(program):
        return SimplexResult(
            OPTIMAL, x=np.array([1.0, 0.0]), value=2.0,
            duals_eq=np.array([2.0]), duals_ub=np.array([0.0]), basis=(0, 2),
        )

    inst = build_instance([2], [(0,)])
    assert abs(solve_delsarte(inst).value - 1.0) <= 1e-12
    monkeypatch.setattr(lp, "simplex_solve", solve)
    sol = solve_delsarte(inst)
    assert sol.dual.certified_upper_bound == pytest.approx(2.0, abs=1e-12)
    assert sol.status == Status.NUMERICAL_FAILURE


def test_iteration_cap_is_a_numerical_failure(monkeypatch, z4_interval):
    monkeypatch.setattr(lp, "simplex_solve", lambda program: SimplexResult("numerical_failure", iterations=7))
    sol = solve_delsarte(z4_interval)
    assert sol.status == Status.NUMERICAL_FAILURE
    assert sol.iterations == 7 and sol.value is None and sol.dual is None


def test_vertex_oracle_without_a_conjugation_closed_part():
    # Q = {chi} with chi != conj(chi): Q cap conj(Q) is empty
    inst = build_instance([4], [(0,), (1,), (3,)], [(1,)])
    assert vertex_enum_oracle(inst).status == Status.INFEASIBLE


def test_safe_bound_demotes_a_raised_value(monkeypatch, z4_interval):
    real = lp.simplex_solve

    def raised(program):
        res = real(program)
        x = res.x.copy()
        x[0] += 0.5 / z4_interval.group.order  # orbit 0 is the trivial character
        return dataclasses.replace(res, x=x, value=res.value + 0.5)

    monkeypatch.setattr(lp, "simplex_solve", raised)
    sol = solve_delsarte(z4_interval)
    assert sol.status == Status.NUMERICAL_FAILURE
    assert abs(sol.value - 2.5) <= 1e-12
    assert abs(sol.dual.certified_upper_bound - 2.0) <= 1e-9
