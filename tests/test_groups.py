import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from delsarte import (
    EmptySetError,
    FunctionOnG,
    GroupMismatch,
    InvalidSpec,
    SnfOverflow,
    char_eval,
    char_phase,
    character_extensions,
    difference_set,
    generated_subgroup,
    make_group,
    restrict_character,
    restrict_function,
    smith_normal_form,
    trivial_extension,
    whole_group,
)
from delsarte.groups import (
    DualElement,
    GroupElement,
    GroupSpec,
    Subgroup,
    character_table,
    coords_table,
    element_indices,
    negation,
    negation_classes,
    phase_numerators,
)


def test_make_group_sizes():
    assert make_group([2]).order == 2
    assert make_group([2, 4]).order == 8
    assert make_group([1]).order == 1


def test_make_group_rejects_bad_orders():
    with pytest.raises(InvalidSpec):
        make_group([0])
    with pytest.raises(InvalidSpec):
        make_group([3, -2])
    with pytest.raises(InvalidSpec):
        make_group([])


def test_enumeration_order_is_mixed_radix():
    spec = make_group([2, 3])
    coords = [g.coords for g in spec.elements()]
    assert coords == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, g in enumerate(spec.elements()):
        assert g.index == i
        assert spec.element_at(i) == g


def test_element_arithmetic():
    z4 = make_group([4])
    assert (z4.element((3,)) + z4.element((2,))).coords == (1,)
    z23 = make_group([2, 3])
    assert (-z23.element((1, 2))).coords == (1, 1)
    g = z23.element((1, 2))
    assert g + z23.zero() == g
    assert (g - g).is_zero()


def test_elements_and_characters_share_arithmetic_but_not_identity():
    z6 = make_group([6])
    g, chi = z6.element((2,)), z6.dual((2,))
    assert g != chi and g.index == chi.index == 2
    for a in (g, chi):
        for b in (a + a, -a, a - a):
            assert type(b) is type(a)
    assert (g + g).coords == (4,) and (-g).coords == (4,) and (g - g).is_zero()
    assert chi.conjugate() == -chi == z6.dual((4,)) and (chi - chi).is_trivial()


def test_arithmetic_rejects_mismatched_specs():
    a = make_group([4]).element((1,))
    b = make_group([5]).element((1,))
    with pytest.raises(GroupMismatch):
        a + b


def test_char_eval_quarter_turn():
    z4 = make_group([4])
    val = char_eval(z4.dual((1,)), z4.element((1,)))
    assert abs(val - 1j) < 1e-15


def test_char_eval_at_zero_is_one():
    z12 = make_group([3, 4])
    for chi in z12.duals():
        assert abs(chi(z12.zero()) - 1.0) < 1e-15


def test_char_eval_product_group():
    # exp(2 pi i (1/2 + 2/3)) = exp(pi i / 3)
    spec = make_group([2, 3])
    val = char_eval(spec.dual((1, 1)), spec.element((1, 2)))
    assert abs(val - complex(0.5, math.sqrt(3) / 2)) < 1e-15


def test_char_phase_is_exact():
    spec = make_group([2, 3])
    assert char_phase(spec.dual((1, 1)), spec.element((1, 2))) == Fraction(1, 6)


def test_char_eval_is_homomorphism():
    rng = random.Random(5)
    for _ in range(500):
        orders = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
        spec = make_group(orders)
        if spec.order > 64:
            continue
        y = spec.dual_at(rng.randrange(spec.order))
        a = spec.element_at(rng.randrange(spec.order))
        b = spec.element_at(rng.randrange(spec.order))
        assert abs(char_eval(y, a + b) - char_eval(y, a) * char_eval(y, b)) < 1e-12
        assert abs(abs(char_eval(y, a)) - 1.0) < 1e-12


def test_char_eval_homomorphism_exhaustive_small_groups():
    for orders in ([2], [3], [2, 2], [4], [6], [2, 4], [2, 2, 2], [9], [12]):
        spec = make_group(orders)
        for y in spec.duals():
            for a in spec.elements():
                for b in spec.elements():
                    lhs = char_eval(y, a + b)
                    rhs = char_eval(y, a) * char_eval(y, b)
                    assert abs(lhs - rhs) < 1e-12


def test_phase_numerators_match_char_phase():
    """Every (chi, g) of 60 random groups of rank 1..3 and order <= 64,
    against the exact scalar phase; single rows on either side included."""
    rng = random.Random(8)
    tested = 0
    while tested < 60:
        spec = make_group([rng.randint(1, 8) for _ in range(rng.randint(1, 3))])
        if spec.order > 64:
            continue
        tested += 1
        lcm = spec.exponent
        want = [[char_phase(chi, g) * lcm for g in spec.elements()] for chi in spec.duals()]
        coords = coords_table(spec)
        p = phase_numerators(spec, coords, coords)
        assert p.dtype == np.int64 and p.flags.c_contiguous
        assert p.tolist() == want
        i = rng.randrange(spec.order)
        assert phase_numerators(spec, [spec.coords_at(i)], coords).tolist() == [want[i]]
        assert phase_numerators(spec, coords, coords[i]).tolist() == [[row[i]] for row in want]


def test_character_table_matches_char_eval_bit_for_bit():
    """Every (chi, g) of 60 random groups of rank 1..3 and order <= 64: the
    table rounds each value exactly as the scalar Fraction-phase path."""
    rng = random.Random(9)
    tested = 0
    while tested < 60:
        spec = make_group([rng.randint(1, 8) for _ in range(rng.randint(1, 3))])
        if spec.order > 64:
            continue
        tested += 1
        coords = coords_table(spec)
        table = character_table(spec, coords, coords)
        assert table.shape == (spec.order, spec.order) and table.dtype == np.complex128
        want = np.array([[char_eval(chi, g) for g in spec.elements()] for chi in spec.duals()])
        assert table.tobytes() == want.tobytes()
        i = rng.randrange(spec.order)
        assert character_table(spec, [spec.coords_at(i)], coords).tobytes() == want[i].tobytes()


def test_element_indices_are_sorted_distinct_and_read_only():
    spec = make_group([3, 4])
    members = [spec.dual((2, 1)), spec.dual((0, 3)), spec.dual((2, 1)), spec.dual((-1, 5))]
    idx = element_indices(spec, iter(members))
    assert idx.dtype == np.int64 and not idx.flags.writeable
    assert idx.tolist() == [3, 9]  # (2, 1) and (-1, 5) are the same character
    assert element_indices(spec, [spec.element((1, 1)), spec.zero()]).tolist() == [0, 5]
    assert element_indices(spec, []).tolist() == []
    # an equal group built separately is the same group
    assert element_indices(make_group([3, 4]), members).tolist() == [3, 9]
    with pytest.raises(GroupMismatch):
        element_indices(spec, [spec.zero(), make_group([4, 3]).zero()])
    with pytest.raises(GroupMismatch):
        difference_set([spec.zero(), make_group([3, 5]).element((1, 1))])


def test_difference_set_examples():
    z4 = make_group([4])
    assert difference_set([z4.element((0,))]) == frozenset([z4.zero()])
    got = difference_set([z4.element((0,)), z4.element((1,))])
    assert got == frozenset(z4.element((c,)) for c in (0, 1, 3))
    z6 = make_group([6])
    assert difference_set([z6.element((2,))]) == frozenset([z6.zero()])
    with pytest.raises(EmptySetError):
        difference_set([])


def test_difference_set_symmetric_with_zero():
    rng = random.Random(11)
    for _ in range(50):
        spec = make_group([rng.randint(2, 6), rng.randint(1, 4)])
        members = [spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(1, 4))]
        diffs = difference_set(members)
        assert spec.zero() in diffs
        assert all(-d in diffs for d in diffs)


def test_generated_subgroup_examples():
    z4 = make_group([4])
    h = generated_subgroup([z4.element((0,)), z4.element((2,))])
    assert {g.coords for g in h.elements} == {(0,), (2,)}
    assert h.canonical_orders == (2,)

    h2 = generated_subgroup([z4.element((0,)), z4.element((1,))])
    assert h2.order == 4
    assert h2.is_whole_group()

    z24 = make_group([2, 4])
    h3 = generated_subgroup([z24.zero(), z24.element((1, 2))])
    assert {g.coords for g in h3.elements} == {(0, 0), (1, 2)}
    assert h3.canonical_orders == (2,)


def test_generated_subgroup_contains_all_differences():
    rng = random.Random(3)
    for _ in range(60):
        spec = make_group([rng.randint(2, 5), rng.randint(1, 5)])
        members = [spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(1, 4))]
        h = generated_subgroup(members)
        for dd in difference_set(members):
            assert dd in h
        # closure fixpoint: the subgroup is exactly the additive closure of
        # the difference set, so nothing smaller works
        closure = {spec.zero()}
        frontier = set(difference_set(members))
        while True:
            new = {a + b for a in closure | frontier for b in frontier} | frontier | closure
            if new == closure:
                break
            closure = new
        assert closure == set(h.elements)


def test_whole_group_decomposition():
    spec = make_group([2, 4])
    h = whole_group(spec)
    assert h.order == 8
    assert h.canonical_orders == (2, 4)


def test_trivial_subgroup_decomposition():
    spec = make_group([6])
    h = generated_subgroup([spec.zero()])
    assert h.order == 1
    assert h.canonical_orders == (1,)
    assert h.to_canonical(spec.zero()).coords == (0,)


def test_smith_normal_form_identity_and_divisibility():
    rng = random.Random(9)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        d, u, v = smith_normal_form(mat)
        # u @ mat @ v == d, exactly over the integers
        um = [[sum(u[i][k] * mat[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
        umv = [[sum(um[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
        assert umv == d
        diag = [d[i][i] for i in range(min(m, n))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a != 0 and b != 0:
                assert b % a == 0
            if a == 0:
                assert b == 0


def test_smith_normal_form_overflow_guard():
    with pytest.raises(SnfOverflow):
        smith_normal_form([[1, 2**30], [2**30, 0]])


def test_subgroup_iso_maps_are_inverse_homomorphisms():
    rng = random.Random(21)
    for _ in range(30):
        spec = make_group([rng.randint(2, 6), rng.randint(1, 6)])
        gens = [spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(1, 2))]
        h = Subgroup.from_generators(spec, gens)
        assert math.prod(h.canonical_orders) == h.order
        for a in h.elements:
            assert h.from_canonical(h.to_canonical(a)) == a
        for a in h.elements:
            for b in h.elements:
                assert h.to_canonical(a + b) == h.to_canonical(a) + h.to_canonical(b)


def test_restrict_character_examples():
    z4 = make_group([4])
    h = generated_subgroup([z4.zero(), z4.element((2,))])
    triv = restrict_character(z4.dual((0,)), h)
    assert triv.is_trivial()
    # chi_2 restricted to {0, 2}: value at 2 is i^4 = 1 -> trivial
    assert restrict_character(z4.dual((2,)), h).is_trivial()
    # chi_1 restricted: value at 2 is i^2 = -1 -> sign character
    sign = restrict_character(z4.dual((1,)), h)
    assert sign.coords == (1,)
    two = h.to_canonical(z4.element((2,)))
    assert abs(char_eval(sign, two) - (-1.0)) < 1e-15


def test_restriction_matches_parent_values():
    rng = random.Random(14)
    for _ in range(25):
        spec = make_group([rng.randint(2, 5), rng.randint(1, 5)])
        gens = [spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(1, 2))]
        h = Subgroup.from_generators(spec, gens)
        chi = spec.dual_at(rng.randrange(spec.order))
        gamma = restrict_character(chi, h)
        for member in h.elements:
            assert abs(char_eval(gamma, h.to_canonical(member)) - char_eval(chi, member)) < 1e-12


def test_character_extensions_examples():
    z4 = make_group([4])
    h = whole_group(z4)
    gamma = restrict_character(z4.dual((3,)), h)
    assert set(character_extensions(gamma, h)) == {z4.dual((3,))}

    h2 = generated_subgroup([z4.zero(), z4.element((2,))])
    triv = h2.canonical_spec.trivial_character()
    assert {c.coords for c in character_extensions(triv, h2)} == {(0,), (2,)}
    sign = h2.canonical_spec.dual((1,))
    assert {c.coords for c in character_extensions(sign, h2)} == {(1,), (3,)}


def test_extension_sets_partition_the_dual():
    rng = random.Random(30)
    for _ in range(20):
        spec = make_group([rng.randint(2, 6), rng.randint(1, 6)])
        if spec.order > 36:
            continue
        gens = [spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(1, 2))]
        h = Subgroup.from_generators(spec, gens)
        seen = []
        for gamma in h.canonical_spec.duals():
            ext = character_extensions(gamma, h)
            assert len(ext) == h.index_in_parent
            seen.extend(ext)
        assert len(seen) == spec.order
        assert len(set(seen)) == spec.order


def test_group_objects_survive_pickle_and_deepcopy():
    # sweep --jobs ships these objects to worker processes
    from conftest import build_instance

    spec = make_group([4, 6])
    inst = build_instance([4, 6], [(0, 0), (1, 2), (3, 4)], [(0, 0), (1, 1), (3, 5)])
    for obj in (spec, spec.element((1, 5)), spec.dual((3, 2)), inst):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert twin == obj and hash(twin) == hash(obj) and type(twin) is type(obj)
    assert pickle.loads(pickle.dumps(inst)).digest() == inst.digest()
    for cls in (GroupSpec, GroupElement, DualElement):
        assert "__slots__" in vars(cls)
    for obj in (spec, spec.element((1, 5)), spec.dual((3, 2))):
        assert not hasattr(obj, "__dict__")


def test_negation_is_the_index_of_minus_g():
    for orders in ([1], [2], [7], [2, 4], [3, 1, 4], [8, 512]):
        spec = make_group(orders)
        neg = negation(spec)
        assert not neg.flags.writeable
        assert neg.tolist() == [(-spec.element_at(i)).index for i in range(spec.order)]
        assert neg.tolist() == [spec.dual_at(i).conjugate().index for i in range(spec.order)]


def test_negation_classes_keep_the_smallest_member_inside_the_mask():
    # reference: each class {g, -g} built from elements, kept by its
    # smallest member inside the mask when it meets the mask at all
    rng = random.Random(909)
    specs = [make_group(o) for o in ([1], [2], [7], [2, 4], [3, 1, 4], [4, 4])]
    for spec in specs:
        for p in (0.0, 0.3, 0.7, 1.0):
            mask = np.array([rng.random() < p for _ in range(spec.order)], dtype=bool)
            if rng.random() < 0.5:
                mask &= mask[negation(spec)]  # conjugation-closed, as Q cap conj(Q)
            want = set()
            for g in spec.elements():
                inside = [h.index for h in (g, -g) if mask[h.index]]
                if inside:
                    want.add(min(inside))
            got = negation_classes(spec, mask)
            assert got.tolist() == sorted(want)
        everything = negation_classes(spec, np.ones(spec.order, dtype=bool))
        assert everything.tolist() == [i for i in range(spec.order) if i <= negation(spec)[i]]


# ---------------------------------------------------------------------------
# Reference: subgroups as a breadth-first word closure with element dicts
# ---------------------------------------------------------------------------


def _closure_words(spec, gens):
    """Close {0} under addition of the generators, tracking for each element
    one word (nonnegative generator multiplicities) that produces it."""
    zero = spec.zero()
    words = {zero.coords: (0,) * len(gens)}
    queue = [zero.coords]
    while queue:
        cur = queue.pop()
        w = words[cur]
        cur_el = GroupElement(spec, cur)
        for i, g in enumerate(gens):
            nxt = (cur_el + g).coords
            if nxt not in words:
                words[nxt] = w[:i] + (w[i] + 1,) + w[i + 1 :]
                queue.append(nxt)
    return words


def _reference_subgroup(parent, generators):
    """(generators, canonical orders, parent coords -> canonical coords),
    built element by element from the closure words."""
    gens = []
    for g in generators:
        if not g.is_zero() and g not in gens:
            gens.append(g)
    words = _closure_words(parent, gens)
    k, d = len(gens), parent.rank
    if k == 0:
        return (), (1,), {coords: (0,) for coords in words}
    mat = [
        [gens[c].coords[r] for c in range(k)] + [parent.orders[r] if c == r else 0 for c in range(d)]
        for r in range(d)
    ]
    _, _, vv = smith_normal_form(mat)
    tt, u2, _ = smith_normal_form([[vv[i][j] for j in range(d, k + d)] for i in range(k)])
    tdiag = [tt[i][i] for i in range(k)]
    assert math.prod(tdiag) == len(words)
    keep = [i for i, t in enumerate(tdiag) if t > 1]
    to_map = {
        coords: tuple(sum(u2[i][j] * word[j] for j in range(k)) % tdiag[i] for i in keep)
        for coords, word in words.items()
    }
    return tuple(gens), tuple(tdiag[i] for i in keep), to_map


def _reference_generated(w):
    diffs = difference_set(w)
    spec = next(iter(diffs)).spec
    gens = []
    known = {spec.zero().coords}
    for vel in sorted(diffs, key=lambda e: e.index):
        if vel.coords not in known:
            gens.append(vel)
            known = set(_closure_words(spec, gens))
    return _reference_subgroup(spec, gens)


def _assert_matches_reference(h, ref):
    gens, orders, to_map = ref
    parent, canonical = h.parent, h.canonical_spec
    assert h.generators == gens
    assert h.canonical_orders == orders == canonical.orders
    assert h.order == len(h) == len(to_map)
    assert [g.coords for g in h.elements] == sorted(to_map, key=parent.index_of)
    from_map = {cc: coords for coords, cc in to_map.items()}
    assert h.embedding.tolist() == [parent.index_of(from_map[h_.coords]) for h_ in canonical.elements()]
    assert not h.embedding.flags.writeable and not h.position.flags.writeable
    for coords, cc in to_map.items():
        g = parent.element(coords)
        assert g in h
        assert h.to_canonical(g) == canonical.element(cc)
        assert h.from_canonical(canonical.element(cc)) == g
    outside = [g for g in parent.elements() if g.coords not in to_map][:3]
    for g in outside:
        assert g not in h
        with pytest.raises(GroupMismatch):
            h.to_canonical(g)
    units = tuple(
        from_map[canonical.coords_at(canonical.index_of([int(i == j) for j in range(canonical.rank)]))]
        for i in range(canonical.rank)
    )
    assert h._unit_images == units
    # restriction of every parent character, one at a time, from the reference units
    lcm = parent.exponent
    expect = []
    for chi in parent.duals():
        y = [c * (lcm // n) for c, n in zip(chi.coords, parent.orders)]
        coords = []
        for m, e in zip(orders or (1,), units):
            p = sum(a * b for a, b in zip(y, e)) * m
            assert p % lcm == 0
            coords.append(p // lcm % m)
        expect.append(canonical.index_of(coords))
    assert h.restriction_map.tolist() == expect

    # trivial extension and restriction against per-element loops over the maps
    rng = random.Random(h.order * 7919 + parent.order)
    f0 = FunctionOnG(canonical, [rng.uniform(-1, 1) for _ in range(canonical.order)])
    ext = np.zeros(parent.order)
    for coords, cc in to_map.items():
        ext[parent.index_of(coords)] = f0.values[canonical.index_of(cc)]
    assert np.array_equal(trivial_extension(f0, h, parent).values, ext)
    f = FunctionOnG(parent, [rng.uniform(-1, 1) for _ in range(parent.order)])
    restr = [f.values[parent.index_of(from_map[h_.coords])] for h_ in canonical.elements()]
    assert np.array_equal(restrict_function(f, h).values, restr)


def test_subgroups_match_the_element_dict_reference():
    rng = random.Random(2024)
    seen = 0
    while seen < 240:
        orders = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
        if math.prod(orders) > 64:
            continue
        spec = make_group(orders)
        kind = seen % 4
        if kind == 0:  # explicit generators, zeros and repeats included
            gens = [spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(0, 3))]
            gens += [spec.zero()] + gens[:1]
            h, ref = Subgroup.from_generators(spec, gens), _reference_subgroup(spec, gens)
        elif kind == 1:  # a random window
            w = [spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(1, 5))]
            h, ref = generated_subgroup(w), _reference_generated(w)
        elif kind == 2:  # trivial
            w = [spec.element_at(rng.randrange(spec.order))]
            h, ref = generated_subgroup(w), _reference_generated(w)
            assert h.order == 1
        else:
            h = whole_group(spec)
            ref = _reference_subgroup(spec, [spec.element(u) for u in np.eye(spec.rank, dtype=int).tolist()])
            assert h.is_whole_group()
        _assert_matches_reference(h, ref)
        seen += 1


@pytest.mark.parametrize(
    "window",
    [
        [(0, 0), (0, 64), (0, 448)],
        [(0, 0), (4, 0)],
        [(0, 0), (1, 0), (0, 128)],
        [(0, 0), (2, 256), (6, 256), (4, 0)],
        [(0, 0), (1, 3)],
        [(0, 0), (0, 1), (0, 2), (0, 510), (0, 511)],
        [(0, 0), (1, 0), (0, 1)],
    ],
)
def test_window_subgroups_of_z8_z512_match_the_reference(window):
    spec = make_group([8, 512])
    w = [spec.element(c) for c in window]
    _assert_matches_reference(generated_subgroup(w), _reference_generated(w))
