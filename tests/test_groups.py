import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from delsarte import (
    EmptySetError,
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
    smith_normal_form,
    whole_group,
)
from delsarte.groups import DualElement, GroupElement, GroupSpec, Subgroup


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
