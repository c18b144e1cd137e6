import random

import numpy as np
import pytest

from delsarte import (
    FunctionOnG,
    GroupMismatch,
    OracleTooLarge,
    dft,
    generated_subgroup,
    gram_oracle,
    is_positive_definite,
    make_group,
    negative_part,
    positive_part,
    restrict_function,
    trivial_extension,
    whole_group,
)
from delsarte import posdef
from delsarte.campaigns import random_even_function, random_positive_definite, random_subgroup


def test_spectral_examples():
    spec = make_group([3])
    report = is_positive_definite(FunctionOnG.delta(spec))
    assert report.is_posdef
    assert abs(report.min_spectrum - 1.0) < 1e-13

    z2 = make_group([2])
    report = is_positive_definite(FunctionOnG(z2, [1, -1]))
    assert report.is_posdef
    assert abs(report.min_spectrum) < 1e-13

    z4 = make_group([4])
    report = is_positive_definite(FunctionOnG(z4, [1, 0.9, 0, 0.9]))
    assert not report.is_posdef
    assert abs(report.min_spectrum - (-0.8)) < 1e-12
    assert report.witness.coords == (2,)


def test_spectral_test_rejects_non_even_input():
    z4 = make_group([4])
    report = is_positive_definite(FunctionOnG(z4, [1, 0.5, 0, 0]))
    assert not report.is_posdef
    assert report.max_imag > 0.1


def test_gram_examples():
    z4 = make_group([4])
    assert gram_oracle(FunctionOnG.delta(z4))
    assert gram_oracle(FunctionOnG.constant(z4))
    assert not gram_oracle(FunctionOnG(z4, [1, 0.9, 0, 0.9]))


def test_gram_oracle_refuses_groups_above_its_limit(monkeypatch):
    # Z_1025 is one element over the limit: refused before the 16 MB of
    # dense tables are built; Z_32 x Z_32, of order 1024, still runs
    assert posdef._MAX_GRAM_ORDER == 1024
    big, edge = make_group([1025]), make_group([32, 32])

    def no_table(spec):
        raise AssertionError("difference table built")

    with monkeypatch.context() as patch:
        patch.setattr(posdef, "_difference_table", no_table)
        with pytest.raises(OracleTooLarge, match=r"^order 1025 exceeds the Gram oracle limit of 1024$"):
            gram_oracle(FunctionOnG.delta(big))
    assert gram_oracle(FunctionOnG.delta(edge))


def test_gram_and_spectral_agree_on_random_even_functions():
    rng = random.Random(41)
    for _ in range(500):
        orders = [rng.randint(1, 4) for _ in range(rng.randint(1, 2))]
        spec = make_group(orders)
        if spec.order > 16:
            continue
        f = random_even_function(rng, spec)
        assert is_positive_definite(f).is_posdef == gram_oracle(f)


def test_parts_examples():
    z2 = make_group([2])
    f = FunctionOnG(z2, [1, -1])
    assert np.allclose(positive_part(f).values, [1, 0])
    assert np.allclose(negative_part(f).values, [0, 1])

    z4 = make_group([4])
    g = FunctionOnG(z4, [1, 0.5, -0.25, 0.5])
    assert np.allclose(positive_part(g).values, [1, 0.5, 0, 0.5])
    assert np.allclose(negative_part(g).values, [0, 0, 0.25, 0])

    nonneg = FunctionOnG(z4, [1, 0.5, 0, 0.5])
    assert np.allclose(positive_part(nonneg).values, nonneg.values)
    assert np.allclose(negative_part(nonneg).values, 0)


def test_parts_identities():
    rng = random.Random(6)
    spec = make_group([3, 3])
    f = FunctionOnG(spec, [rng.uniform(-1, 1) for _ in range(9)])
    plus, minus = positive_part(f), negative_part(f)
    assert np.allclose(plus.values - minus.values, f.values)
    assert np.all(plus.values >= 0) and np.all(minus.values >= 0)
    assert np.allclose(plus.values * minus.values, 0)


def test_peak_and_mass_bounds_for_positive_definite():
    rng = random.Random(55)
    for _ in range(200):
        orders = [rng.randint(1, 5) for _ in range(rng.randint(1, 2))]
        spec = make_group(orders)
        if spec.order > 16:
            continue
        f = random_positive_definite(rng, spec)
        assert f.norm_inf() <= f.at_zero() + 1e-12
        assert f.total() >= -1e-10 * spec.order * f.norm_inf()


def test_trivial_extension_examples():
    z4 = make_group([4])
    h = generated_subgroup([z4.zero(), z4.element((2,))])
    f_point = FunctionOnG(h.canonical_spec, [1, 0])
    ext = trivial_extension(f_point, h, z4)
    assert np.allclose(ext.values, [1, 0, 0, 0])
    assert np.allclose(dft(ext).values, 1.0, atol=1e-13)

    f_const = FunctionOnG(h.canonical_spec, [1, 1])
    ext2 = trivial_extension(f_const, h, z4)
    assert np.allclose(ext2.values, [1, 0, 1, 0])
    assert np.allclose(dft(ext2).values, [2, 0, 2, 0], atol=1e-13)

    h_all = whole_group(z4)
    f = FunctionOnG(h_all.canonical_spec, [1, 0.5, 0, 0.5])
    same = trivial_extension(f, h_all, z4)
    assert np.allclose(same.values, [1, 0.5, 0, 0.5])


def test_trivial_extension_preserves_positive_definiteness():
    rng = random.Random(67)
    for _ in range(100):
        orders = [rng.randint(2, 5) for _ in range(rng.randint(1, 2))]
        spec = make_group(orders)
        h = random_subgroup(rng, spec)
        f = random_positive_definite(rng, h.canonical_spec)
        ext = trivial_extension(f, h, spec)
        assert is_positive_definite(ext).is_posdef
        assert gram_oracle(ext)


def test_restrict_function_examples():
    z4 = make_group([4])
    h = generated_subgroup([z4.zero(), z4.element((2,))])
    restored = restrict_function(trivial_extension(FunctionOnG(h.canonical_spec, [1, 0.25]), h, z4), h)
    assert np.allclose(restored.values, [1, 0.25])

    ones = restrict_function(FunctionOnG.constant(z4), h)
    assert np.allclose(ones.values, [1, 1])
    assert is_positive_definite(ones).is_posdef

    f = restrict_function(FunctionOnG(z4, [1, 0.5, 0, 0.5]), h)
    assert np.allclose(f.values, [1, 0])
    assert np.allclose(dft(f).values, [1, 1], atol=1e-14)


def test_restriction_preserves_positive_definiteness():
    rng = random.Random(88)
    for _ in range(100):
        orders = [rng.randint(2, 5) for _ in range(rng.randint(1, 2))]
        spec = make_group(orders)
        h = random_subgroup(rng, spec)
        f = random_positive_definite(rng, spec)
        restr = restrict_function(f, h)
        assert is_positive_definite(restr).is_posdef
        assert gram_oracle(restr)


def test_extension_shape_errors():
    z4 = make_group([4])
    z6 = make_group([6])
    h = generated_subgroup([z4.zero(), z4.element((2,))])
    with pytest.raises(GroupMismatch):
        trivial_extension(FunctionOnG(h.canonical_spec, [1, 0]), h, z6)
    with pytest.raises(GroupMismatch):
        trivial_extension(FunctionOnG(z4, [1, 0, 0, 0]), h, z4)
    with pytest.raises(GroupMismatch):
        restrict_function(FunctionOnG(z6, np.zeros(6)), h)
