import random
import re

import numpy as np
import pytest

from delsarte import (
    AsymmetricBump,
    FunctionOnG,
    GroupMismatch,
    Spectrum,
    bump_theta,
    conj_fourier,
    conj_fourier_real,
    conv_square,
    convolve,
    dft,
    gram_oracle,
    is_positive_definite,
    make_group,
    reflect,
)
from delsarte.groups import character_table, coords_table


def random_function(rng, spec):
    return FunctionOnG(spec, [rng.uniform(-2, 2) for _ in range(spec.order)])


def random_small_group(rng, max_order=32):
    while True:
        orders = [rng.randint(1, 8) for _ in range(rng.randint(1, 3))]
        spec = make_group(orders)
        if spec.order <= max_order:
            return spec


def test_dft_of_delta_is_flat():
    for orders in ([3], [2, 4]):
        spec = make_group(orders)
        s = dft(FunctionOnG.delta(spec))
        assert np.allclose(s.values, 1.0, atol=1e-14)


def test_dft_of_constant_concentrates():
    spec = make_group([4])
    s = dft(FunctionOnG.constant(spec))
    assert np.allclose(s.values, [4, 0, 0, 0], atol=1e-13)


def test_dft_direct_summation_example(z4_interval):
    spec = make_group([4])
    f = FunctionOnG(spec, [1, 0.5, 0, 0.5])
    assert np.allclose(dft(f).values, [2, 1, 0, 1], atol=1e-13)


def test_inversion_examples():
    spec = make_group([4])
    flat = Spectrum(spec, np.ones(4))
    assert np.allclose(conj_fourier(flat), [1, 0, 0, 0], atol=1e-14)
    concentrated = Spectrum(spec, [4, 0, 0, 0])
    assert np.allclose(conj_fourier(concentrated), np.ones(4), atol=1e-14)
    assert np.allclose(conj_fourier(Spectrum(spec, [2, 1, 0, 1])), [1, 0.5, 0, 0.5], atol=1e-13)


def test_inversion_round_trip_500_random():
    rng = random.Random(17)
    for _ in range(500):
        spec = random_small_group(rng)
        f = random_function(rng, spec)
        back = conj_fourier(dft(f))
        assert np.max(np.abs(back - f.values)) <= 1e-12 * (1 + f.norm_inf())


def test_parseval():
    rng = random.Random(23)
    for _ in range(200):
        spec = random_small_group(rng)
        f = random_function(rng, spec)
        lhs = float(np.sum(f.values**2))
        rhs = float(np.sum(np.abs(dft(f).values) ** 2)) / spec.order
        assert abs(lhs - rhs) <= 1e-12 * (1 + lhs)


def test_spectrum_of_real_function_is_conjugate_symmetric():
    rng = random.Random(2)
    spec = make_group([3, 4])
    f = random_function(rng, spec)
    s = dft(f)
    for chi in spec.duals():
        assert abs(s.value_at(chi.conjugate()) - s.value_at(chi).conjugate()) < 1e-12


def test_convolution_unit():
    spec = make_group([5])
    rng = random.Random(1)
    f = random_function(rng, spec)
    assert np.allclose(convolve(f, FunctionOnG.delta(spec)).values, f.values, atol=1e-14)


def test_convolution_full_support():
    spec = make_group([2])
    one = FunctionOnG.constant(spec)
    assert np.allclose(convolve(one, one).values, [2, 2], atol=1e-14)


def test_convolution_theorem():
    rng = random.Random(8)
    for _ in range(100):
        spec = random_small_group(rng, 24)
        f = random_function(rng, spec)
        h = random_function(rng, spec)
        lhs = dft(convolve(f, h)).values
        rhs = dft(f).values * dft(h).values
        scale = (1 + f.norm_inf()) * (1 + h.norm_inf()) * spec.order
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_conv_square_examples():
    spec2 = make_group([2])
    sq = conv_square(FunctionOnG(spec2, [1, -1]))
    assert np.allclose(sq.values, [2, -2], atol=1e-14)
    assert np.allclose(dft(sq).values, [0, 4], atol=1e-13)

    spec1 = make_group([3])
    delta = FunctionOnG.delta(spec1)
    assert np.allclose(conv_square(delta).values, delta.values, atol=1e-14)

    spec4 = make_group([4])
    sq4 = conv_square(FunctionOnG(spec4, [1, 1, 0, 0]))
    assert np.allclose(sq4.values, [2, 1, 0, 1], atol=1e-14)


def test_conv_square_is_positive_definite():
    rng = random.Random(12)
    for _ in range(100):
        spec = random_small_group(rng, 20)
        phi = random_function(rng, spec)
        sq = conv_square(phi)
        report = is_positive_definite(sq)
        assert report.is_posdef
        l2 = float(np.sum(phi.values**2))
        assert report.min_spectrum >= -1e-10 * max(l2, 1e-30)
        assert abs(sq.at_zero() - l2) < 1e-12 * (1 + l2)


def test_reflect_round_trip():
    rng = random.Random(4)
    spec = make_group([3, 3])
    f = random_function(rng, spec)
    assert np.allclose(reflect(reflect(f)).values, f.values)


def test_bump_point():
    spec = make_group([5])
    theta = bump_theta([spec.trivial_character()], spec.trivial_character())
    want = np.zeros(5)
    want[0] = 1 / 5
    assert np.allclose(theta.values, want, atol=1e-14)


def test_bump_whole_dual_of_z2():
    spec = make_group([2])
    theta = bump_theta(list(spec.duals()), spec.trivial_character())
    assert np.allclose(theta.values, [1, 1], atol=1e-14)


def test_bump_translation_structure():
    spec = make_group([6])
    base = frozenset([spec.dual((0,)), spec.dual((1,)), spec.dual((5,))])
    theta0 = bump_theta(base, spec.trivial_character())
    for gamma in spec.duals():
        shifted = bump_theta(base, gamma)
        for chi in spec.duals():
            assert abs(shifted.value_at(chi) - theta0.value_at(chi - gamma)) < 1e-14


def test_bump_peak_and_support():
    spec = make_group([8])
    base = frozenset([spec.dual((0,)), spec.dual((1,)), spec.dual((7,))])
    gamma = spec.dual((3,))
    theta = bump_theta(base, gamma)
    assert abs(theta.value_at(gamma) - len(base) / spec.order) < 1e-14
    product_set = {a + b + gamma for a in base for b in base}
    for chi in spec.duals():
        if chi not in product_set:
            assert abs(theta.value_at(chi)) < 1e-14


def test_bump_identity_random_symmetric_sets():
    rng = random.Random(77)
    for _ in range(60):
        spec = random_small_group(rng, 16)
        members = {spec.trivial_character()}
        for chi in spec.duals():
            if rng.random() < 0.4:
                members.add(chi)
                members.add(chi.conjugate())
        gamma = spec.dual_at(rng.randrange(spec.order))
        theta = bump_theta(members, gamma)
        lhs = conj_fourier(theta)
        indicator = Spectrum(spec, [1.0 if chi in members else 0.0 for chi in spec.duals()])
        base = conj_fourier(indicator)
        gamma_vals = np.array([gamma(g) for g in spec.elements()])
        rhs = gamma_vals * np.abs(base) ** 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_bump_rejects_bad_base_sets():
    spec = make_group([4])
    with pytest.raises(AsymmetricBump):
        bump_theta([spec.trivial_character(), spec.dual((1,))], spec.trivial_character())
    with pytest.raises(AsymmetricBump):
        bump_theta([spec.dual((1,)), spec.dual((3,))], spec.trivial_character())
    with pytest.raises(AsymmetricBump):
        bump_theta([], spec.trivial_character())


@pytest.mark.parametrize(
    "orders, base, named",
    [
        ([8], [(0,), (2,), (3,), (5,), (7,)], "(2,)"),  # 2 and 7 lack their conjugates 6 and 1
        ([3, 4], [(0, 0), (0, 1), (1, 0), (2, 3), (1, 2)], "(0, 1)"),  # no member has its conjugate
    ],
)
def test_bump_names_the_smallest_unpaired_character(orders, base, named):
    spec = make_group(orders)
    for members in (base, base[::-1]):
        with pytest.raises(AsymmetricBump, match=f"conjugation-closed at {re.escape(named)}$"):
            bump_theta([spec.dual(c) for c in members], spec.trivial_character())


def test_bump_rejects_characters_of_another_group():
    z4, z6 = make_group([4]), make_group([6])
    with pytest.raises(GroupMismatch):
        bump_theta(list(z6.duals()), z4.trivial_character())


def test_conj_fourier_real_rejects_complex_output():
    spec = make_group([4])
    # a spectrum that is not conjugate-symmetric produces a complex function
    skew = Spectrum(spec, [0, 1, 0, 0])
    with pytest.raises(ValueError):
        conj_fourier_real(skew)


def test_fft_transforms_match_dense_tables():
    # the dense character and difference tables are the O(|G|^2) reference
    # for the FFT; odd and order-1 factors exercise the C-order reshape
    from delsarte.fourier import _char_matrix, _diff_table

    rng = random.Random(3)
    for orders in ([3, 4], [1, 5], [2, 3, 5]):
        spec = make_group(orders)
        chi = _char_matrix(spec)
        d = _diff_table(spec)
        f = random_function(rng, spec)
        h = random_function(rng, spec)
        k = Spectrum(spec, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(spec.order)])
        assert np.max(np.abs(dft(f).values - chi.conj() @ f.values)) < 1e-12
        assert np.max(np.abs(conj_fourier(k) - (k.values @ chi) / spec.order)) < 1e-12
        assert np.max(np.abs(convolve(f, h).values - h.values[d] @ f.values)) < 1e-12

        members = {spec.trivial_character()}
        for c in spec.duals():
            if rng.random() < 0.4:
                members.update((c, c.conjugate()))
        gamma = spec.dual_at(rng.randrange(spec.order))
        u = np.array([1.0 if c in members else 0.0 for c in spec.duals()])
        want = ((u[d] @ u) / spec.order)[d[:, gamma.index]]
        assert np.max(np.abs(bump_theta(members, gamma).values - want)) < 1e-12


def test_dft_matches_direct_sums_at_order_2100():
    rng = random.Random(5)
    spec = make_group([3, 700])
    f = random_function(rng, spec)
    got = dft(f).values
    for i in rng.sample(range(spec.order), 16):
        want = np.vdot(character_table(spec, [spec.coords_at(i)], coords_table(spec))[0], f.values)
        assert abs(got[i] - want) < 1e-12


def test_character_table_rows_are_the_dense_table():
    from delsarte.fourier import _char_matrix

    rng = random.Random(6)
    for orders in ([1], [12], [3, 4], [2, 3, 5], [4, 6]):
        spec = make_group(orders)
        coords = coords_table(spec)
        dense = _char_matrix(spec)
        assert not dense.flags.writeable
        for i in [0, *rng.sample(range(spec.order), min(4, spec.order))]:
            row = character_table(spec, [spec.coords_at(i)], coords)[0]
            assert row.tobytes() == dense[i].tobytes()


def test_gram_oracle_caches_no_difference_table():
    from delsarte.fourier import _diff_table

    rng = random.Random(7)
    cases = []
    for orders in ([5], [2, 4], [3, 3]):
        spec = make_group(orders)
        phi = random_function(rng, spec)
        cases += [conv_square(phi), random_function(rng, spec), FunctionOnG.delta(spec)]
    _diff_table.cache_clear()
    got = [gram_oracle(f) for f in cases]
    assert _diff_table.cache_info().currsize == 0
    for f, verdict in zip(cases, got):
        m = f.values[_diff_table(f.spec)]
        want = np.allclose(m, m.T, rtol=0, atol=1e-12 * (1 + f.norm_inf())) and (
            np.linalg.eigvalsh(m)[0] >= -1e-9 * f.norm_inf() * f.spec.order
        )
        assert verdict == want
    assert got.count(True) >= 6 and got.count(False) >= 1
