import math
import random
import re

import numpy as np
import pytest

from delsarte import (
    FunctionOnG,
    GroupMismatch,
    NetPreconditionError,
    Status,
    build_net,
    character_distance,
    make_group,
    net_approximation_error,
    project_coeffs,
    quantize,
    solve_delsarte,
)
from delsarte.campaigns import golden_cases, random_conjugation_closed_q, random_group, random_positive_definite
from delsarte.fourier import Spectrum, conj_fourier_real, dft
from delsarte.groups import char_eval, negation

from conftest import build_instance, full_dual


def test_build_net_large_epsilon_single_cell():
    spec = make_group([4])
    net = build_net(full_dual(spec), list(spec.elements()), 2.5)
    assert net.n_centers == 1
    assert len(net.partition[0]) == 4


def test_build_net_small_epsilon_singletons():
    # distinct characters of Z_4 differ by at least sqrt(2) somewhere
    spec = make_group([4])
    chars = sorted(full_dual(spec), key=lambda c: c.index)
    for a in chars:
        for b in chars:
            if a != b:
                assert character_distance(a, b, list(spec.elements())) >= np.sqrt(2) - 1e-12
    net = build_net(chars, list(spec.elements()), 0.1)
    assert net.n_centers == 4
    assert all(len(cell) == 1 for cell in net.partition)
    assert net.m == 41


def test_build_net_point_sample_set_single_cell():
    spec = make_group([6])
    net = build_net(full_dual(spec), [spec.zero()], 0.01)
    assert net.n_centers == 1


def test_net_partition_properties():
    rng = random.Random(9)
    for _ in range(25):
        spec = make_group([rng.randint(2, 6), rng.randint(1, 3)])
        eps = rng.choice([0.3, 0.7, 1.4])
        k = [spec.element_at(i) for i in sorted(rng.sample(range(spec.order), rng.randint(1, spec.order)))]
        net = build_net(spec.duals(), k, eps)
        seen = [chi for cell in net.partition for chi in cell]
        assert len(seen) == len(set(seen)) == spec.order
        for center, cell in zip(net.centers, net.partition):
            assert center in cell
            for chi in cell:
                assert character_distance(chi, center, net.k) < eps
        # the greedy cover through character_distance, cell for cell
        pending = sorted(spec.duals(), key=lambda c: c.index)
        for center, cell in zip(net.centers, net.partition):
            assert center == pending[0]
            assert cell == tuple(chi for chi in pending if character_distance(chi, center, net.k) < eps)
            pending = [chi for chi in pending if chi not in cell]
        assert not pending
        assert net.m * eps > net.n_centers
        assert net.grid_size() == (net.m + 1) ** net.n_centers


def test_project_coeffs_single_cell_total_mass():
    spec = make_group([4])
    inst = build_instance([4], [(3,), (0,), (1,)])
    sol = solve_delsarte(inst)
    net = build_net(full_dual(spec), list(spec.elements()), 2.5)
    coeffs = project_coeffs(sol.f, net)
    assert np.allclose(coeffs, [1.0], atol=1e-12)


def test_project_coeffs_singleton_cells():
    spec = make_group([4])
    inst = build_instance([4], [(3,), (0,), (1,)])
    sol = solve_delsarte(inst)
    net = build_net(full_dual(spec), list(spec.elements()), 0.1)
    coeffs = project_coeffs(sol.f, net)
    assert np.allclose(coeffs, [0.5, 0.25, 0, 0.25], atol=1e-12)
    assert abs(coeffs.sum() - 1.0) <= 1e-10


def test_project_coeffs_concentrated_spectrum():
    spec = make_group([4])
    f = FunctionOnG.constant(spec)  # spectrum sits on the trivial character
    net = build_net(full_dual(spec), list(spec.elements()), 0.1)
    coeffs = project_coeffs(f, net)
    assert np.allclose(coeffs, [1, 0, 0, 0], atol=1e-12)


def test_project_coeffs_preconditions():
    spec = make_group([4])
    net = build_net(full_dual(spec), list(spec.elements()), 0.5)
    with pytest.raises(NetPreconditionError):
        project_coeffs(FunctionOnG(spec, [1, 0.9, 0, 0.9]), net)  # not positive definite
    with pytest.raises(NetPreconditionError):
        project_coeffs(FunctionOnG(spec, [2, 0, 0, 0]), net)  # f(0) != 1
    partial = build_net([spec.dual((0,))], list(spec.elements()), 0.5)
    with pytest.raises(NetPreconditionError):
        project_coeffs(FunctionOnG(spec, [1, 0.5, 0, 0.5]), partial)  # spectrum leak


def test_quantize_examples():
    assert np.allclose(quantize([0.4, 0.6], 10), [0.4, 0.6])
    assert np.allclose(quantize([0.55, 0.45], 2), [0.5, 0.0])
    assert np.allclose(quantize([1 / 3, 2 / 3], 3), [1 / 3, 2 / 3])


def test_quantize_residual_bounds():
    rng = random.Random(33)
    for _ in range(300):
        m = rng.randint(1, 50)
        c = np.array([rng.random() for _ in range(rng.randint(1, 6))])
        d = quantize(c, m)
        assert np.all(c - d >= 0)
        assert np.all(c - d < 1.0 / m)
        # d sits on the grid: the nearest grid point reproduces it exactly
        assert np.all(np.round(d * m) / m == d)


def test_net_error_example():
    inst = build_instance([4], [(3,), (0,), (1,)])
    sol = solve_delsarte(inst)
    net = build_net(full_dual(inst.group), list(inst.group.elements()), 0.1)
    err = net_approximation_error(sol.f, net)
    assert err < 0.2


def test_net_error_vanishes_for_on_grid_spectrum():
    spec = make_group([4])
    f = FunctionOnG.constant(spec)
    net = build_net(full_dual(spec), list(spec.elements()), 0.1)
    # 4 singleton cells at epsilon 0.1: m = 41 holds the constant's mass 1 exactly
    assert net.m == 41
    assert net_approximation_error(f, net) < 1e-12


def test_net_bound_on_golden_extremals():
    for name, inst, expected in golden_cases():
        sol = solve_delsarte(inst)
        if sol.status != Status.OPTIMAL:
            continue
        for eps in (0.05, 0.2, 1.0):
            net = build_net(inst.q, list(inst.group.elements()), eps)
            err = net_approximation_error(sol.f, net)
            assert err < 2 * eps, (name, eps, err)
            coeffs = project_coeffs(sol.f, net)
            residual = coeffs - quantize(coeffs, net.m)
            assert float(residual.max()) < 1.0 / net.m


def test_net_bound_on_random_functions_and_sample_sets():
    rng = random.Random(13)
    for _ in range(25):
        orders = [rng.randint(2, 6) for _ in range(rng.randint(1, 2))]
        spec = make_group(orders)
        if spec.order > 12:
            continue
        f = random_positive_definite(rng, spec)
        k = rng.sample(list(spec.elements()), rng.randint(1, spec.order))
        eps = rng.choice([0.05, 0.2, 1.0])
        net = build_net(spec.duals(), k, eps)
        assert net_approximation_error(f, net) < 2 * eps


def test_build_net_grain_validation():
    spec = make_group([4])
    with pytest.raises(ValueError):
        build_net(full_dual(spec), list(spec.elements()), -1.0)


def test_build_net_rejects_epsilon_too_small_for_the_granularity():
    # m > n / epsilon must stay below 2**53, where m + 1 still differs from m
    # as a float; at 1e-310, n / epsilon is inf. Smaller values that spin the
    # float fence run through the CLI test, in a subprocess with a timeout.
    spec = make_group([4])
    chars, k = list(spec.duals()), list(spec.elements())
    for n in range(1, 5):
        smallest = math.nextafter(n / 2**53, math.inf)
        for eps in (1e-310, n / 2**53):
            with pytest.raises(ValueError, match=re.escape(f"{n} centers; the smallest usable epsilon is {smallest!r}")):
                build_net(chars[:n], k, eps)
        net = build_net(chars[:n], k, smallest)
        assert net.n_centers == n
        assert n < net.m * smallest and net.m <= 2**53


def test_nets_reject_input_from_another_group():
    z4, z6 = make_group([4]), make_group([6])
    net = build_net(full_dual(z6), list(z6.elements()), 0.2)
    f = FunctionOnG.constant(z4)  # admissible on Z_4: spectrum 4 at the trivial character
    for call in (project_coeffs, net_approximation_error):
        with pytest.raises(GroupMismatch):
            call(f, net)
    with pytest.raises(GroupMismatch):
        build_net(full_dual(z6), list(z4.elements()), 0.2)
    with pytest.raises(GroupMismatch):
        build_net(list(z6.duals()) + [z4.dual((1,))], list(z6.elements()), 0.2)


def _reference_net(q, k, epsilon):
    """The greedy cover on per-pair char_eval values that build_net replaced."""
    q_sorted = sorted(set(q), key=lambda c: c.index)
    k_sorted = sorted(set(k), key=lambda g: g.index)
    values = {chi: [char_eval(chi, g) for g in k_sorted] for chi in q_sorted}
    centers, cells, pending = [], [], q_sorted
    while pending:
        at_center = values[pending[0]]
        cell = tuple(
            chi for chi in pending if max(abs(a - b) for a, b in zip(values[chi], at_center)) < epsilon
        )
        centers.append(pending[0])
        cells.append(cell)
        pending = [chi for chi in pending if chi not in set(cell)]
    n = len(centers)
    m = int(n / epsilon) + 1
    while m * epsilon <= n:
        m += 1
    return tuple(k_sorted), tuple(centers), tuple(cells), m


def _reference_coeffs(f, net):
    spectrum = dft(f).values
    return np.array(
        [max(sum(spectrum[chi.index].real for chi in cell) / f.spec.order, 0.0) for cell in net.partition]
    )


def _reference_error(f, net, quantized):
    worst = 0.0
    for g in net.k:
        approx = sum(d * char_eval(chi, g) for d, chi in zip(quantized, net.centers) if d)
        worst = max(worst, abs(f.value_at(g) - approx))
    return worst


def _random_function_on(rng, spec, q):
    """f(0) = 1 with a random nonnegative symmetric spectrum supported on q."""
    neg = negation(spec)
    vals = np.zeros(spec.order, dtype=complex)
    for i in sorted(chi.index for chi in q):
        vals[i] = vals[neg[i]] = rng.choice([0.0, rng.uniform(0.0, 1.0)])
    if not np.any(vals):
        i = min(chi.index for chi in q)
        vals[i] = vals[neg[i]] = 1.0
    f = conj_fourier_real(Spectrum(spec, vals))
    return FunctionOnG(spec, f.values / f.at_zero())


def test_nets_match_per_pair_char_eval_reference():
    rng = random.Random(88)
    multi = 0
    for case in range(220):
        spec = random_group(rng, 36)
        if case % 3 == 0:
            q, f = frozenset(spec.duals()), random_positive_definite(rng, spec)
        else:
            q = random_conjugation_closed_q(rng, spec)
            f = _random_function_on(rng, spec, q)
        k = rng.sample(list(spec.elements()), rng.randint(1, min(spec.order, rng.choice([3, 36]))))
        eps = rng.choice([0.05, 0.3, 0.6, 1.0, 1.5, 2.5])
        net = build_net(q, k, eps)
        k_sorted, centers, cells, m = _reference_net(q, k, eps)
        assert (net.k, net.centers, net.partition, net.m) == (k_sorted, centers, cells, m)
        coeffs = project_coeffs(f, net)
        want = _reference_coeffs(f, net)
        assert np.max(np.abs(coeffs - want)) <= 1e-14
        err = net_approximation_error(f, net)
        assert abs(err - _reference_error(f, net, quantize(want, net.m))) <= 1e-14
        multi += 1 < net.n_centers < len(q)
    assert multi >= 30


def test_net_takes_one_transform_of_f(tmp_path, monkeypatch):
    from delsarte import cli, nets
    from delsarte.campaigns import net_campaign

    calls = []

    def counting_dft(f):
        calls.append(f.spec)
        return dft(f)

    monkeypatch.setattr(nets, "dft", counting_dft)
    path = tmp_path / "z6.json"
    path.write_text('{"version": 1, "group": [6], "W": [[5], [0], [1]], "Q": [[0], [1], [2], [3], [4], [5]]}')
    assert cli.main(["net", "--instance", str(path), "--epsilon", "0.05", "--out", str(tmp_path / "n.json")]) == 0
    assert len(calls) == 1
    calls.clear()
    result = net_campaign(seed=3, count=4)
    assert result.ok and len(calls) == result.count
