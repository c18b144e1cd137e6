import pytest

from delsarte import DelsarteInstance, make_group


def full_dual(spec):
    return frozenset(spec.duals())


def build_instance(orders, w_coords, q_coords=None):
    spec = make_group(orders)
    w = frozenset(spec.element(c) for c in w_coords)
    if q_coords is None:
        q = full_dual(spec)
    else:
        q = frozenset(spec.dual(c) for c in q_coords)
    return DelsarteInstance.from_sets(spec, w, q)


@pytest.fixture
def z4_interval():
    return build_instance([4], [(3,), (0,), (1,)])


@pytest.fixture
def z6_interval():
    return build_instance([6], [(5,), (0,), (1,)])
