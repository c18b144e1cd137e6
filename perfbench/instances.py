"""Instance generation for the benchmark, in plain coordinates.

Nothing here imports the package under test: the benchmark draws its inputs
itself and hands the package only instance files. Groups are tuples of
cyclic orders, elements and characters are coordinate tuples, and an
instance is the JSON object ``delsarte solve --instance`` reads.

Base sets. ``reference.py`` draws the ``certify-small`` and ``reduce-lift``
instances once, with a fixed base seed, and stores them in ``reference.json``
together with the expected status and value. A run's ``--seed`` then maps every base
instance through a random automorphism of its group and shuffles the order.
An automorphism permutes the LP's rows and columns, so status and value are
unchanged and the cost mix stays the same from seed to seed, while the files
the package sees differ. That keeps the seed-to-seed spread a property of the
program rather than of the draw, and lets the reference gate every seed.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Sequence

FORMAT_VERSION = 1
BASE_SEED = 0

Coords = tuple[int, ...]
Orders = tuple[int, ...]

# solve-large: Z_n symmetric intervals (n, half-width) and box windows
# (orders, half-widths); Q is the whole dual in every case
INTERVAL_LADDER: tuple[tuple[int, int], ...] = (
    (96, 3),
    (128, 4),
    (192, 5),
    (256, 6),
    (384, 8),
    (512, 10),
)
BOX_LADDER: tuple[tuple[Orders, tuple[int, int]], ...] = (
    ((12, 12), (1, 1)),
    ((16, 16), (1, 1)),
    ((8, 32), (1, 2)),
)

# warm-up instances: same pipelines, groups outside every timed set
WARMUP = {
    "solve-large": ((80,), 3),
    "certify-small": ((2, 10),),
    "reduce-lift": ((8, 32), 0),
}


def group_order(orders: Orders) -> int:
    return math.prod(orders)


def elements(orders: Orders) -> list[Coords]:
    """All coordinate tuples in canonical (C) order."""
    return [tuple(c) for c in itertools.product(*(range(n) for n in orders))]


def negate(orders: Orders, c: Coords) -> Coords:
    return tuple((-x) % n for x, n in zip(c, orders))


def instance_dict(orders: Orders, w: Iterable[Coords], q: Iterable[Coords]) -> dict:
    return {
        "version": FORMAT_VERSION,
        "group": list(orders),
        "W": [list(c) for c in sorted(set(w))],
        "Q": [list(c) for c in sorted(set(q))],
    }


def interval_instance(n: int, half_width: int) -> dict:
    w = {((k * s) % n,) for k in range(half_width + 1) for s in (1, -1)}
    return instance_dict((n,), w, elements((n,)))


def box_instance(orders: Orders, half_widths: Sequence[int]) -> dict:
    ranges = [range(-h, h + 1) for h in half_widths]
    w = {tuple(x % n for x, n in zip(c, orders)) for c in itertools.product(*ranges)}
    return instance_dict(orders, w, elements(orders))


def solve_large_ladder() -> list[tuple[str, dict]]:
    out = [(f"Z{n}-interval-h{h}", interval_instance(n, h)) for n, h in INTERVAL_LADDER]
    for orders, hw in BOX_LADDER:
        name = "Z" + "xZ".join(map(str, orders)) + "-box-" + "x".join(map(str, hw))
        out.append((name, box_instance(orders, hw)))
    return out


def reduce_lift_instance(orders: Orders, factor: int, w: Sequence[int], s: Sequence[int]) -> dict:
    """Window on one cyclic factor, Q the union of the restriction fibers
    over ``s``: every character whose coordinate on that factor lies in s."""
    rank = len(orders)

    def on_factor(x: int) -> Coords:
        return tuple(x if i == factor else 0 for i in range(rank))

    s_set = set(s)
    q = [y for y in elements(orders) if y[factor] in s_set]
    return instance_dict(orders, [on_factor(x) for x in w], q)


# ---------------------------------------------------------------------------
# seeded automorphisms
# ---------------------------------------------------------------------------


def random_automorphism(rng: random.Random, orders: Orders) -> tuple[list[int], list[int]]:
    """A unit per factor and a permutation of factors of equal order."""
    units = []
    for n in orders:
        choices = [u for u in range(1, max(n, 2)) if math.gcd(u, n) == 1] or [1]
        units.append(rng.choice(choices))
    perm = list(range(len(orders)))
    for n in sorted(set(orders)):
        slots = [i for i, m in enumerate(orders) if m == n]
        shuffled = slots[:]
        rng.shuffle(shuffled)
        for src, dst in zip(slots, shuffled):
            perm[src] = dst
    return units, perm


def apply_automorphism(inst: dict, units: Sequence[int], perm: Sequence[int]) -> dict:
    """Image of the instance under x -> sigma(x) with sigma(x)[perm[i]] = u_i x_i.

    Characters move by the inverse transpose, y'[perm[i]] = u_i^-1 y_i, so
    f is admissible for the original exactly when f o sigma^-1 is admissible
    for the image, with the same total mass.
    """
    orders = tuple(inst["group"])
    inv = [pow(u, -1, n) if n > 1 else 1 for u, n in zip(units, orders)]

    def move(c: Sequence[int], mult: Sequence[int]) -> Coords:
        out = [0] * len(orders)
        for i, x in enumerate(c):
            out[perm[i]] = (mult[i] * x) % orders[i]
        return tuple(out)

    return instance_dict(
        orders,
        (move(c, units) for c in inst["W"]),
        (move(y, inv) for y in inst["Q"]),
    )


def independent_lp(inst: dict):
    """The extremal problem as dense LP data built straight from the
    definition, for an outside solver: one variable per {y, -y} class of
    Q cap -Q, columns sum_y cos(2 pi <g, y>), f(0) = 1, f <= 0 off W.

    Returns (c, a_eq, b_eq, a_ub, b_ub) for ``minimize c.x`` (the negated
    total mass), or None when Q cap -Q is empty.
    """
    import numpy as np

    orders = tuple(inst["group"])
    q = {tuple(y) for y in inst["Q"]}
    classes: dict[Coords, list[Coords]] = {}
    for y in q:
        if negate(orders, y) in q:
            classes.setdefault(min(y, negate(orders, y)), []).append(y)
    if not classes:
        return None
    keys = sorted(classes)
    pts = np.array(elements(orders), dtype=float)
    inv_n = 1.0 / np.array(orders, dtype=float)
    cols = np.empty((len(pts), len(keys)))
    for j, key in enumerate(keys):
        ys = np.array(sorted(set(classes[key])), dtype=float)
        cols[:, j] = np.cos(2.0 * np.pi * (pts * inv_n) @ ys.T).sum(axis=1)
    w = {tuple(c) for c in inst["W"]}
    off = [i for i, g in enumerate(elements(orders)) if g not in w]
    zero_row = cols[0:1, :]
    trivial = (0,) * len(orders)
    c = np.zeros(len(keys))
    if trivial in classes:
        c[keys.index(trivial)] = -float(group_order(orders))
    return c, zero_row, np.array([1.0]), cols[off, :], np.zeros(len(off))
