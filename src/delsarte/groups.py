"""Finite abelian group arithmetic: elements, characters, subgroups.

A group is a product of cyclic factors Z_n1 x ... x Z_nd carrying the
counting measure. Elements and characters are residue tuples; the
mixed-radix rank of a tuple (last coordinate fastest) fixes the canonical
enumeration order used by every table in this package: function values,
spectra, LP rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EmptySetError, GroupMismatch, InvalidSpec, SnfOverflow

_SNF_LIMIT = 2**31


def make_group(orders: Sequence[int]) -> "GroupSpec":
    """Build the product of cyclic groups with the given orders."""
    return GroupSpec(tuple(int(n) for n in orders))


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """A finite abelian group Z_n1 x ... x Z_nd with counting Haar measure.

    ``measure_weight`` is the mass of a single point and is fixed to 1; the
    dual group then carries weight 1/|G| per character so that Fourier
    inversion holds exactly (see :mod:`delsarte.fourier`).
    """

    orders: tuple[int, ...]
    measure_weight: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.orders, tuple):
            object.__setattr__(self, "orders", tuple(self.orders))
        if len(self.orders) == 0:
            raise InvalidSpec("a group needs at least one cyclic factor")
        for n in self.orders:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise InvalidSpec(f"cyclic orders must be integers >= 1, got {self.orders!r}")
        if self.measure_weight != 1:
            raise InvalidSpec("measure_weight is fixed to 1 (counting measure)")

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def exponent(self) -> int:
        """Least common multiple of the cyclic orders."""
        return math.lcm(*self.orders)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coords: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def dual(self, coords: Sequence[int]) -> "DualElement":
        return DualElement(self, tuple(coords))

    def trivial_character(self) -> "DualElement":
        return DualElement(self, (0,) * self.rank)

    def index_of(self, coords: Sequence[int]) -> int:
        idx = 0
        for c, n in zip(coords, self.orders):
            idx = idx * n + (int(c) % n)
        return idx

    def coords_at(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.order:
            raise IndexError(f"index {index} out of range for group of order {self.order}")
        out = []
        for n in reversed(self.orders):
            index, r = divmod(index, n)
            out.append(r)
        return tuple(reversed(out))

    def element_at(self, index: int) -> "GroupElement":
        return _element_at(GroupElement, self, index)

    def dual_at(self, index: int) -> "DualElement":
        return _element_at(DualElement, self, index)

    def elements(self) -> Iterator["GroupElement"]:
        for i in range(self.order):
            yield self.element_at(i)

    def duals(self) -> Iterator["DualElement"]:
        for i in range(self.order):
            yield self.dual_at(i)


@functools.lru_cache(maxsize=4096)
def _element_at(cls: type, spec: GroupSpec, index: int):
    """One shared instance per (type, group, index). Elements are immutable
    values, so what keeps many of them (the instances, orbit bases and
    certificates of small reduced groups) holds each value once; bounded at
    4096 entries, about 1 MB."""
    return cls(spec, spec.coords_at(index))


def index_array(spec: GroupSpec, coords) -> np.ndarray:
    """Canonical indices of rows of residues, reduced modulo the orders: the
    array form of :meth:`GroupSpec.index_of`."""
    radix = [math.prod(spec.orders[j + 1 :]) for j in range(spec.rank)]
    return np.asarray(coords, dtype=np.int64).reshape(-1, spec.rank) % spec.orders @ radix


def _residues(spec: GroupSpec, coords: Sequence[int]) -> tuple[int, ...]:
    """coords reduced modulo the orders, checked against the rank."""
    if len(coords) != spec.rank:
        raise GroupMismatch(f"coordinate tuple of length {len(coords)} on a rank-{spec.rank} group")
    return tuple(int(c) % n for c, n in zip(coords, spec.orders))


def _require_same_spec(a: GroupSpec, b: GroupSpec) -> None:
    if a != b:
        raise GroupMismatch(f"group mismatch: {a.orders} vs {b.orders}")


@dataclass(frozen=True, slots=True)
class GroupElement:
    """Group element as a tuple of residues, reduced at construction."""

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _residues(self.spec, self.coords))

    @property
    def index(self) -> int:
        return self.spec.index_of(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        _require_same_spec(self.spec, other.spec)
        return GroupElement(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.spec, tuple(-c for c in self.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scale(self, k: int) -> "GroupElement":
        return GroupElement(self.spec, tuple(k * c for c in self.coords))


@dataclass(frozen=True, slots=True)
class DualElement:
    """Character of the group, labelled by residues of the same shape.

    The character acts by chi(x) = exp(2 pi i sum_j y_j x_j / n_j); its
    phase is computed as an exact rational before a single trigonometric
    evaluation, so repeated arithmetic never accumulates phase drift.
    """

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", _residues(self.spec, self.coords))

    @property
    def index(self) -> int:
        return self.spec.index_of(self.coords)

    def conjugate(self) -> "DualElement":
        return DualElement(self.spec, tuple(-c for c in self.coords))

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_self_conjugate(self) -> bool:
        return all((2 * c) % n == 0 for c, n in zip(self.coords, self.spec.orders))

    def __add__(self, other: "DualElement") -> "DualElement":
        _require_same_spec(self.spec, other.spec)
        return DualElement(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "DualElement":
        return self.conjugate()

    def __sub__(self, other: "DualElement") -> "DualElement":
        return self + other.conjugate()

    def phase(self, x: GroupElement) -> Fraction:
        return char_phase(self, x)

    def __call__(self, x: GroupElement) -> complex:
        return char_eval(self, x)


def char_phase(y: DualElement, x: GroupElement) -> Fraction:
    """Exact phase t in [0, 1) with chi_y(x) = exp(2 pi i t)."""
    _require_same_spec(y.spec, x.spec)
    t = Fraction(0)
    for yc, xc, n in zip(y.coords, x.coords, y.spec.orders):
        t += Fraction(yc * xc, n)
    return t % 1


def char_eval(y: DualElement, x: GroupElement) -> complex:
    """Evaluate the character; the result always has modulus 1."""
    t = float(char_phase(y, x))
    angle = 2.0 * math.pi * t
    return complex(math.cos(angle), math.sin(angle))


def difference_set(w: Iterable[GroupElement]) -> frozenset[GroupElement]:
    """All pairwise differences a - b of members of ``w``."""
    members = list(w)
    if not members:
        raise EmptySetError("difference set of an empty set")
    spec = members[0].spec
    for m in members:
        _require_same_spec(spec, m.spec)
    return frozenset(a - b for a in members for b in members)


# ---------------------------------------------------------------------------
# Smith normal form over the integers
# ---------------------------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _guard_rows(*rows: list[int]) -> None:
    for row in rows:
        for x in row:
            if abs(x) >= _SNF_LIMIT:
                raise SnfOverflow(f"intermediate entry {x} exceeds the 2**31 guard")


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Diagonalize an integer matrix: returns (d, u, v) with u @ mat @ v = d.

    u and v are unimodular; the diagonal of d is nonnegative and each entry
    divides the next. Pivots are chosen by smallest absolute value, which
    keeps intermediate growth moderate at desk scale; any entry reaching
    2**31 aborts with SnfOverflow rather than continuing.
    """
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    for row in a:
        if len(row) != n:
            raise ValueError("ragged matrix")
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i: int, j: int, q: int) -> None:
        # row_i <- row_i + q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        _guard_rows(a[i], u[i])

    def add_col(i: int, j: int, q: int) -> None:
        # col_i <- col_i + q * col_j
        for row in a:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]
        _guard_rows([row[i] for row in a], [row[i] for row in v])

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(a[i][j])
                if x != 0 and (best is None or x < best):
                    best, pivot = x, (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            cleared = True
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        swap_rows(i, t)
                        cleared = False
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        cleared = False
            if not cleared:
                continue
            # the pivot must divide every remaining entry
            p = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    # off-diagonal residue would mean a logic error
    for i in range(m):
        for j in range(n):
            if i != j and a[i][j] != 0:
                raise AssertionError("smith normal form did not diagonalize")
    return d, u, v


# ---------------------------------------------------------------------------
# Subgroups
# ---------------------------------------------------------------------------


def _closure_words(
    spec: GroupSpec, gens: Sequence[GroupElement]
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Close {0} under addition of the generators, tracking for each element
    one word (nonnegative generator multiplicities) that produces it."""
    zero = spec.zero()
    words: dict[tuple[int, ...], tuple[int, ...]] = {zero.coords: (0,) * len(gens)}
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


class Subgroup:
    """An enumerated subgroup with a canonical cyclic-factor decomposition.

    ``canonical_orders`` are the invariant factors m_1 | m_2 | ... of the
    subgroup; ``to_canonical``/``from_canonical`` are mutually inverse group
    isomorphisms between subgroup elements (in parent coordinates) and the
    canonical product group, so the subgroup gets a dual of its own.
    """

    def __init__(
        self,
        parent: GroupSpec,
        elements: Sequence[GroupElement],
        generators: Sequence[GroupElement],
        canonical_orders: tuple[int, ...],
        to_map: dict[GroupElement, GroupElement],
        from_map: dict[GroupElement, GroupElement],
    ) -> None:
        self.parent = parent
        self.elements = tuple(sorted(elements, key=lambda e: e.index))
        self.generators = tuple(generators)
        self.canonical_orders = canonical_orders
        self._to = to_map
        self._from = from_map
        self._members = frozenset(self.elements)

    @classmethod
    def from_generators(cls, parent: GroupSpec, generators: Iterable[GroupElement]) -> "Subgroup":
        gens: list[GroupElement] = []
        for g in generators:
            _require_same_spec(parent, g.spec)
            if not g.is_zero() and g not in gens:
                gens.append(g)
        words = _closure_words(parent, gens)
        size = len(words)
        k = len(gens)
        d = parent.rank

        if k == 0:
            canonical_orders: tuple[int, ...] = (1,)
            keep: list[int] = []
            u2: list[list[int]] = []
            tdiag: list[int] = []
        else:
            # relation lattice of the word map Z^k -> G: kernel of [A | diag(orders)]
            mat = [
                [gens[c].coords[r] for c in range(k)]
                + [parent.orders[r] if c == r else 0 for c in range(d)]
                for r in range(d)
            ]
            dd, _, vv = smith_normal_form(mat)
            for j in range(d):
                if dd[j][j] == 0:
                    raise AssertionError("relation matrix lost full rank")
            rel = [[vv[i][j] for j in range(d, k + d)] for i in range(k)]
            tt, u2, _ = smith_normal_form(rel)
            tdiag = [tt[i][i] for i in range(k)]
            if any(t <= 0 for t in tdiag):
                raise AssertionError("kernel lattice not of full rank")
            if math.prod(tdiag) != size:
                raise AssertionError("invariant factors do not match the subgroup order")
            keep = [i for i, t in enumerate(tdiag) if t > 1]
            canonical_orders = tuple(tdiag[i] for i in keep) or (1,)

        canonical = GroupSpec(canonical_orders)
        to_map: dict[GroupElement, GroupElement] = {}
        for coords, word in words.items():
            if keep:
                ccoords = tuple(
                    sum(u2[i][j] * word[j] for j in range(k)) % tdiag[i] for i in keep
                )
            else:
                ccoords = (0,)
            to_map[GroupElement(parent, coords)] = canonical.element_at(canonical.index_of(ccoords))
        if len(set(to_map.values())) != size or canonical.order != size:
            raise AssertionError("canonical decomposition is not a bijection")
        from_map = {c: g for g, c in to_map.items()}
        return cls(parent, tuple(to_map.keys()), tuple(gens), canonical_orders, to_map, from_map)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index_in_parent(self) -> int:
        return self.parent.order // self.order

    @functools.cached_property
    def canonical_spec(self) -> GroupSpec:
        # the spec object the canonical elements carry, shared, not rebuilt
        return next(iter(self._from)).spec

    @functools.cached_property
    def _unit_images(self) -> tuple[tuple[int, ...], ...]:
        """Parent coordinates of the generators of the canonical factors."""
        canonical = self.canonical_spec
        return tuple(
            self.from_canonical(canonical.element([int(i == j) for j in range(canonical.rank)])).coords
            for i in range(canonical.rank)
        )

    @functools.cached_property
    def restriction_map(self) -> np.ndarray:
        """Canonical index in the subgroup's dual of the restriction of every
        parent character, in canonical order: :func:`restrict_character` on
        the whole dual at once, with the same exactness check. The parent's
        coordinates are built here, so no parent-size coords_table is cached."""
        parent = self.parent
        lcm = parent.exponent
        units = np.array(self._unit_images, dtype=np.int64) * [lcm // n for n in parent.orders]
        coords = np.indices(parent.orders, dtype=np.int64).reshape(parent.rank, -1)
        p = (units @ coords % lcm).T * self.canonical_orders
        if np.any(p % lcm):
            raise AssertionError("character order does not divide the factor order")
        out = index_array(self.canonical_spec, p // lcm)
        out.setflags(write=False)
        return out

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def __contains__(self, g: GroupElement) -> bool:
        return g in self._members

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def to_canonical(self, g: GroupElement) -> GroupElement:
        try:
            return self._to[g]
        except KeyError:
            raise GroupMismatch(f"{g.coords} is not a member of the subgroup") from None

    def from_canonical(self, h: GroupElement) -> GroupElement:
        try:
            return self._from[h]
        except KeyError:
            raise GroupMismatch(f"{h.coords} is not a canonical coordinate of the subgroup") from None


def whole_group(spec: GroupSpec) -> Subgroup:
    """The group viewed as a subgroup of itself."""
    gens = [
        GroupElement(spec, tuple(1 if j == i else 0 for j in range(spec.rank)))
        for i in range(spec.rank)
        if spec.orders[i] > 1
    ]
    return Subgroup.from_generators(spec, gens)


def generated_subgroup(w: Iterable[GroupElement]) -> Subgroup:
    """Smallest subgroup containing every pairwise difference of ``w``.

    Generators are pruned greedily in canonical order, then closed by
    repeated addition until a fixpoint.
    """
    diffs = difference_set(w)
    spec = next(iter(diffs)).spec
    gens: list[GroupElement] = []
    known = {spec.zero().coords}
    for vel in sorted(diffs, key=lambda e: e.index):
        if vel.coords not in known:
            gens.append(vel)
            known = set(_closure_words(spec, gens).keys())
    return Subgroup.from_generators(spec, gens)


def restrict_character(chi: DualElement, h: Subgroup) -> DualElement:
    """Restriction of a parent character to the subgroup, expressed as a
    character of the subgroup's canonical group.

    Phases are integer numerators over the parent exponent L: chi(x) =
    exp(2 pi i p(x) / L), and the canonical coordinate on a factor of order
    m is p(e) * m / L for the factor's generator e, which must be exact.
    """
    parent = chi.spec
    _require_same_spec(parent, h.parent)
    lcm = parent.exponent
    y = [c * (lcm // n) for c, n in zip(chi.coords, parent.orders)]
    coords = []
    for m, e in zip(h.canonical_orders, h._unit_images):
        p = sum(a * b for a, b in zip(y, e)) * m
        if p % lcm:
            raise AssertionError("character order does not divide the factor order")
        coords.append(p // lcm % m)
    return DualElement(h.canonical_spec, tuple(coords))


def character_extensions(gamma: DualElement, h: Subgroup) -> tuple[DualElement, ...]:
    """All characters of the parent group restricting to ``gamma`` on ``h``,
    in canonical order; there are exactly [G:H] of them."""
    _require_same_spec(gamma.spec, h.canonical_spec)
    return tuple(h.parent.dual_at(int(i)) for i in np.flatnonzero(h.restriction_map == gamma.index))
