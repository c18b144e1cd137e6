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
from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import EmptySetError, GroupMismatch, InvalidSpec, SnfOverflow

_SNF_LIMIT = 2**31


def make_group(orders: Sequence[int]) -> "GroupSpec":
    """Build the product of cyclic groups with the given orders."""
    return GroupSpec(tuple(int(n) for n in orders))


@dataclass(frozen=True, slots=True)
class GroupSpec:
    """A finite abelian group Z_n1 x ... x Z_nd with counting Haar measure.

    Every point has mass 1; the dual group then carries weight 1/|G| per
    character so that Fourier inversion holds exactly (see
    :mod:`delsarte.fourier`).
    """

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.orders, tuple):
            object.__setattr__(self, "orders", tuple(self.orders))
        if len(self.orders) == 0:
            raise InvalidSpec("a group needs at least one cyclic factor")
        for n in self.orders:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1:
                raise InvalidSpec(f"cyclic orders must be integers >= 1, got {self.orders!r}")

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
    values, so what keeps many of them (the programs and certificates of
    small reduced groups, the cells of a net) holds each value once; bounded
    at 4096 entries, about 1 MB."""
    return cls(spec, spec.coords_at(index))


def index_array(spec: GroupSpec, coords) -> np.ndarray:
    """Canonical indices of rows of residues, reduced modulo the orders: the
    array form of :meth:`GroupSpec.index_of`."""
    radix = [math.prod(spec.orders[j + 1 :]) for j in range(spec.rank)]
    return np.asarray(coords, dtype=np.int64).reshape(-1, spec.rank) % spec.orders @ radix


@functools.lru_cache(maxsize=128)
def coords_table(spec: GroupSpec) -> np.ndarray:
    """(|G|, d) residue tuples in canonical order."""
    idx = np.arange(spec.order, dtype=np.int64)
    out = np.empty((spec.order, spec.rank), dtype=np.int64)
    for j in range(spec.rank - 1, -1, -1):
        n = spec.orders[j]
        out[:, j] = idx % n
        idx //= n
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=128)
def negation(spec: GroupSpec) -> np.ndarray:
    """Canonical index of -g for every g in canonical order; the same
    permutation sends each character to its conjugate."""
    out = index_array(spec, -coords_table(spec))
    out.setflags(write=False)
    return out


def negation_classes(spec: GroupSpec, mask: np.ndarray) -> np.ndarray:
    """Ascending canonical indices of the classes {g, -g} (conjugation orbits on
    the dual) meeting the boolean ``mask``, each by its smallest member in it."""
    neg = negation(spec)
    return np.flatnonzero(mask & ~(mask[neg] & (neg < np.arange(spec.order))))


def _require_same_spec(a: GroupSpec, b: GroupSpec) -> None:
    if a != b:
        raise GroupMismatch(f"group mismatch: {a.orders} vs {b.orders}")


def index_set(spec: GroupSpec, rows) -> np.ndarray:
    """Sorted, distinct canonical indices of rows of residues (reduced
    modulo the orders; each must fit in int64), as a read-only int64 array:
    the one way from residues into the index core."""
    idx = np.sort(index_array(spec, rows))
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = idx[1:] != idx[:-1]  # np.unique costs several times more
    idx = idx[keep]
    idx.setflags(write=False)
    return idx


def element_indices(spec: GroupSpec, members: Iterable["_Residues"]) -> np.ndarray:
    """:func:`index_set` of a set of elements or characters of ``spec``. A
    member of another group raises GroupMismatch."""
    coords = []
    for m in members:
        if m.spec is not spec:
            _require_same_spec(spec, m.spec)
        coords.append(m.coords)
    return index_set(spec, coords)


_R = TypeVar("_R", bound="_Residues")


@dataclass(frozen=True, slots=True)
class _Residues:
    """A tuple of residues on a group, reduced modulo the orders at
    construction: the arithmetic that elements and characters share. Each
    operation returns its operand's own type; a :class:`GroupElement` and a
    :class:`DualElement` never compare equal."""

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        rank = self.spec.rank
        if len(self.coords) != rank:
            raise GroupMismatch(f"coordinate tuple of length {len(self.coords)} on a rank-{rank} group")
        object.__setattr__(self, "coords", tuple(int(c) % n for c, n in zip(self.coords, self.spec.orders)))

    @property
    def index(self) -> int:
        return self.spec.index_of(self.coords)

    def __add__(self: _R, other: _R) -> _R:
        _require_same_spec(self.spec, other.spec)
        return type(self)(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self: _R) -> _R:
        return type(self)(self.spec, tuple(-c for c in self.coords))

    def __sub__(self: _R, other: _R) -> _R:
        return self + (-other)


@dataclass(frozen=True, slots=True)
class GroupElement(_Residues):
    """Group element as a tuple of residues."""

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


@dataclass(frozen=True, slots=True)
class DualElement(_Residues):
    """Character of the group, labelled by residues of the same shape.

    The character acts by chi(x) = exp(2 pi i sum_j y_j x_j / n_j); its
    phase is computed as an exact rational before a single trigonometric
    evaluation, so repeated arithmetic never accumulates phase drift.
    """

    def conjugate(self) -> "DualElement":
        return -self

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_self_conjugate(self) -> bool:
        return all((2 * c) % n == 0 for c, n in zip(self.coords, self.spec.orders))

    def __call__(self, x: GroupElement) -> complex:
        return char_eval(self, x)


def char_phase(y: DualElement, x: GroupElement) -> Fraction:
    """Exact phase t in [0, 1) with chi_y(x) = exp(2 pi i t)."""
    _require_same_spec(y.spec, x.spec)
    t = Fraction(0)
    for yc, xc, n in zip(y.coords, x.coords, y.spec.orders):
        t += Fraction(yc * xc, n)
    return t % 1


def phase_numerators(spec: GroupSpec, chars, points) -> np.ndarray:
    """Integer phases p with chi(g) = exp(2 pi i p / L), L the exponent, of
    every character against every point, both rows of residues: the C-ordered
    int64 (len(chars), len(points)) matrix (chars * L/n_j) @ points^T mod L,
    i.e. L * :func:`char_phase`. The pairing is symmetric in its two sides."""
    lcm = spec.exponent
    weights = np.array([lcm // n for n in spec.orders], dtype=np.int64)
    chars = np.asarray(chars, dtype=np.int64).reshape(-1, spec.rank)
    points = np.asarray(points, dtype=np.int64).reshape(-1, spec.rank)
    return (chars * weights) @ points.T % lcm


def character_table(spec: GroupSpec, chars, points) -> np.ndarray:
    """chi(g) of every character against every point, both rows of residues:
    the complex (len(chars), len(points)) table, each entry cos(2 pi t) +
    i sin(2 pi t) with t = p / L from :func:`phase_numerators`, rounded
    exactly as :func:`char_eval` rounds one value. The one tabulation of
    character values in the package."""
    angle = 2.0 * np.pi * (phase_numerators(spec, chars, points) / spec.exponent)
    return np.cos(angle) + 1j * np.sin(angle)


def char_eval(y: DualElement, x: GroupElement) -> complex:
    """Evaluate the character; the result always has modulus 1."""
    t = float(char_phase(y, x))
    angle = 2.0 * math.pi * t
    return complex(math.cos(angle), math.sin(angle))


def _set_indices(w: Iterable[GroupElement]) -> tuple[GroupSpec, np.ndarray]:
    """The group of the nonempty set ``w`` and its :func:`element_indices`."""
    members = list(w)
    if not members:
        raise EmptySetError("difference set of an empty set")
    spec = members[0].spec
    return spec, element_indices(spec, members)


def _difference_indices(spec: GroupSpec, w_index: np.ndarray) -> np.ndarray:
    """Sorted canonical indices of the difference set of the members with
    canonical indices ``w_index``."""
    c = np.stack(np.unravel_index(w_index, spec.orders), axis=1)
    return np.unique(index_array(spec, c[:, None] - c[None]))


def difference_set(w: Iterable[GroupElement]) -> frozenset[GroupElement]:
    """All pairwise differences a - b of members of ``w``."""
    spec, w_index = _set_indices(w)
    return frozenset(spec.element_at(int(i)) for i in _difference_indices(spec, w_index))


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


def _adjoin(
    parent: GroupSpec, coords: np.ndarray, words: np.ndarray, g: GroupElement
) -> tuple[np.ndarray, np.ndarray]:
    """Close a subgroup H under one more generator g, coset by coset: H + <g>
    is the union of H + m*g for 0 <= m < m_g, where m_g is the first multiple
    of g back in H. ``coords`` holds the members of H (parent residues, one
    row each) and ``words`` their generator multiplicities (one column per
    generator so far); both come back extended."""
    gv = np.array(g.coords, dtype=np.int64)
    multiples = index_array(parent, np.arange(1, parent.exponent + 1)[:, None] * gv)
    m = 1 + int(np.argmax(np.isin(multiples, index_array(parent, coords))))
    coords = ((coords + np.arange(m)[:, None, None] * gv) % parent.orders).reshape(-1, parent.rank)
    words = np.column_stack([np.tile(words, (m, 1)), np.repeat(np.arange(m), len(words))])
    return coords, words


def _decompose(
    parent: GroupSpec, gens: Sequence[GroupElement], coords: np.ndarray, words: np.ndarray
) -> "Subgroup":
    """Canonical decomposition of the closure of ``gens``, given each member
    with one word, by two Smith normal forms: the relation lattice of the word
    map Z^k -> G, then its invariant factors t_i. A member's canonical
    coordinates are (u2 @ word) mod t_i, which does not depend on the word."""
    size, k, d = len(coords), len(gens), parent.rank
    if k == 0:
        return Subgroup(parent, (), (1,), np.zeros(1, dtype=np.int64))
    # relation lattice of the word map Z^k -> G: kernel of [A | diag(orders)]
    mat = [
        [gens[c].coords[r] for c in range(k)] + [parent.orders[r] if c == r else 0 for c in range(d)]
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
    canonical = GroupSpec(tuple(tdiag[i] for i in keep))
    # |u2| < 2**31 (the SNF guard) and words < exponent <= |G|: int64 is exact
    canonical_index = index_array(canonical, words @ np.array(u2, dtype=np.int64)[keep].T)
    if canonical.order != size or np.any(np.bincount(canonical_index, minlength=size) != 1):
        raise AssertionError("canonical decomposition is not a bijection")
    embedding = np.empty(size, dtype=np.int64)
    embedding[canonical_index] = index_array(parent, coords)
    return Subgroup(parent, gens, canonical.orders, embedding)


class Subgroup:
    """A subgroup held as the embedding of its canonical cyclic-factor
    decomposition into the parent.

    ``canonical_orders`` are the invariant factors m_1 | m_2 | ... of the
    subgroup and ``canonical_spec`` their product group, so the subgroup gets
    a dual of its own. ``embedding[i]`` is the parent index of the member
    with canonical index i; ``position`` is its inverse over the parent, -1
    off the subgroup. ``to_canonical``/``from_canonical`` read these two
    read-only arrays and are mutually inverse group isomorphisms.
    """

    def __init__(
        self,
        parent: GroupSpec,
        generators: Sequence[GroupElement],
        canonical_orders: tuple[int, ...],
        embedding: np.ndarray,
    ) -> None:
        self.parent = parent
        self.generators = tuple(generators)
        self.canonical_orders = tuple(canonical_orders)
        self.canonical_spec = GroupSpec(self.canonical_orders)
        self.embedding = embedding
        self.position = np.full(parent.order, -1, dtype=np.int64)
        self.position[embedding] = np.arange(len(embedding))
        embedding.setflags(write=False)
        self.position.setflags(write=False)

    @classmethod
    def from_generators(cls, parent: GroupSpec, generators: Iterable[GroupElement]) -> "Subgroup":
        gens: list[GroupElement] = []
        for g in generators:
            _require_same_spec(parent, g.spec)
            if not g.is_zero() and g not in gens:
                gens.append(g)
        coords, words = np.zeros((1, parent.rank), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
        for g in gens:
            coords, words = _adjoin(parent, coords, words, g)
        return _decompose(parent, gens, coords, words)

    @property
    def order(self) -> int:
        return len(self.embedding)

    @property
    def index_in_parent(self) -> int:
        return self.parent.order // self.order

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        """The members, in the parent's canonical order."""
        return tuple(self.parent.element_at(int(i)) for i in np.sort(self.embedding))

    @functools.cached_property
    def _unit_images(self) -> tuple[tuple[int, ...], ...]:
        """Parent coordinates of the generators of the canonical factors."""
        canonical = self.canonical_spec
        units = [canonical.index_of([int(i == j) for j in range(canonical.rank)]) for i in range(canonical.rank)]
        return tuple(self.parent.coords_at(int(self.embedding[u])) for u in units)

    @functools.cached_property
    def restriction_map(self) -> np.ndarray:
        """Canonical index in the subgroup's dual of the restriction of every
        parent character, in canonical order: :func:`restrict_character` on
        the whole dual at once, with the same exactness check. The parent's
        coordinates are built here, so no parent-size coords_table is cached."""
        parent = self.parent
        lcm = parent.exponent
        coords = np.indices(parent.orders, dtype=np.int64).reshape(parent.rank, -1).T
        p = phase_numerators(parent, self._unit_images, coords).T * self.canonical_orders
        if np.any(p % lcm):
            raise AssertionError("character order does not divide the factor order")
        out = index_array(self.canonical_spec, p // lcm)
        out.setflags(write=False)
        return out

    def is_whole_group(self) -> bool:
        return self.order == self.parent.order

    def _position_of(self, g: GroupElement) -> int:
        if isinstance(g, GroupElement) and g.spec == self.parent:
            return int(self.position[g.index])
        return -1

    def __contains__(self, g: GroupElement) -> bool:
        return self._position_of(g) >= 0

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def to_canonical(self, g: GroupElement) -> GroupElement:
        i = self._position_of(g)
        if i < 0:
            raise GroupMismatch(f"{g.coords} is not a member of the subgroup")
        return self.canonical_spec.element_at(i)

    def from_canonical(self, h: GroupElement) -> GroupElement:
        if not isinstance(h, GroupElement) or h.spec != self.canonical_spec:
            raise GroupMismatch(f"{h.coords} is not a canonical coordinate of the subgroup")
        return self.parent.element_at(int(self.embedding[h.index]))


def whole_group(spec: GroupSpec) -> Subgroup:
    """The group viewed as a subgroup of itself, generated by the unit
    vectors (those of order-1 factors are zero and dropped)."""
    units = (spec.element([int(i == j) for j in range(spec.rank)]) for i in range(spec.rank))
    return Subgroup.from_generators(spec, units)


def generated_subgroup(w: Iterable[GroupElement]) -> Subgroup:
    """Smallest subgroup containing every pairwise difference of ``w``.

    Generators are pruned greedily in canonical order: the next one is the
    first difference outside the subgroup generated so far.
    """
    return generated_subgroup_from_index(*_set_indices(w))


def generated_subgroup_from_index(spec: GroupSpec, w_index: np.ndarray) -> Subgroup:
    """:func:`generated_subgroup` of the members of ``spec`` with canonical
    indices ``w_index``."""
    diffs = _difference_indices(spec, w_index)
    gens: list[GroupElement] = []
    coords, words = np.zeros((1, spec.rank), dtype=np.int64), np.zeros((1, 0), dtype=np.int64)
    while True:
        outside = diffs[~np.isin(diffs, index_array(spec, coords))]
        if not len(outside):
            return _decompose(spec, gens, coords, words)
        gens.append(spec.element_at(int(outside[0])))
        coords, words = _adjoin(spec, coords, words, gens[-1])


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
