"""Finite groups with 0-based element indices.

Element 0 is always the identity, and the element numbering of every
construction is the BFS discovery order from the identity over the stored
generator list (frontier processed FIFO, generators tried in list order).
Repeated runs therefore number elements identically, which every
downstream enumeration relies on.

Every group is built by `_bfs_group`, which fixes its product once.  It
sees the raw product as left multipliers y -> x y, one built per element
and mapped over many y: for a permutation, the `itemgetter` that reads y
through it.  The BFS takes n |gens| raw products.  Up to CAYLEY_TABLE_MAX
elements the product reads a multiplication table ("cayley-table"),
built along the BFS tree from one left-multiplication column per
generator: n |gens| more products, and each row one read of its tree
parent's row through the column, whose multiplier is built once, in n^2
memory once every row is built.  Up to _EAGER_ROWS_MAX elements every row
is built with the group; in a larger table a row is built when first
read, after the unbuilt rows above it on its tree path, so an operation
that reads few rows builds few.  Such a table conjugates through one map
x -> g x g^-1 per stored generator g, built on the first conjugation off
the generators' own rows, so conjugation builds no other row; every other
group conjugates by two products.  Larger groups multiply the raw elements
they were built from and look the product up in a hash index:
"permutation-composition" for permutation groups, "element-index" for the
rest.  The row product `mul_row(x, ys)`, x times each element of a
sequence, is one `_compose` of ys through row x on a table and x's
multiplier mapped over ys otherwise; the closures, coset labels and the
subgroup walk multiply whole cosets with it, and a closure stops by
Lagrange's theorem once it holds more than a proper subgroup can.  Each
inverse is computed when first read, by one rule for every backing,
x^-1 = x^(m-1) read from the order m of x by repeated squaring.  The
orders come from one power walk, which reads each power x^(k+1) = x x^k
off x's row and stops after |G| steps on a product that is not a group's,
as does the power walk of a closure's first seed.  Normality is decided
on a generating set of the subgroup, by one rule (`_normal`), at most
log2 |H| conjugates per group generator instead of |H|, and none in an
abelian group.  A group or subgroup never changes after construction, so
what it determines is computed once and kept while it lives: by
`cached_property` what it reads in its own loops, by `_memo` what other
code derives from it.  A permutation group is given its element orders
when it is built, read off the same walk of each element's cycles as its
label.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, partial, wraps
from itertools import chain
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

from . import config
from .errors import InputTooLarge, NotAGroup, NotNormal, OrderBudgetExceeded

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "QuotientMap",
    "from_cayley",
    "from_permutations",
    "perm_from_cycles",
    "cycle_notation",
    "cyclic",
    "abelian",
    "dihedral",
    "quaternion",
    "symmetric",
    "alternating",
    "direct_product",
    "element_order",
    "subgroup_generated",
    "normal_closure",
    "is_normal",
    "quotient",
    "all_subgroups",
]


def _memo(f):
    """`f(obj, *args)` computed once per object and argument tuple, and
    dropped with the object; a function of the object alone keeps its value
    straight under the object."""
    cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def of_object(obj):
        try:
            return cache[obj]
        except KeyError:
            pass
        value = cache[obj] = f(obj)
        return value

    def of_arguments(obj, *args):
        try:
            return cache[obj][args]
        except KeyError:
            pass
        value = cache.setdefault(obj, {})[args] = f(obj, *args)
        return value

    return wraps(f)(of_object if f.__code__.co_argcount == 1 else of_arguments)


class FiniteGroup:
    """An immutable finite group on element indices 0..order-1.

    A plain record: `mul` is the index-level product and `mul_row` the row
    product that `_bfs_group` chose for the group's backing; `given_orders`
    holds the element orders when the construction read them off its raw
    elements, and is None otherwise; `build_conjugation_maps` builds
    `conjugation_maps` on the first conjugation when the construction gave
    it, and is None otherwise.  Each inverse is derived on its first read
    (`inv`) as x^(m-1), m the order of x.

    `mul`, `mul_row`, `label` and `element_order` read their indices
    unchecked, since they run on every product: an index outside
    range(order) gives a wrong answer or an IndexError.  The entry points
    that check are `inv`, `cct.element_order`, `subgroup_generated`,
    `normal_closure` and `Subgroup(...)`; each raises ValueError.
    """

    def __init__(self, order, mul, mul_row, generators, labels, backing, given_orders=None,
                 build_conjugation_maps=None):
        self.order = order
        self.mul = mul
        self.mul_row = mul_row
        self.generators = tuple(generators)
        self.labels = tuple(labels) if labels is not None else None
        self.backing = backing
        self.given_orders = given_orders
        self.build_conjugation_maps = build_conjugation_maps

    @cached_property
    def conjugation_maps(self) -> list[tuple[int, ...]] | None:
        """One map x -> g x g^-1 per stored generator g, built on the first
        conjugation when the construction gave a builder, and None when
        `_conjugates` multiplies instead."""
        if self.build_conjugation_maps is None:
            return None
        return self.build_conjugation_maps()

    @cached_property
    def _orders(self) -> list[int]:
        """The order of every element.  A permutation group is given its
        orders with its labels, read off each permutation's cycles by
        `from_permutations`.  Any other group walks powers, reading each
        x^(k+1) = x x^k off x's row, so a table whose rows are built on
        first read builds few: one walk of <x> sets the order of every
        power of x, since x^k has order m / gcd(m, k).  m divides |G|, so
        a walk that passes |G| steps shows a product that is not a group's
        and raises AssertionError."""
        if self.given_orders is not None:
            return self.given_orders
        orders = [0] * self.order
        for x in range(self.order):
            if not orders[x]:
                powers = [x]
                for _ in range(self.order):
                    if powers[-1] == 0:
                        break
                    powers.append(self.mul(x, powers[-1]))
                else:
                    raise AssertionError(f"no power of element {x} is the identity")
                m = len(powers)
                for k, y in enumerate(powers, 1):
                    if not orders[y]:
                        orders[y] = m // math.gcd(m, k)
        return orders

    @cached_property
    def _inverses(self) -> dict[int, int]:
        """The inverses read so far, by element."""
        return {0: 0}

    def inv(self, x: int) -> int:
        """x^-1 = x^(m-1) for x of order m, by repeated squaring when first
        read and then kept: at most 2 log2 m products once the element
        orders are known."""
        known = self._inverses
        if x in known:
            return known[x]
        if not 0 <= x < self.order:
            raise ValueError(f"element {x} is not in range({self.order})")
        y = known[x] = _power(self.mul, x, self._orders[x] - 1)
        return y

    def element_order(self, x: int) -> int:
        """Least m >= 1 with x^m = identity; always divides |G|."""
        return self._orders[x]

    def element_orders(self) -> list[int]:
        """The order of every element, by index: one shared list, computed
        on first use, so callers must not modify it."""
        return self._orders

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(self.mul(a, b) == self.mul(b, a) for a in gens for b in gens)

    def center_size(self) -> int:
        gens = self.generators
        return sum(
            1 for x in range(self.order)
            if all(self.mul(x, g) == self.mul(g, x) for g in gens)
        )

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, multiplicity) pairs; an isomorphism invariant."""
        return tuple(sorted(Counter(self.element_orders()).items()))

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, backing={self.backing!r})"


class Subgroup:
    """A subgroup of a parent FiniteGroup, stored as its member-index set."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int], _checked: bool = False):
        self.parent = parent
        self.members = frozenset(members)
        if not _checked:
            _validate_subgroup(parent, self.members)

    @property
    def order(self) -> int:
        return len(self.members)

    @cached_property
    def _sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def sorted_members(self) -> tuple[int, ...]:
        return self._sorted

    @_memo
    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup (labels inherited), generated
        by `_generating_set`, the same set `is_normal` conjugates."""
        gens = _generating_set(self) or [0]
        return _bfs_group(0, gens, self.parent.mul, self.order + 1, self.parent.label)[0]

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __le__(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and self.members <= other.members

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.order})"


def _validate_subgroup(parent: FiniteGroup, members: frozenset[int]) -> None:
    if not all(0 <= a < parent.order for a in members):
        raise ValueError(f"subgroup members must lie in range({parent.order})")
    if 0 not in members:
        raise ValueError("subgroup must contain the identity")
    if parent.order % len(members) != 0:
        raise ValueError("subgroup size must divide the parent order")
    for a in members:
        if parent.inv(a) not in members:
            raise ValueError(f"subgroup not closed under inverse at {a}")
        for b in members:
            if parent.mul(a, b) not in members:
                raise ValueError(f"subgroup not closed under product at ({a}, {b})")


@dataclass(frozen=True)
class QuotientMap:
    """A surjection G -> G/N, with the projection materialized per element."""

    source: FiniteGroup
    kernel: Subgroup
    target: FiniteGroup
    projection: tuple[int, ...]


# ---------------------------------------------------------------------------
# construction helpers


def _power(mul: Callable, x, m: int):
    """x^m under `mul` for m >= 1, by repeated squaring."""
    result = None
    while True:
        if m & 1:
            result = x if result is None else mul(result, x)
        m >>= 1
        if not m:
            return result
        x = mul(x, x)


def _compose(p: Sequence[int], q) -> tuple[int, ...]:
    """The tuple of q[p[i]] for each i: "p then q", (p*q)(i) = q(p(i)),
    matching right actions on cosets.

    The one kernel that reads a whole sequence through another: permutation
    products, Cayley-table row products, `from_cayley`'s associativity rows
    and the coset-list passes of coset enumeration.  `_perm_left` is p's
    multiplier, built once for many q.  `itemgetter` does the reads in
    C; of one index it returns the bare item and of none it raises, so
    `len(p) <= 1` is answered directly.
    """
    if len(p) > 1:
        return itemgetter(*p)(q)
    return (q[p[0]],) if p else ()


def _left_multipliers(mul: Callable) -> Callable:
    """x -> (y -> mul(x, y)), the left multipliers of a two-argument
    product, each built once for many y.  The permutation product
    `_compose` has `_perm_left`.  Every other product is a Python function
    (a lambda or a def), and has `mul.__get__`, which binds x as its first
    argument, as a method binds its instance: called from Python code, the
    bound method runs about as fast as `mul` itself."""
    return _perm_left if mul is _compose else mul.__get__


def _perm_left(p: Sequence[int]) -> Callable:
    """The left multiplier of a permutation, q -> `_compose(p, q)`, built
    once for many q: `itemgetter(*p)` for more than one point."""
    return itemgetter(*p) if len(p) > 1 else partial(_compose, p)


def _bfs_order(identity, gens: Sequence, mul: Callable,
               limit: int) -> tuple[list, dict, list[int], list[int]]:
    """Closure of `gens` from `identity` under the product `mul`, in
    canonical BFS order, with its tree; each element's left multiplier
    y -> x y (`_left_multipliers`) is built once and applied to each
    generator.

    Element a > 0 was first reached as order[parent[a]] * gens[edge[a]].
    """
    order = [identity]
    pos = {identity: 0}
    parent = [0]
    edge = [0]
    head = 0
    left = _left_multipliers(mul)
    while head < len(order):
        times = left(order[head])
        for i, g in enumerate(gens):
            y = times(g)
            if y not in pos:
                if len(order) >= limit:
                    raise OrderBudgetExceeded(limit, "group closure")
                pos[y] = len(order)
                order.append(y)
                parent.append(head)
                edge.append(i)
        head += 1
    return order, pos, parent, edge


# Up to this order `_bfs_group` builds every Cayley-table row at
# construction; above it each row is built when first read.  Built and then
# read in full (median of 31 alternating rounds, process time, cyclic
# collector off, 2 shared cores, Python 3.11.7), lazy rows took 12-52%
# longer than eager ones at orders 64-256 (cyclic and dihedral 64-256,
# Z4^3, S5) and 1-10% longer at 360-1024 (A6, S6, cyclic and dihedral 512
# and 1024), where a table takes 3-23 ms to build and an operation often
# reads few of its rows.
_EAGER_ROWS_MAX = 256


def _bfs_group(identity, gens: Sequence, mul: Callable, limit: int,
               label: Callable | None) -> tuple[FiniteGroup, dict]:
    """The group `gens` generate under the product `mul` in canonical BFS
    order, and its raw-element index (raw element -> element index).

    Generators keep their list order and duplicates ([] stands for the
    identity); `label`, if given, names each raw element.  The product
    `_compose` marks raw elements that are permutations: one walk of each
    element's cycles, its points named 1..degree, gives its label and its
    order, and the group is given those orders.  Each raw product is one
    call of a left multiplier (`_left_multipliers`), built once per
    element: the BFS applies each element's to the generators, n |gens|
    products.  Up to CAYLEY_TABLE_MAX elements the group's product is a
    Cayley table built along the BFS tree: if a was first reached as p * g,
    then x_a x_j = x_p (g x_j), so row a is row p read through g's
    left-multiplication column L_g[j] = pos[g x_j], g's multiplier applied
    to each element, at n products per generator on a tree edge (2 n
    |gens| with the BFS).  The column is a permutation of the indices, and
    its own multiplier, built once, reads each row off its parent's: a
    tuple of exactly n entries per row, and one routine (`build`) builds
    rows this way.  Up to _EAGER_ROWS_MAX elements it builds every row
    here, in BFS order.  Above it a row stays None until first read
    (`row`): a loop, since a tree can be n - 1 deep, climbs to the nearest
    built ancestor, and each row on the way back down is built off its
    parent's.  The product reads an unbuilt row's None as a TypeError, so
    a built row costs one plain `table[a][b]`; the group keeps its tree
    and columns.  Such a group is also given a builder of one conjugation
    map per stored generator g, run on its first conjugation: one walk of
    the tree reads each inverse x_a^-1 = h^-1 x_p^-1 off its parent's
    through the inverse permutation of row h, and three `_compose`s give
    x -> I[L_g[I[L_g[x]]]] = g x g^-1, I the inverses and L_g row g, so
    only the generators' rows are built.  x times a sequence ys is row x
    read through ys, one `_compose`.  Above CAYLEY_TABLE_MAX the product
    multiplies the raw elements and looks the result up in the index,
    under the backing "permutation-composition" for permutations and
    "element-index" otherwise, and a row product maps one multiplier, x's,
    over the raw elements of ys.  `FiniteGroup.inv` reads x^-1 as x^(m-1)
    from the order m of x, which a power walk of at most |G| steps finds
    when the orders were not given.
    """
    order, pos, parent, edge = _bfs_order(identity, gens, mul, limit)
    left = _left_multipliers(mul)
    n = len(order)
    gen_idx = [pos[g] for g in gens]
    labels = orders = conjugation_maps = None
    backing = "element-index"
    if mul is _compose:
        backing = "permutation-composition"
        point_names = _point_names(len(identity))
        labels, orders = [], []
        for perm in order:
            name, m = _cycle_walk(perm, point_names)
            labels.append(name)
            orders.append(m)
    elif label is not None:
        labels = [label(x) for x in order]
    if n <= config.CAYLEY_TABLE_MAX:
        columns = [None] * len(gens)
        for i in set(edge[1:]):
            times = left(gens[i])
            columns[i] = _perm_left([pos[times(x)] for x in order])
        table = [tuple(range(n))] + [None] * (n - 1)

        def build(rows):
            """Build each of `rows`, in order, off its parent's built row."""
            for b in rows:
                table[b] = columns[edge[b]](table[parent[b]])

        def row(a):
            """Row a, built first if it is not, with every unbuilt row above
            it on its tree path."""
            path = []
            b = a
            while table[b] is None:
                path.append(b)
                b = parent[b]
            build(reversed(path))
            return table[a]

        def index_mul(a, b):
            try:
                return table[a][b]
            except TypeError:  # row a is not built yet
                return row(a)[b]

        mul_row = lambda a, ys: _compose(ys, table[a] or row(a))
        if n <= _EAGER_ROWS_MAX:
            build(range(1, n))
        else:
            def conjugation_maps():
                """x -> g x g^-1 for each stored generator g, off the
                generators' rows alone."""
                lefts = [row(g) for g in gen_idx]
                unlefts = [sorted(range(n), key=row_g.__getitem__) for row_g in lefts]
                inverse = [0] * n
                for a in range(1, n):
                    inverse[a] = unlefts[edge[a]][inverse[parent[a]]]
                return [_compose(_compose(_compose(row_g, inverse), row_g), inverse)
                        for row_g in lefts]
        backing = "cayley-table"
    else:
        index_mul = lambda a, b: pos[left(order[a])(order[b])]
        mul_row = lambda a, ys: list(map(pos.__getitem__,
                                         map(left(order[a]), map(order.__getitem__, ys))))
    return FiniteGroup(n, index_mul, mul_row, gen_idx or [0], labels, backing, orders,
                       conjugation_maps), pos


def _from_mul(n: int, mul: Callable[[int, int], int], gens: Sequence[int],
              labels: Sequence[str] | None, identity: int = 0) -> FiniteGroup:
    """Renumber a trusted product on 0..n-1 into canonical BFS order."""
    label = labels.__getitem__ if labels is not None else None
    group = _bfs_group(identity, _dedupe(gens), mul, n + 1, label)[0]
    if group.order != n:
        raise ValueError("generators do not generate the whole table")
    return group


def _dedupe(xs: Iterable[int]) -> list[int]:
    return list(dict.fromkeys(xs))


def from_cayley(table: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> FiniteGroup:
    """Validate a multiplication table and build the group it defines.

    Every axiom is checked exactly.  Raises NotAGroup on a failure, carrying
    a witness: the failing triple (a, b, c) with (ab)c != a(bc), the element
    without an inverse, or None when no identity exists.  Associativity is
    Light's test over a generating set: the elements g with (ag)c = a(gc)
    for all a, c are closed under products, so checking the generators
    checks every element, in O(n^2) per generator.  The whole-table passes
    run in C: the entry check as one pass collecting the entry types, each
    a subclass of int, and one collecting the distinct values, each in
    range(n) (a row-by-row scan only names the first bad entry), the inverse
    search by `row.index` over the identities in x's row, and Light's test
    as one `_compose(row_g, row_a)` per pair (g, a), the row of a(gc) over
    all c.
    """
    n = len(table)
    if n == 0:
        raise ValueError("table must be nonempty")
    if labels is not None and len(labels) != n:
        raise ValueError(f"{len(labels)} labels for a table of {n} elements")
    rows = []
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            _name_bad_entry(rows, n)  # a bad entry in an earlier row is named first
            raise ValueError(f"table is not square at row {i}")
        rows.append(row)
    if not (all(issubclass(t, int) for t in set(map(type, chain.from_iterable(rows))))
            and set(chain.from_iterable(rows)) <= set(range(n))):
        _name_bad_entry(rows, n)

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")

    for x, row in enumerate(rows):
        # the y with x y = identity, in turn, until one has y x = identity too
        y = -1
        try:
            while rows[y := row.index(identity, y + 1)][x] != identity:
                pass
        except ValueError:
            raise NotAGroup("element has no two-sided inverse", witness=x) from None

    # greedy generators, each closed by BFS, since Dimino's coset step
    # would assume the axioms still unchecked
    mul = lambda a, b: rows[a][b]
    gens: list[int] = []
    reached = {identity}
    for x in range(n):
        if x not in reached:
            gens.append(x)
            reached = set(_bfs_order(identity, gens, mul, n + 1)[0])
    for g in gens:
        row_g = rows[g]
        for a, row_a in enumerate(rows):
            left = rows[row_a[g]]
            right = _compose(row_g, row_a)
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                raise NotAGroup("multiplication is not associative", witness=(a, g, c))
    return _from_mul(n, mul, sorted(gens), labels, identity)


def _name_bad_entry(rows: list[tuple], n: int):
    """Raise ValueError naming the first entry of `rows` that is not an int in range(n)."""
    for i, row in enumerate(rows):
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"table entry {x!r} out of range at row {i}")


def _cycle_walk(perm: Sequence[int], names: Sequence[str]) -> tuple[str, int]:
    """The disjoint-cycle string of a 0-based permutation, point i named
    names[i], and its order, from one walk of its cycles: the order of a
    permutation is the lcm of its cycle lengths (Holt, Eick & O'Brien,
    Handbook of Computational Group Theory, 2005)."""
    seen = [False] * len(perm)
    label = ""
    order = 1
    for start, x in enumerate(perm):
        if x != start and not seen[start]:
            cycle = [names[start]]
            while x != start:
                seen[x] = True
                cycle.append(names[x])
                x = perm[x]
            label += "(" + " ".join(cycle) + ")"
            order = math.lcm(order, len(cycle))
    return label or "()", order


def _point_names(degree: int) -> list[str]:
    """The 1-based names of the points of a permutation of this degree."""
    return [str(i + 1) for i in range(degree)]


def cycle_notation(perm: Sequence[int]) -> str:
    """1-based disjoint-cycle string for a 0-based permutation tuple."""
    return _cycle_walk(perm, _point_names(len(perm)))[0]


def _check_degree(degree: int):
    """Raise InputTooLarge before a permutation of this degree is built."""
    if degree > config.PERM_DEGREE_MAX:
        raise InputTooLarge("permutation degree", degree, config.PERM_DEGREE_MAX)


def perm_from_cycles(cycles: Sequence[Sequence[int]], degree: int) -> tuple[int, ...]:
    """0-based permutation tuple from cycles of points 1..degree, composed
    left to right.  A degree above `config.PERM_DEGREE_MAX` raises
    InputTooLarge before anything is built."""
    _check_degree(degree)
    result = tuple(range(degree))
    for cycle in cycles:
        points = [p - 1 for p in cycle]
        mapping = list(range(degree))
        seen = set()
        for i, p in enumerate(points):
            if not 0 <= p < degree:
                raise ValueError(f"cycle point {p + 1} out of range for degree {degree}")
            if p in seen:
                raise ValueError(f"cycle repeats point {p + 1}")
            seen.add(p)
            mapping[p] = points[(i + 1) % len(points)]
        result = _compose(result, mapping)
    return result


def from_permutations(gens: Sequence[Sequence[int]], degree: int) -> FiniteGroup:
    """Group generated by 0-based permutation tuples of the given degree,
    at most `config.PERM_DEGREE_MAX` (InputTooLarge above it).

    One walk of each element's cycles gives both its label, in
    `cycle_notation`, and its order, the lcm of its cycle lengths, so the
    group never walks powers for its element orders.  The point names are
    built once per group."""
    _check_degree(degree)
    identity = tuple(range(degree))
    gen_perms = [tuple(g) for g in gens]
    for g in gen_perms:
        if sorted(g) != list(identity):
            raise ValueError(f"{g} is not a permutation of degree {degree}")
    # symbol-for-symbol generator list: duplicates kept so realized
    # presentations stay aligned with their generator symbols
    return _bfs_group(identity, gen_perms, _compose, config.order_max(), None)[0]


# ---------------------------------------------------------------------------
# named families


def cyclic(n: int) -> FiniteGroup:
    """Integers mod n under addition."""
    if n < 1:
        raise ValueError("cyclic order must be positive")
    if n > config.order_max():
        raise OrderBudgetExceeded(config.order_max(), f"cyclic {n}")
    gens = [1] if n > 1 else [0]
    return _from_mul(n, lambda a, b: (a + b) % n, gens, [str(i) for i in range(n)])


def abelian(factors: Sequence[int]) -> FiniteGroup:
    """Direct sum of cyclic groups, elements as mixed-radix tuples."""
    factors = [int(m) for m in factors]
    if any(m < 1 for m in factors):
        raise ValueError("cyclic factors must be positive")
    n = math.prod(factors)
    if n > config.order_max():
        raise OrderBudgetExceeded(config.order_max(), f"abelian {factors}")

    # mixed radix, last factor least significant
    places = [n // math.prod(factors[:i + 1]) for i in range(len(factors))]
    digits = list(zip(factors, places))

    def mul(x: int, y: int) -> int:
        return sum((x // q + y // q) % m * q for m, q in digits)

    labels = ["(" + ",".join(str(x // q % m) for m, q in digits) + ")" for x in range(n)]
    gens = [q for m, q in digits if m > 1] or [0]
    return _from_mul(n, mul, gens, labels)


def dihedral(order: int) -> FiniteGroup:
    """Dihedral group of the given (even) order: symmetries of an order/2-gon."""
    if order < 2 or order % 2 != 0:
        raise ValueError("dihedral order must be an even integer >= 2")
    if order > config.order_max():
        raise OrderBudgetExceeded(config.order_max(), f"dihedral {order}")
    m = order // 2

    def mul(x: int, y: int) -> int:
        i1, j1 = x % m, x // m
        i2, j2 = y % m, y // m
        i = (i1 - i2) % m if j1 else (i1 + i2) % m
        return (j1 ^ j2) * m + i

    labels = [("s" if x // m else "") + (f"r{x % m}" if x % m else ("" if x // m else "e"))
              for x in range(order)]
    gens = ([1] if m > 1 else []) + [m]
    return _from_mul(order, mul, gens, labels)


def quaternion() -> FiniteGroup:
    """The eight unit quaternions as a^i b^j (i < 4, j < 2) with a = i and
    b = j: a^4 = 1, b^2 = a^2 and b a b^-1 = a^-1."""

    def mul(x: int, y: int) -> int:
        i1, j1 = x % 4, x // 4
        i2, j2 = y % 4, y // 4
        i = i1 - i2 + 2 * j2 if j1 else i1 + i2
        return (j1 ^ j2) * 4 + i % 4

    return _from_mul(8, mul, [1, 4], "1 i -1 -i j k -j -k".split())


def _check_factorial(first: int, n: int, context: str) -> None:
    """Raise OrderBudgetExceeded when first * (first + 1) * ... * n exceeds
    the group-order budget, stopping at the first partial product past it."""
    limit = config.order_max()
    product = 1
    for k in range(first, n + 1):
        product *= k
        if product > limit:
            raise OrderBudgetExceeded(limit, context)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on {1..n} as a permutation group."""
    if n < 1:
        raise ValueError("symmetric degree must be positive")
    _check_factorial(2, n, f"symmetric {n}")
    if n == 1:
        return from_permutations([], 1)
    gens = [perm_from_cycles([[1, 2]], n)]
    if n > 2:
        gens.append(perm_from_cycles([list(range(1, n + 1))], n))
    return from_permutations(gens, n)


def alternating(n: int) -> FiniteGroup:
    """Alternating group on {1..n} as a permutation group."""
    if n < 1:
        raise ValueError("alternating degree must be positive")
    _check_factorial(3, n, f"alternating {n}")  # 3 * 4 * ... * n = n!/2
    if n <= 2:
        return from_permutations([], max(n, 1))
    gens = [perm_from_cycles([[1, 2, 3]], n)]
    if n > 3:
        long_cycle = list(range(1, n + 1)) if n % 2 == 1 else list(range(2, n + 1))
        gens.append(perm_from_cycles([long_cycle], n))
    return from_permutations(gens, n)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with pairs encoded as a*|H| + b before renumbering."""
    n = g.order * h.order
    if n > config.order_max():
        raise OrderBudgetExceeded(config.order_max(), "direct product")
    hn = h.order

    def mul(x: int, y: int) -> int:
        a1, b1 = divmod(x, hn)
        a2, b2 = divmod(y, hn)
        return g.mul(a1, a2) * hn + h.mul(b1, b2)

    labels = [f"({g.label(x // hn)},{h.label(x % hn)})" for x in range(n)]
    gens = _dedupe(
        [a * hn for a in g.generators if a] + [b for b in h.generators if b]
    ) or [0]
    return _from_mul(n, mul, gens, labels)


# ---------------------------------------------------------------------------
# subgroup algebra


def element_order(group: FiniteGroup, x: int) -> int:
    """Least m >= 1 with x^m = identity."""
    if not 0 <= x < group.order:
        raise ValueError(f"element index {x} out of range")
    return group.element_order(x)


def _prime_factorization(n: int) -> list[tuple[int, int]]:
    """(p, e) for each prime power p^e exactly dividing n, p ascending; []
    when n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@cache
def _least_prime(m: int) -> int:
    """The least prime dividing m >= 2."""
    return _prime_factorization(m)[0][0]


class _Closure:
    """A subgroup grown one generator at a time (Dimino's algorithm).

    `members` always holds a subgroup closed under the generators accepted
    so far.  A seed that is already a member is skipped; a new one adds
    whole left cosets r H of the old subgroup H, each by one row product,
    until the union is closed again (Holt, Eick & O'Brien, Handbook of
    Computational Group Theory, 2005, section 4.1).  By Lagrange the new
    subgroup K has an order that is a multiple of |H| and divides n = |G|,
    so a proper K has at most |H| m / p = n / p elements, p the least prime
    dividing m = [G : H]: once the union holds more, K is G, and the
    remaining cosets are not multiplied.  The first seed's cyclic group is
    walked power by power, at most |G| steps, and a walk that passes them
    raises AssertionError, as the element-order walk does.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.members = {0}
        self.gens: list[int] = []

    @property
    def is_whole(self) -> bool:
        return len(self.members) == self.group.order

    def add(self, g: int) -> None:
        """Close the subgroup under one more seed; a member is skipped."""
        members = self.members
        if g in members:
            return
        mul, mul_row = self.group.mul, self.group.mul_row
        gens = self.gens
        gens.append(g)
        if len(members) == 1:
            # the first generator's closure is its cyclic group, of order
            # dividing |G|, each power g y read off g's row
            y = g
            for _ in range(self.group.order):
                members.add(y)
                y = mul(g, y)
                if y == 0:
                    return
            raise AssertionError(f"no power of element {g} is the identity")
        old = list(members)
        n = self.group.order
        proper_max = n // _least_prime(n // len(old))
        # the union of the cosets r * old is closed under left multiplication
        # by every accepted generator t, hence a subgroup, once each t * r
        # lies in it (t r h = r' h' h); a new t * r starts a new coset
        reps = [0]
        for r in reps:
            for t in gens:
                tr = mul(t, r)
                if tr not in members:
                    members.update(mul_row(tr, old))
                    if len(members) > proper_max:
                        if len(members) < n:
                            members.update(range(n))
                        return
                    reps.append(tr)

    def fork(self) -> "_Closure":
        """An independent copy, to grow apart from this one."""
        twin = _Closure(self.group)
        twin.members = set(self.members)
        twin.gens = list(self.gens)
        return twin

    def extend(self, seeds: Iterable[int]) -> "_Closure":
        """Add seeds in order, stopping as soon as the whole group is reached."""
        for x in seeds:
            self.add(x)
            if self.is_whole:
                break
        return self

    def close_under_conjugation(self) -> "_Closure":
        """Grow to the least normal subgroup holding the current one.

        Each accepted generator is conjugated by every generator of the
        group, and a new conjugate is accepted in turn, so `gens` grows
        while `_conjugates` reads it.  When no conjugate is new, conjugation
        by every group generator maps the generators, hence the whole
        subgroup, into itself, so the subgroup is normal.
        """
        if self.group.is_abelian:  # every subgroup is normal
            return self
        for _, _, y in _conjugates(self.group, self.gens):
            if self.is_whole:
                break
            self.add(y)
        return self

    def subgroup(self) -> Subgroup:
        return Subgroup(self.group, self.members, _checked=True)


def _closure_of(group: FiniteGroup, gens: Iterable[int]) -> _Closure:
    gen_list = list(gens)
    for x in gen_list:
        if not 0 <= x < group.order:
            raise ValueError(f"element index {x} out of range")
    return _Closure(group).extend(gen_list)


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Least subgroup containing `gens` (deterministic incremental closure)."""
    return _closure_of(group, gens).subgroup()


@_memo
def _generating_set(sub: Subgroup) -> tuple[int, ...]:
    """Each member outside the closure of the smaller ones: at most
    log2 |H| members, since each at least doubles the closure."""
    return tuple(_Closure(sub.parent).extend(sub.sorted_members()).gens)


def _conjugates(group: FiniteGroup, xs: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """(g, x, g x g^-1) for each x of `xs` in turn and each generator g of
    the group.  `xs` is read as it is iterated, so a list may grow while it
    is read: the one conjugation loop behind normal closures, normality
    tests and conjugacy classes.  A group with `conjugation_maps`, a table
    built on first read, reads g x g^-1 off g's map and builds no row.
    Every other group computes (g x) g^-1: an eager table has every row
    built already, and a full map of a raw-element group would cost 2 n
    raw products per generator."""
    maps = group.conjugation_maps
    if maps is not None:
        conjugators = list(zip(group.generators, maps))
        for x in xs:
            for g, conjugate in conjugators:
                yield g, x, conjugate[x]
        return
    mul = group.mul
    conjugators = [(g, group.inv(g)) for g in group.generators]
    for x in xs:
        for g, ginv in conjugators:
            yield g, x, mul(mul(g, x), ginv)


def normal_closure(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Least normal subgroup containing `gens` (closed under conjugation of
    its accepted generators)."""
    return _closure_of(group, gens).close_under_conjugation().subgroup()


def _normal(group: FiniteGroup, members: Collection[int], gens: Iterable[int]) -> bool:
    """True iff the subgroup H with these members, generated by `gens`, is
    normal: g h g^-1 lies in H for every generator g of the group and every
    h of `gens`.  Conjugation by g is an injective homomorphism, so when it
    maps a generating set of the finite H into H it maps H onto H, and so
    does conjugation by g^-1, a power of g (Holt, Eick & O'Brien, Handbook
    of Computational Group Theory, 2005).  It costs |gens| |gens G|
    conjugations, and none in an abelian group: the one normality rule."""
    if group.is_abelian:  # every subgroup is normal
        return True
    return all(y in members for _, _, y in _conjugates(group, gens))


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """True iff conjugation by every generator of the group maps the
    subgroup's `_generating_set` into it, which `as_group` shares."""
    if sub.parent is not group:
        raise ValueError("subgroup does not live in this group")
    return _normal(group, sub.members, _generating_set(sub))


def _normal_stage(group: FiniteGroup, closure: _Closure) -> Subgroup:
    """The closure's subgroup, asserted normal unless whole: a socle or
    radical stage.  The closure's own accepted generators generate it, so
    they are conjugated and it is never closed again.  The rule is applied
    here, not through `coreflections`' `is_normal`, so a fault planted in
    `check_invariants`' normality check stays there."""
    result = closure.subgroup()
    if result.order < group.order and not _normal(group, result.members, closure.gens):
        raise AssertionError("stage is not normal: hom enumeration or normal closure is broken")
    return result


def _cosets(group: FiniteGroup, members: Collection[int]) -> tuple[list[int], list[int]]:
    """Labels of the left cosets x N of the subgroup N with these members,
    one row product each: coset_of[x] is the label of x N, numbered in
    order of their least elements, which reps lists.  N itself is coset 0."""
    coset_of = [-1] * group.order
    reps: list[int] = []
    members = list(members)
    for x in range(group.order):
        if coset_of[x] < 0:
            cid = len(reps)
            reps.append(x)
            for y in group.mul_row(x, members):
                coset_of[y] = cid
    return coset_of, reps


def quotient(group: FiniteGroup, kernel: Subgroup) -> QuotientMap:
    """Quotient by a normal subgroup; cosets labelled by their least element.

    The projection is checked exactly to be multiplicative: p(x g) =
    p(x) p(g) for every element x and every generator g of the source.
    Normality is decided by `is_normal`, on a generating set of the kernel.
    Only a kernel that is not normal has its sorted members scanned, to
    raise NotNormal with the witness (g, x): x the least member that some
    generator moves out, g the first such generator, so the witness
    depends on the subgroup alone.
    """
    if kernel.parent is not group:
        raise ValueError("kernel does not live in this group")
    if not is_normal(group, kernel):
        members = kernel.members
        raise NotNormal(witness=next((g, x) for g, x, y in
                                     _conjugates(group, kernel.sorted_members())
                                     if y not in members))

    coset_of, reps = _cosets(group, kernel.members)
    m = len(reps)
    gen_cosets = _dedupe(coset_of[g] for g in group.generators if coset_of[g] != 0) or [0]

    def mul(a: int, b: int) -> int:
        return coset_of[group.mul(reps[a], reps[b])]

    target, pos = _bfs_group(0, gen_cosets, mul, m + 1,
                             lambda c: group.label(reps[c]))
    if target.order != m:
        raise AssertionError("generator images fail to generate the quotient")
    projection = _compose(coset_of, pos)

    bad = _first_bad_edge(group, target, projection)
    if bad is not None:
        raise AssertionError(f"projection not multiplicative at {bad}")
    return QuotientMap(group, kernel, target, projection)


def _first_bad_edge(domain: FiniteGroup, codomain: FiniteGroup,
                    f: Sequence[int]) -> tuple[int, int] | None:
    """First (x, g), g a generator of `domain`, with f(x g) != f(x) f(g).

    When f maps the identity to the identity, None means f is a
    homomorphism: every y is a product of generators g1...gk, so the edge
    equations give f(x y) = f(x) f(g1)...f(gk) = f(x) f(y).
    """
    mul_d, mul_c = domain.mul, codomain.mul
    for g in domain.generators:
        fg = f[g]
        for x in range(domain.order):
            if f[mul_d(x, g)] != mul_c(f[x], fg):
                return x, g
    return None


def all_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """Every subgroup exactly once, ascending by order then member tuple.

    Every subgroup is reached from the trivial one an element at a time,
    so each is grown from a fork of a smaller one's closure.  From a
    subgroup H, elements x that must give the same <H, x> share one fork,
    by two rules:

    - <H, x> = <H, x h> for every h in H, so one x per left coset x H;
    - <H, x> = <H, x^k> for every k prime to the order of x, so that fork
      also covers the cosets x^k H of the other generators of <x>.

    The elements covered so far from H are marked in one set, at one row
    product per coset, which costs less than one fork.  Each new closure
    joins one list, which is read as it grows, so each is forked once in
    the order found.  The budget is checked before any closure is grown.
    """
    if group.order > config.SUBGROUP_ENUM_MAX:
        raise OrderBudgetExceeded(config.SUBGROUP_ENUM_MAX, "subgroup enumeration")
    mul, mul_row = group.mul, group.mul_row
    orders = group.element_orders()
    closures = [_Closure(group)]
    known = {frozenset(closures[0].members)}
    for current in closures:
        members = list(current.members)
        covered = set(members)
        for x in range(group.order):
            if x not in covered:
                m = orders[x]
                y = x
                for k in range(1, m):
                    if y not in covered and math.gcd(k, m) == 1:
                        covered.update(mul_row(y, members))
                    y = mul(y, x)
                bigger = current.fork().extend([x])
                key = frozenset(bigger.members)
                if key not in known:
                    known.add(key)
                    closures.append(bigger)
    subs = [Subgroup(group, key, _checked=True) for key in known]
    return sorted(subs, key=lambda sub: (sub.order, sub.sorted_members()))
