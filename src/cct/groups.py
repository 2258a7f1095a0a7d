"""Finite groups with 0-based element indices.

Element 0 is always the identity, and the element numbering of every
construction is the BFS discovery order from the identity over the stored
generator list (frontier processed FIFO, generators tried in list order).
Repeated runs therefore number elements identically, which every
downstream enumeration relies on.

Groups of order at most CAYLEY_TABLE_MAX store a full multiplication
table; larger permutation groups compose permutations and look up the
result in a hash index.  A group's elements and table never change after
construction; the element-order and abelian-flag caches are filled lazily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import config
from .errors import NotAGroup, NotNormal, OrderBudgetExceeded

__all__ = [
    "FiniteGroup",
    "Subgroup",
    "QuotientMap",
    "from_cayley",
    "from_permutations",
    "perm_from_cycles",
    "cycle_notation",
    "named",
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


class FiniteGroup:
    """An immutable finite group on element indices 0..order-1."""

    def __init__(self, order, mul_table, inv_table, generators, labels=None,
                 backing="cayley-table", perms=None, perm_index=None):
        self.order = order
        self.generators = tuple(generators)
        self.labels = tuple(labels) if labels is not None else None
        self.backing = backing
        self._table = mul_table
        self._inv = inv_table
        self._perms = perms
        self._perm_index = perm_index
        self._element_orders: list[int] | None = None
        self._abelian: bool | None = None
        if not self.generators:
            raise ValueError("generator list must be nonempty")
        if self.labels is not None and len(self.labels) != order:
            raise ValueError("label list length must match order")

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return self._table[a][b]
        return self._perm_index[_compose(self._perms[a], self._perms[b])]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def element_order(self, x: int) -> int:
        """Least m >= 1 with x^m = identity; always divides |G|."""
        if self._element_orders is None:
            self._element_orders = [0] * self.order
        cached = self._element_orders[x]
        if cached:
            return cached
        m, y = 1, x
        while y != 0:
            y = self.mul(y, x)
            m += 1
        self._element_orders[x] = m
        return m

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            gens = self.generators
            self._abelian = all(
                self.mul(a, b) == self.mul(b, a) for a in gens for b in gens
            )
        return self._abelian

    def center_size(self) -> int:
        gens = self.generators
        return sum(
            1 for x in range(self.order)
            if all(self.mul(x, g) == self.mul(g, x) for g in gens)
        )

    def order_histogram(self) -> tuple[tuple[int, int], ...]:
        """Sorted (element order, multiplicity) pairs; an isomorphism invariant."""
        counts: dict[int, int] = {}
        for x in range(self.order):
            m = self.element_order(x)
            counts[m] = counts.get(m, 0) + 1
        return tuple(sorted(counts.items()))

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
        self._sorted: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.members)

    def sorted_members(self) -> tuple[int, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.members))
        return self._sorted

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup (labels inherited)."""
        elems = list(self.sorted_members())
        pos = {e: i for i, e in enumerate(elems)}
        table = [[pos[self.parent.mul(a, b)] for b in elems] for a in elems]
        labels = [self.parent.label(e) for e in elems]
        gens = _greedy_generators(len(elems), table)
        return _from_table(table, gens, labels)

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


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # "p then q": (p*q)(i) = q(p(i)), matching right actions on cosets.
    return tuple(q[i] for i in p)


def _bfs_order(identity, gens: Sequence, mul: Callable, limit: int) -> tuple[list, dict]:
    """Closure of `gens` from `identity`, in canonical BFS order."""
    order = [identity]
    pos = {identity: 0}
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for g in gens:
            y = mul(x, g)
            if y not in pos:
                if len(order) >= limit:
                    raise OrderBudgetExceeded(limit, "group closure")
                pos[y] = len(order)
                order.append(y)
    return order, pos


def _greedy_generators(n: int, table: list[list[int]], identity: int = 0) -> list[int]:
    """Smallest-index elements added until their closure is everything."""
    gens: list[int] = []
    closure = {identity}
    for x in range(n):
        if x not in closure:
            gens.append(x)
            order, _ = _bfs_order(identity, gens, lambda a, b: table[a][b], n + 1)
            closure = set(order)
            if len(closure) == n:
                break
    if not gens:
        gens = [identity]
    return gens


def _from_table(table: list[list[int]], gens: Sequence[int],
                labels: Sequence[str] | None, identity: int = 0) -> FiniteGroup:
    """Renumber a trusted multiplication table into canonical BFS order."""
    n = len(table)
    order, pos = _bfs_order(identity, list(gens), lambda a, b: table[a][b], n + 1)
    if len(order) != n:
        raise ValueError("generators do not generate the whole table")
    new_table = [[pos[table[a][b]] for b in order] for a in order]
    inv = _invert_table(new_table)
    new_labels = [labels[e] for e in order] if labels is not None else None
    new_gens = _dedupe([pos[g] for g in gens]) or [0]
    return FiniteGroup(n, new_table, inv, new_gens, new_labels)


def _invert_table(table: list[list[int]]) -> list[int]:
    n = len(table)
    inv = [0] * n
    for a in range(n):
        row = table[a]
        for b in range(n):
            if row[b] == 0:
                inv[a] = b
                break
    return inv


def _dedupe(xs: Iterable[int]) -> list[int]:
    seen: set[int] = set()
    out = []
    for x in xs:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def from_cayley(table: Sequence[Sequence[int]], labels: Sequence[str] | None = None) -> FiniteGroup:
    """Validate a multiplication table and build the group it defines.

    Every axiom is checked exactly.  Raises NotAGroup on a failure, carrying
    a witness: the failing triple (a, b, c) with (ab)c != a(bc), the element
    without an inverse, or None when no identity exists.  Associativity is
    Light's test over a generating set: the elements g with (ag)c = a(gc)
    for all a, c are closed under products, so checking the generators
    checks every element, in O(n^2) per generator.
    """
    n = len(table)
    if n == 0:
        raise ValueError("table must be nonempty")
    rows = []
    for i, row in enumerate(table):
        row = list(row)
        if len(row) != n:
            raise ValueError(f"table is not square at row {i}")
        for x in row:
            if not isinstance(x, int) or not 0 <= x < n:
                raise ValueError(f"table entry {x!r} out of range at row {i}")
        rows.append(row)

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no identity element")

    for x in range(n):
        if not any(rows[x][y] == identity and rows[y][x] == identity for y in range(n)):
            raise NotAGroup("element has no two-sided inverse", witness=x)

    gens = _greedy_generators(n, rows, identity)
    for g in gens:
        row_g = rows[g]
        for a in range(n):
            row_a = rows[a]
            left = rows[row_a[g]]
            right = [row_a[x] for x in row_g]
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                raise NotAGroup("multiplication is not associative", witness=(a, g, c))
    return _from_table(rows, sorted(gens), labels, identity)


def cycle_notation(perm: Sequence[int]) -> str:
    """1-based disjoint-cycle string for a 0-based permutation tuple."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = perm[x]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


def perm_from_cycles(cycles: Sequence[Sequence[int]], degree: int, one_based: bool = True) -> tuple[int, ...]:
    """Permutation tuple from cycles, composed left to right."""
    result = list(range(degree))
    for cycle in cycles:
        points = [p - 1 for p in cycle] if one_based else list(cycle)
        mapping = list(range(degree))
        for i, p in enumerate(points):
            if not 0 <= p < degree:
                raise ValueError(f"cycle point {p + one_based} out of range for degree {degree}")
            mapping[p] = points[(i + 1) % len(points)]
        result = [mapping[result[i]] for i in range(degree)]
    return tuple(result)


def from_permutations(gens: Sequence[Sequence[int]], degree: int,
                      order_max: int | None = None) -> FiniteGroup:
    """Group generated by 0-based permutation tuples of the given degree."""
    limit = order_max if order_max is not None else config.order_max()
    identity = tuple(range(degree))
    gen_perms = []
    for g in gens:
        g = tuple(g)
        if sorted(g) != list(range(degree)):
            raise ValueError(f"{g} is not a permutation of degree {degree}")
        gen_perms.append(g)
    order, pos = _bfs_order(identity, gen_perms, _compose, limit)
    n = len(order)
    labels = [cycle_notation(p) for p in order]
    # symbol-for-symbol generator list: duplicates kept so realized
    # presentations stay aligned with their generator symbols
    gen_idx = [pos[g] for g in gen_perms] or [0]
    if n <= config.CAYLEY_TABLE_MAX:
        table = [[pos[_compose(a, b)] for b in order] for a in order]
        return FiniteGroup(n, table, _invert_table(table), gen_idx, labels)
    inv = [pos[_invert_perm(p)] for p in order]
    return FiniteGroup(n, None, inv, gen_idx, labels,
                       backing="permutation-composition", perms=order, perm_index=pos)


def _invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


# ---------------------------------------------------------------------------
# named families


def cyclic(n: int) -> FiniteGroup:
    """Integers mod n under addition."""
    if n < 1:
        raise ValueError("cyclic order must be positive")
    if n > config.order_max():
        raise OrderBudgetExceeded(config.order_max(), f"cyclic {n}")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    gens = [1] if n > 1 else [0]
    return _from_table(table, gens, [str(i) for i in range(n)])


def abelian(factors: Sequence[int]) -> FiniteGroup:
    """Direct sum of cyclic groups, elements as mixed-radix tuples."""
    factors = [int(m) for m in factors]
    if any(m < 1 for m in factors):
        raise ValueError("cyclic factors must be positive")
    n = 1
    for m in factors:
        n *= m
    if n > config.order_max():
        raise OrderBudgetExceeded(config.order_max(), f"abelian {factors}")

    def decode(x: int) -> tuple[int, ...]:
        out = []
        for m in reversed(factors):
            x, r = divmod(x, m)
            out.append(r)
        return tuple(reversed(out))

    # mixed radix, last factor least significant: append one factor at a time
    table: list[list[int]] = [[0]]
    gens: list[int] = []
    for m in factors:
        cyc = [[(i + j) % m for j in range(m)] for i in range(m)]
        table = [[t * m + c for t in row for c in ci] for row in table for ci in cyc]
        gens = [x * m for x in gens] + ([1] if m > 1 else [])
    labels = ["(" + ",".join(map(str, decode(x))) + ")" for x in range(n)]
    return _from_table(table, gens or [0], labels)


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

    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    labels = [("s" if x // m else "") + (f"r{x % m}" if x % m else ("" if x // m else "e"))
              for x in range(order)]
    gens = ([1] if m > 1 else []) + [m]
    return _from_table(table, gens, labels)


_QUAT_MUL = {
    # basis products in the unit quaternion group, (sign, basis) pairs
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def quaternion() -> FiniteGroup:
    """The eight unit quaternions, built from an explicit Cayley table."""
    units = [(1, "1"), (1, "i"), (1, "j"), (1, "k"), (-1, "1"), (-1, "i"), (-1, "j"), (-1, "k")]
    pos = {u: x for x, u in enumerate(units)}

    def mul(x: int, y: int) -> int:
        s1, b1 = units[x]
        s2, b2 = units[y]
        s3, b3 = _QUAT_MUL[(b1, b2)]
        return pos[(s1 * s2 * s3, b3)]

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    labels = [("-" if s < 0 else "") + b for s, b in units]
    return _from_table(table, [1, 2], labels)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on {1..n} as a permutation group."""
    if n < 1:
        raise ValueError("symmetric degree must be positive")
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

    table = [[mul(x, y) for y in range(n)] for x in range(n)]
    labels = [f"({g.label(x // hn)},{h.label(x % hn)})" for x in range(n)]
    gens = _dedupe(
        [a * hn for a in g.generators if a] + [b for b in h.generators if b]
    ) or [0]
    return _from_table(table, gens, labels)


_FAMILIES = {
    "cyclic": cyclic,
    "abelian": abelian,
    "dihedral": dihedral,
    "quaternion": quaternion,
    "symmetric": symmetric,
    "alternating": alternating,
    "direct_product": direct_product,
}


def named(family: str, *args) -> FiniteGroup:
    """Dispatch to a named construction (cyclic, dihedral, symmetric, ...)."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    return _FAMILIES[family](*args)


# ---------------------------------------------------------------------------
# subgroup algebra


def element_order(group: FiniteGroup, x: int) -> int:
    """Least m >= 1 with x^m = identity."""
    if not 0 <= x < group.order:
        raise ValueError(f"element index {x} out of range")
    return group.element_order(x)


class _Closure:
    """A subgroup grown one generator at a time (Dimino's algorithm).

    `members` always holds a subgroup closed under the generators accepted
    so far.  A seed that is already a member is skipped; a new one adds
    whole right cosets of the old subgroup until the union is closed again
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 2005,
    section 4.1).
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
        mul = self.group.mul
        gens = self.gens
        gens.append(g)
        if len(members) == 1:
            # the first generator's closure is its cyclic group
            y = g
            while y != 0:
                members.add(y)
                y = mul(y, g)
            return
        old = list(members)
        # the union of the cosets old * r is closed once every r * t (t an
        # accepted generator) lies in it; a new r * t starts a new coset
        reps = [0]
        for r in reps:
            for t in gens:
                rt = mul(r, t)
                if rt not in members:
                    members.update([mul(h, rt) for h in old])
                    if self.is_whole:
                        return
                    reps.append(rt)

    def extend(self, seeds: Iterable[int]) -> "_Closure":
        """Add seeds in order, stopping as soon as the whole group is reached."""
        for x in seeds:
            self.add(x)
            if self.is_whole:
                break
        return self

    def subgroup(self) -> Subgroup:
        return Subgroup(self.group, self.members, _checked=True)


def subgroup_generated(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Least subgroup containing `gens` (deterministic incremental closure)."""
    gen_list = list(gens)
    for x in gen_list:
        if not 0 <= x < group.order:
            raise ValueError(f"element index {x} out of range")
    return _Closure(group).extend(gen_list).subgroup()


def normal_closure(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Least normal subgroup containing `gens` (conjugate and re-close)."""
    current = subgroup_generated(group, gens)
    while True:
        extra = set()
        for g in group.generators:
            ginv = group.inv(g)
            for x in current.members:
                y = group.mul(group.mul(g, x), ginv)
                if y not in current.members:
                    extra.add(y)
        if not extra:
            return current
        current = subgroup_generated(group, current.members | extra)


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """True iff conjugation by every generator preserves the subgroup."""
    if sub.parent is not group:
        raise ValueError("subgroup does not live in this group")
    for g in group.generators:
        ginv = group.inv(g)
        for x in sub.members:
            if group.mul(group.mul(g, x), ginv) not in sub.members:
                return False
    return True


def quotient(group: FiniteGroup, kernel: Subgroup) -> QuotientMap:
    """Quotient by a normal subgroup; cosets labelled by their least element.

    The projection is checked exactly to be multiplicative: p(x g) =
    p(x) p(g) for every element x and every generator g of the source.
    """
    if kernel.parent is not group:
        raise ValueError("kernel does not live in this group")
    for g in group.generators:
        ginv = group.inv(g)
        for x in kernel.members:
            y = group.mul(group.mul(g, x), ginv)
            if y not in kernel.members:
                raise NotNormal(witness=(g, x))

    n = group.order
    coset_of = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] < 0:
            cid = len(reps)
            reps.append(x)
            for k in kernel.members:
                coset_of[group.mul(x, k)] = cid
    m = len(reps)
    table = [[coset_of[group.mul(reps[a], reps[b])] for b in range(m)] for a in range(m)]
    labels = [group.label(r) for r in reps]
    gen_cosets = _dedupe(coset_of[g] for g in group.generators if coset_of[g] != 0) or [0]

    order, pos = _bfs_order(0, gen_cosets, lambda a, b: table[a][b], m + 1)
    if len(order) != m:
        raise AssertionError("generator images fail to generate the quotient")
    new_table = [[pos[table[a][b]] for b in order] for a in order]
    target = FiniteGroup(m, new_table, _invert_table(new_table),
                         _dedupe(pos[c] for c in gen_cosets) or [0],
                         [labels[c] for c in order])
    projection = tuple(pos[coset_of[x]] for x in range(n))

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


def all_subgroups(group: FiniteGroup, enum_max: int | None = None) -> list[Subgroup]:
    """Every subgroup exactly once, ascending by order then member tuple.

    Built by repeatedly extending known subgroups with one new cyclic
    generator until no new closure appears.
    """
    limit = enum_max if enum_max is not None else config.SUBGROUP_ENUM_MAX
    if group.order > limit:
        raise OrderBudgetExceeded(limit, "subgroup enumeration")
    trivial = frozenset({0})
    known = {trivial}
    queue = [trivial]
    while queue:
        current = queue.pop()
        for x in range(group.order):
            if x not in current:
                bigger = frozenset(
                    subgroup_generated(group, current | {x}).members
                )
                if bigger not in known:
                    known.add(bigger)
                    queue.append(bigger)
    ordered = sorted(known, key=lambda s: (len(s), tuple(sorted(s))))
    return [Subgroup(group, s, _checked=True) for s in ordered]
