"""Independent oracles: expected answers computed without cct.

Everything here works on raw permutation tuples, integers and textbook
formulas, so a fault in cct cannot make its own check pass.
"""

from __future__ import annotations

import itertools
import math


def compose(p, q):
    """p then q, matching cct's right-action convention."""
    return tuple(q[i] for i in p)


def perm_power_is_identity(p, m: int) -> bool:
    identity = tuple(range(len(p)))
    x = identity
    for _ in range(m):
        x = compose(x, p)
    return x == identity


def is_even(p) -> bool:
    seen = [False] * len(p)
    transpositions = 0
    for start in range(len(p)):
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            transpositions += length - 1
    return transpositions % 2 == 0


def perms(n: int, alternating: bool = False) -> list[tuple[int, ...]]:
    out = list(itertools.permutations(range(n)))
    return [p for p in out if is_even(p)] if alternating else out


def cyclic_hom_count(m: int, n: int, alternating: bool = False) -> int:
    """Homs Z/m -> S_n (or A_n): elements x with x^m = 1, by brute force."""
    return sum(1 for p in perms(n, alternating) if perm_power_is_identity(p, m))


def presented_hom_count(n: int, exponents: tuple[int, int, int]) -> int:
    """Homs <a, b | a^i, b^j, (ab)^k> -> S_n, by brute force over pairs.

    (4, 2, 2) presents D8 and (2, 3, 3) presents A4.
    """
    i, j, k = exponents
    all_perms = perms(n)
    left = [p for p in all_perms if perm_power_is_identity(p, i)]
    right = [p for p in all_perms if perm_power_is_identity(p, j)]
    return sum(1 for a in left for b in right if perm_power_is_identity(compose(a, b), k))


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def radical_stage_orders(p: int, factors) -> tuple[int, ...]:
    """Stage orders of the Z/p radical chain in the abelian group with these
    cyclic factors: stage i has order prod p^min(i, v_p(m))."""
    depth = max([valuation(m, p) for m in factors] + [1])
    return tuple(
        math.prod(p ** min(i, valuation(m, p)) for m in factors) for i in range(1, depth + 1)
    )


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def abelian_group_count(max_order: int) -> int:
    """Abelian groups of order <= max_order up to isomorphism."""
    return sum(
        math.prod(partition_count(e) for e in factorize(n).values())
        for n in range(1, max_order + 1)
    )


def gaussian_binomial(k: int, j: int, q: int) -> int:
    num = math.prod(q ** (k - i) - 1 for i in range(j))
    den = math.prod(q ** (i + 1) - 1 for i in range(j))
    return num // den


def elementary_abelian_subgroups(k: int, p: int = 2) -> int:
    """Subgroup count of (Z/p)^k: the sum of Gaussian binomials."""
    return sum(gaussian_binomial(k, j, p) for j in range(k + 1))


def dihedral_subgroups(n: int) -> int:
    """Subgroup count of the dihedral group of order 2n: tau(n) + sigma(n)."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return len(divisors) + sum(divisors)


def has_quotient_of_order_2(abelianization_order: int) -> bool:
    return abelianization_order % 2 == 0


# Orders of the abelianizations G/[G, G] of the socle-large generators.
ABELIANIZATION = {"z2": 2, "z3": 3, "v4": 4, "z4": 4, "s3": 2, "d8": 4,
                  "q8": 4, "a4": 3, "z6": 6}


def symmetric_socle_order(gen: str, n: int) -> int:
    """Socle of S_n (n >= 5) under a nontrivial generator: S_n iff the
    generator has a quotient of order 2, else A_n."""
    full = math.factorial(n)
    return full if has_quotient_of_order_2(ABELIANIZATION[gen]) else full // 2


def non_associative_witness(table) -> tuple[int, int, int] | None:
    """First triple (a, a, a), then (a, b, c) over small indices, that breaks
    associativity; enough for the intercalate-swapped tables used here."""
    n = len(table)
    for a in range(n):
        if table[table[a][a]][a] != table[a][table[a][a]]:
            return (a, a, a)
    for a, b, c in itertools.product(range(min(n, 16)), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None
