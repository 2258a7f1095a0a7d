"""Tunable limits.

All bounds are soft budgets: operations raise OrderBudgetExceeded or
BudgetExceeded when they would grow past them, they never silently
truncate.  No limit trades exactness for speed: group axioms and
homomorphism checks are exact at every size.  ORDER_MAX may be overridden
with the CCT_ORDER_MAX environment variable.  Some operations also accept
their limit as an explicit argument: `from_permutations` (order_max),
`iter_homs`, `enumerate_homs` and `hom_count` (domain_max), `all_subgroups`
and `factor_through_class` (enum_max), and `todd_coxeter` and `realize`
(max_cosets).  Everywhere else the group-order limit takes no argument and
is read from `order_max()` only: in `cyclic`, `abelian`, `dihedral`,
`direct_product`, `symmetric` and `alternating` (through
`from_permutations`), `minimal_generating_set`, `truncated_generator`,
`build_small_catalog`, and the closure `realize` builds over its coset
table.
"""

from __future__ import annotations

import os

ORDER_MAX_DEFAULT = 20000

# Up to this order a group's product reads a Cayley table ("cayley-table"),
# built from 2 n |gens| products plus n^2 list reads (O(n^2) memory cliff).
# Above it the product multiplies the raw elements and looks the result up
# in a hash index: "permutation-composition" for permutation groups,
# "element-index" for the rest, realized presentations included.
CAYLEY_TABLE_MAX = 4096

SUBGROUP_ENUM_MAX = 128

HOM_DOMAIN_MAX = 512

DEFAULT_MAX_COSETS = 10**6


def order_max() -> int:
    """Current group-order budget (CCT_ORDER_MAX env var wins)."""
    raw = os.environ.get("CCT_ORDER_MAX")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"CCT_ORDER_MAX must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError(f"CCT_ORDER_MAX must be positive, got {value}")
        return value
    return ORDER_MAX_DEFAULT
