"""Tunable limits.

All bounds are soft budgets: operations raise OrderBudgetExceeded or
BudgetExceeded when they would grow past them, they never silently
truncate.  No limit trades exactness for speed: group axioms and
homomorphism checks are exact at every size.  ORDER_MAX may be overridden
with the CCT_ORDER_MAX environment variable; every operation that consumes
a limit also accepts it as an explicit argument.
"""

from __future__ import annotations

import os

ORDER_MAX_DEFAULT = 20000

# Cayley tables are stored up to this order; larger groups keep a
# permutation representation with a hash index (O(n^2) memory cliff).
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
