"""Tunable limits, each read from this module when the call is made.

Every limit is a budget: an operation that would grow past it raises
OrderBudgetExceeded, BudgetExceeded or InputTooLarge and never truncates
or samples.
CCT_ORDER_MAX overrides ORDER_MAX_DEFAULT; coset enumeration alone also
takes its budget per call (`max_cosets`), since its callers size it.
"""

from __future__ import annotations

import os

ORDER_MAX_DEFAULT = 20000

# Up to this order a group's product reads a Cayley table ("cayley-table"),
# built from 2 n |gens| products plus n list reads per row built: every row
# of a table up to 256 elements, and in a larger one only the rows read,
# each when first read (O(n^2) memory cliff once every row is read).
# Above it the product multiplies the raw elements and looks the result up
# in a hash index: "permutation-composition" for permutation groups,
# "element-index" for the rest, realized presentations included.
CAYLEY_TABLE_MAX = 4096

SUBGROUP_ENUM_MAX = 128

HOM_DOMAIN_MAX = 512

DEFAULT_MAX_COSETS = 10**6

# Inputs that are cheap to write but costly to expand, checked before they
# are built: the letters one presentation spells out once its powers are
# expanded, and the degree of a permutation.
PRESENTATION_LETTERS_MAX = 10**6

PERM_DEGREE_MAX = 10**4


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
