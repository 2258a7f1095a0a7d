"""cct: socles, radicals and cellular generators for finite groups.

The library computes, for a finite group H and a generator A (a single
finite group or a formal free product of several), the subgroup generated
by all homomorphic images of A in H, the normal subgroup it grows into
through the ascending quotient chain, and the membership predicates those
two co-reflections decide.  Supporting machinery includes exhaustive
homomorphism and isomorphism enumeration, finitely presented groups with
coset enumeration, small-group catalogs, and a CLI with JSON reports.
"""

from .catalogs import (
    Catalog,
    CatalogEntry,
    SocleRadicalReport,
    build_small_catalog,
    classify_up_to_iso,
    factor_through_class,
    socle_equals_radical,
    truncated_generator,
)
from .coreflections import (
    GeneratorSpec,
    HierarchyReport,
    RadicalChain,
    RadicalCheck,
    check_invariants,
    hierarchy_report,
    is_constructible,
    is_generated,
    radical,
    socle,
    verify_radical_property,
)
from .errors import (
    BudgetExceeded,
    CctError,
    InputTooLarge,
    NotAGroup,
    NotNormal,
    OrderBudgetExceeded,
    ParseError,
    UndefinedName,
)
from .groups import (
    FiniteGroup,
    QuotientMap,
    Subgroup,
    abelian,
    all_subgroups,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    element_order,
    from_cayley,
    from_permutations,
    is_normal,
    normal_closure,
    perm_from_cycles,
    quaternion,
    quotient,
    subgroup_generated,
    symmetric,
)
from .homs import (
    Homomorphism,
    enumerate_homs,
    hom_count,
    image,
    isomorphic,
    isomorphism,
    iter_homs,
    minimal_generating_set,
)
from .presentations import (
    CosetTable,
    Presentation,
    Word,
    parse_presentation,
    realize,
    todd_coxeter,
)

__version__ = "0.1.0"
