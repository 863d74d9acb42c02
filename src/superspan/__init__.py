"""Exact detection of linear subspaces super-spanned by power-map orbits
in projective space, with the vanishing-subsum machinery that explains
why only finitely many can occur."""

from . import errors
from .constructions import (
    CyclotomicFamily,
    cyclotomic_family,
    is_primitive_root,
    quadric_case_probe,
    sextic_field,
    sextic_point,
    verify_cyclotomic_family,
    verify_sextic_example,
)
from .detect import (
    ExceptionalReport,
    SubspaceRecord,
    enumerate_exceptional,
    intersection_count,
)
from .field import (
    FieldDesc,
    FieldValue,
    ModularResidue,
    cyclotomic_field,
    monicize,
    number_field,
    rational_field,
    reduce_mod_prime,
    root_mod_prime,
)
from .linalg import (
    Subspace,
    det,
    modular_rank_filter,
    rank,
    span_canonical,
    super_rank,
)
from .oracles import OracleResult, power_diff_classify, vanishing_subsum_bruteforce
from .orbit import (
    DEFAULT_EXPONENT_BUDGET,
    IterMatrix,
    ModularOrbit,
    ProjPoint,
    iterate,
    iterate_matrix,
    subspace_membership,
)
from .relations import (
    RelLattice,
    exponent_matrix,
    lattice_contains,
    lattice_reduce,
    relation_lattice,
)
from .subsum import (
    TermPartition,
    TermVector,
    bullet_partition,
    classify_exceptional,
    column_selections,
    deleted_row_rank,
    det_terms,
    fingerprint,
    finest_zero_partition,
)

__version__ = "0.1.0"
