"""Workbench for finite associative rings given by structure constants."""

from ringbench.core import (
    AdditiveShape, ConstructionError, DomainError, InputError, LimitError,
    Limits, DEFAULT_LIMITS, QuotientRing, Ring, StructureRing, SubRing,
    center, elem_arith, enumerate_elements, make_ring, units_and_regulars,
    validate_ring,
)
from ringbench.groups import GroupTable, cyclic, dihedral, direct_product, quaternion8
from ringbench.ideals import (
    Ideal, all_ideals, ideal_closure, ideal_lattice, ideal_power,
    ideal_product, is_semiprime, jacobson_radical, nilpotency_index,
    prime_radical, principal_ideal, quotient,
)
from ringbench.construct import (
    as_structure_ring, augmentation_ideal, catalog, catalog_names,
    exterior_square_ring, full_matrix_ring, group_algebra, group_sum_ideal,
    integers_mod, matrix_pattern_ring, relative_augmentation_ideal,
    triangular_matrix_ring,
)
from ringbench.props import (
    central_series_through_radical, centrally_essential,
    completely_centrally_essential, full_report, is_commutative, is_invariant,
    is_lie_nilpotent, is_local, is_reversible, is_semicommutative,
    is_strongly_bounded, is_strongly_lie_nilpotent, is_uniserial, lie_class,
    lie_series, ore_check, sample_rings, verify_ce_counterexample,
    zero_divisor_symmetry,
)

# no finite-ring path needs the symbolic layer, so it is imported on first
# use: its names are looked up on ringbench.symbolic at each access
_SYMBOLIC = ("function_field", "jet_verify", "triangle_verify")


def __getattr__(name):
    if name in _SYMBOLIC:
        from ringbench import symbolic
        return getattr(symbolic, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = [
    "AdditiveShape", "ConstructionError", "DomainError", "InputError",
    "LimitError", "Limits", "DEFAULT_LIMITS", "QuotientRing", "Ring",
    "StructureRing", "SubRing", "center", "elem_arith", "enumerate_elements",
    "make_ring", "units_and_regulars", "validate_ring",
    "GroupTable", "cyclic", "dihedral", "direct_product", "quaternion8",
    "Ideal", "all_ideals", "ideal_closure", "ideal_lattice", "ideal_power",
    "ideal_product", "is_semiprime", "jacobson_radical", "nilpotency_index",
    "prime_radical", "principal_ideal", "quotient",
    "as_structure_ring", "augmentation_ideal", "catalog", "catalog_names",
    "exterior_square_ring", "full_matrix_ring", "group_algebra",
    "group_sum_ideal", "integers_mod", "matrix_pattern_ring",
    "relative_augmentation_ideal", "triangular_matrix_ring",
    "central_series_through_radical", "centrally_essential",
    "completely_centrally_essential", "full_report", "is_commutative",
    "is_invariant", "is_lie_nilpotent", "is_local", "is_reversible",
    "is_semicommutative", "is_strongly_bounded", "is_strongly_lie_nilpotent",
    "is_uniserial", "lie_class", "lie_series", "ore_check", "sample_rings",
    "verify_ce_counterexample", "zero_divisor_symmetry",
    "function_field", "jet_verify", "triangle_verify",
]
