"""conepit: exact-arithmetic toolkit for blackbox polynomial identity
testing, cone-closed basis isolation, and hitting-set constructions."""

from .circuits import Circuit, CircuitBuilder, Gate, Oracle, dense_expand, parse, serialize
from .conebasis import (
    BasisReport,
    cone_closed_basis_after_shift,
    find_cone_closed,
    is_basis_isolating,
    kronecker_weights,
    least_basis,
    shift_by_weight,
    transfer_submatrix,
    weight_of,
)
from .diagonal import DiagonalCircuit, build_psi, diag_pit, diag_power_vectorpoly, rank_of_forms
from .extraction import FilteredOracle, extract_coefficient, vandermonde_row
from .fields import DensePoly, Field, MERSENNE61, Scalar, rank_over_ft
from .hsg import (
    DesignFamily,
    HsgTuple,
    build_annihilator,
    fischer_rewrite,
    greedy_design,
    hard_map_substitution,
    local_kronecker,
)
from .pit import PitVerdict, brute_force_pit, low_cone_pit, sz_pit
from .polys import (
    MultiPoly,
    VectorPoly,
    cone_size,
    coeff_rank,
    enumerate_low_cone,
    is_cone_closed,
    is_submonomial,
    leading_monomial,
    pd_space_dim,
)

__version__ = "0.1.0"
