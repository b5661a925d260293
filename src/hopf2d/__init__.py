"""Coalgebra and bialgebra structures on 2D square lattices."""

from .grids import (
    Alphabet,
    FormalSum,
    GridShape,
    GridWord,
    Symbol,
    site_index,
    sums_equal,
)
from .linops import Representation, SparseOperator, evaluate
from .coalgebra import (
    CheckReport,
    CoalgebraExample,
    DomainError,
    apply_splitter,
    boxplus,
    check_antipode,
    check_counit,
    check_homomorphism,
    check_quasi_1d_assoc,
    check_trivial_proposition,
    check_xy_compat,
    cube_xyz_compat,
    dual_product,
    grow,
)
from .instances import (
    PivotConfig,
    TaftConfig,
    half_plane_grid,
    make_cross,
    make_cyclic_group,
    make_group_like,
    make_lie_like,
    make_pivot,
    make_quasi1d_group,
    make_quasi1d_lie,
    make_taft,
    make_uq_symbolic,
)

__version__ = "0.1.0"
