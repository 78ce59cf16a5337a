"""whitdim: exact invariants of Brylinski-Deligne-type covering groups.

Lattice-level arithmetic (Hermite/Smith forms, indices, saturations), based
root data with Frobenius actions, invariant quadratic forms of covers,
residual root data at apartment points, and the Whittaker-dimension
computations for covers of GL_r -- all in exact integer/rational arithmetic.
"""

__version__ = "0.1.0"

from .cover import (
    CoverSpec,
    WeylInvariantForm,
    central_index,
    classify_glr_family,
    form_from_glr_invariants,
    glr_cover,
    glr_invariants_of,
    m_qr,
    q_of_e0,
    y_qn,
)
from .errors import GeneralPositionError, MathConstraintError, ResourceLimitError
from .lattice import (
    INFINITE,
    FiniteAbelianStructure,
    Sublattice,
    congruence_kernel,
    coset_representatives,
    fixed_sublattice,
    hermite_normal_form,
    index,
    intersect,
    is_saturated,
    saturation,
    smith_invariants,
)
from .parahoric import (
    ApartmentPoint,
    ResidualRootData,
    is_hyperspecial,
    is_vertex,
    phi_x,
    residual_derived_simply_connected,
    residual_extension,
    residual_splits,
)
from .root_datum import (
    BasedRootDatum,
    FrobeniusAction,
    WeylGroup,
    build_glr,
    build_slr,
    build_sp2r,
    build_torus,
    coroot_lattice,
    is_derived_simply_connected,
    weyl_group,
)
from .whittaker import (
    LusztigParameter,
    enumerate_glr_table,
    glr_coxeter_parameter,
    is_general_position,
    squeeze_bounds,
    wh_dim_glr_closed,
    wh_dim_oracle,
    xi_of,
    y_x_rho,
)
