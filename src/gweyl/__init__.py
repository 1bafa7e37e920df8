"""Weyl, anti-Wick and hybrid quantization over Gaussian measures."""

__version__ = "0.1.0"

from .errors import GweylError, InputError, NumericalError, ResourceError
from .gaussian import (
    GaussianMeasure,
    PhasePoint,
    QuadratureRule,
    bilinear_dot,
    bilinear_sq,
    cameron_martin_check,
    density,
    ell_abs_moment,
    exp_integral,
    gauss_quadrature,
    sample,
    symplectic,
    wick_moment,
)
from .hermite import (
    FunctionRep,
    HermiteBasis,
    TruncationWarning,
    basis_element,
    coherent_overlap,
    coherent_state,
    constant_rep,
    gamma_map,
    leb_coherent_state,
    multi_indices,
    project,
)
from .bargmann import (
    BargmannFn,
    aw_kernel,
    bargmann,
    bargmann_isometry_defect,
    reproducing_eval,
    seminorm_I,
    weyl_kernel,
)
from .wigner import (
    LowConfidenceWarning,
    WignerGrid,
    wigner_coherent,
    wigner_gauss,
    wigner_grid,
    wigner_leb_relation_check,
    wigner_via_bargmann,
)
from .heat import (
    CoordinateSplit,
    decomposition_check,
    heat_adjoint_M,
    heat_full,
    op_S_I,
    op_T_I,
    smooth_symbol,
)
from .symbols import (
    LatticeSymbolParams,
    SymbolDescriptor,
    make_constant,
    make_exponential,
    make_fourier_measure,
    make_lattice,
    make_quadratic,
    norm_NIm,
    norm_Nm,
    stochastic_ext_defect,
    verify_class,
)
from .quantize import (
    ConvergenceReport,
    IndexLadder,
    OperatorMatrix,
    antiwick_equals_smoothed_weyl_check,
    antiwick_matrix,
    cv_bound,
    hybrid_matrix,
    ladder_run,
    operator_norm,
    oracle_U,
    weyl_matrix,
    weyl_matrix_classical,
    wick_symbol,
)
from .mc import (
    BrownianGrid,
    lattice_norm_probability,
    mc_integral,
    sample_brownian,
    sup_ball_probability_exact,
)

__all__ = [name for name in dir() if not name.startswith("_")]
