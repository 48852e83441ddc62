"""tetrakit: numerical operator theory on the tetrablock.

Membership geometry for the domain and its distinguished boundary,
classification of operator triples (tetrablock unitaries, isometries,
pseudo-commutative variants, a necessary-condition contraction certifier),
fundamental operator pairs, Douglas-type functional models with verified
lifts, and characteristic data sets with coincidence testing.

``TETRAKIT_THREADS`` caps BLAS threads; it is applied here, before any
submodule loads numpy, so it also takes effect for ``python -m tetrakit.cli``.
The package needs numpy alone.
"""

import os as _os

if _os.environ.get("TETRAKIT_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["TETRAKIT_THREADS"])

from .classify import (
    Certificate,
    ClassificationReport,
    DecompositionResult,
    OperatorTriple,
    canonical_decomposition,
    certify_e_contraction,
    check_e_isometry,
    check_pc,
    classify_triple,
    is_commuting,
)
from .errors import TetrakitError
from .fundops import (
    FundamentalPair,
    defect,
    fundamental_pair,
    is_special_pair,
    pencil_contractive,
)
from .geometry import (
    MembershipVerdict,
    Point3,
    in_distinguished_boundary,
    in_tetrablock,
    psi_eval,
    sample_bE,
    sup_psi_circle,
)
from .matkernel import (
    SubspaceBasis,
    Tolerances,
    commutator,
    compress,
    joint_eigenvalues,
    numerical_radius,
    operator_norm,
    orthonormal_range,
    psd_sqrt,
    solve_sandwich,
    spectral_radius,
)
from .models import (
    CoincidenceReport,
    DouglasModel,
    LiftOperator,
    ResidualTriple,
    TetrablockDataSet,
    build_lift,
    char_function,
    coincide,
    compute_Q,
    extract_data_set,
    kernel_model_triple,
    lift_is_strict,
    omega_tau,
    residual_triple,
    validate_special_data_set,
    verify_lift,
)

__version__ = "0.1.0"
