"""dynamolab: a numerical laboratory for the spherical alpha^2-dynamo operator.

Subpackages map onto the main concerns:

- grid:      radial discretization in u = r*psi coordinates
- profiles:  alpha(r) profile families and the CLI literal syntax
- operator:  dynamo matrix assembly, J-symmetry, quadratic pencil
- spectral:  dense or certified local eigensolves, pair classification, Jordan probes
- branches:  eigenvalue branch sweeps and exceptional-point bisection
- darboux:   scalar Darboux/intertwining positive control
- mre:       matrix Riccati equations and their linearization
- nogo:      structure functions and the no-go certificate
- cli:       command-line front end
"""

from .errors import (
    BracketError,
    ClassificationError,
    ConfigurationError,
    DegeneratePencilError,
    DegenerateQError,
    DomainError,
    DynamoLabError,
    ShapeError,
    SingularSuperpotentialError,
    SolverError,
    TrackingError,
)
from .branches import BranchEvent, BranchTrace, SweepConfig, dynamo_family, locate_ep, sweep
from .darboux import (
    DarbouxPair,
    GivenSeed,
    darboux_partner,
    factorization_residual,
    partner_mode,
    product_invariant_check,
    verify_isospectral,
)
from .grid import RadialGrid, TridiagOp, build_grid, inner_product, laplacian_l
from .mre import (
    MatrixODESolution,
    eigenfunction_equivalence,
    mre_linear_solve,
    riccati_residual,
)
from .nogo import (
    AlphaPair,
    GaugeChoice,
    NoGoReport,
    StructureFunctions,
    asymptotic_l_increment,
    build_R,
    builtin_pair_family,
    degenerate_case_check,
    intertwining_defect,
    nogo_certificate,
)
from .operator import (
    DynamoMatrix,
    PencilCoefficients,
    assemble,
    lambda_pm,
    pencil_coefficients,
    pencil_psi2,
    pseudo_hermiticity_residual,
    sharp,
)
from .profiles import AlphaProfile, parse_profile
from .spectral import JordanProbe, Spectrum, classify_pairs, eigen, jordan_probe

__all__ = [
    "AlphaPair",
    "AlphaProfile",
    "BracketError",
    "BranchEvent",
    "BranchTrace",
    "ClassificationError",
    "ConfigurationError",
    "DarbouxPair",
    "DegeneratePencilError",
    "DegenerateQError",
    "DomainError",
    "DynamoLabError",
    "DynamoMatrix",
    "GaugeChoice",
    "GivenSeed",
    "JordanProbe",
    "MatrixODESolution",
    "NoGoReport",
    "PencilCoefficients",
    "RadialGrid",
    "ShapeError",
    "SingularSuperpotentialError",
    "SolverError",
    "Spectrum",
    "StructureFunctions",
    "SweepConfig",
    "TrackingError",
    "TridiagOp",
    "assemble",
    "asymptotic_l_increment",
    "build_R",
    "build_grid",
    "builtin_pair_family",
    "classify_pairs",
    "darboux_partner",
    "degenerate_case_check",
    "dynamo_family",
    "eigen",
    "eigenfunction_equivalence",
    "factorization_residual",
    "inner_product",
    "intertwining_defect",
    "jordan_probe",
    "lambda_pm",
    "laplacian_l",
    "locate_ep",
    "mre_linear_solve",
    "nogo_certificate",
    "parse_profile",
    "partner_mode",
    "pencil_coefficients",
    "pencil_psi2",
    "product_invariant_check",
    "pseudo_hermiticity_residual",
    "riccati_residual",
    "sharp",
    "sweep",
    "verify_isospectral",
]

__version__ = "0.1.0"
