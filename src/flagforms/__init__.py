"""Characteristic-form calculus on flag bundles.

Exact Schur/Segre/generalized-Schur polynomials, Gysin push-forwards with an
independent Weyl-symmetrizer oracle, pointwise curvature of universal
bundles with induced metrics, Monte Carlo fiber integration, and
Schur-cone/positivity analysis.
"""

from .combinat import (
    DimensionSequence,
    Partition,
    admissible_pairs,
    complete_sequence,
    conjugate,
    lambda_from_sigma_tilde,
    nu_from_rho,
    relative_dimension,
    reverse,
    sigma_tilde,
)
from .charpoly import (
    ChernPoly,
    SchurVector,
    gen_schur,
    schur,
    schur_decompose,
    segre_polys,
)
from .rootcalc import (
    RootPoly,
    UniversalBundleSpec,
    expand_expression,
    universal_chern_class,
    universal_total_chern,
)
from .gysin import (
    grassmann_c1c2_pushforward,
    pushforward_dp,
    pushforward_oracle,
    schur_via_flag,
)
from .conegeom import RayFamily2D, builtin_families, cone_membership_2d, in_schur_cone, ray_hull_2d
from .formlab import (
    CurvatureTensor,
    ExtForm,
    FormMatrix,
    GeneratorSpace,
    chern_forms,
    griffiths_check,
    griffiths_sample,
    positivity_check,
    wedge,
)
from .flagnum import (
    ChartPoint,
    FlagChart,
    SamplerConfig,
    curvature_at,
    curvature_center,
    frames_eps,
    metric_universal,
    pushforward_numeric,
    theta_intrinsic,
    verify_main_theorem,
)
from .exprs import parse

__version__ = "0.1.0"
