"""Linear optimization over symmetric cones via geodesic interior-point methods.

The package solves primal-dual pairs over direct sums of orthant,
second-order, and PSD blocks by tracking the central path with a single
interior variable w updated along cone geodesics Q(w^{1/2}) exp(t d).
Modules:

* :mod:`geoipm.jordan` -- Euclidean Jordan-algebra kernel (products,
  quadratic representation, spectral calculus, cone automorphisms);
* :mod:`geoipm.geometry` -- geodesics, distance, divergence, the gauge q;
* :mod:`geoipm.subspace` -- constraint data, scaled projections, Newton
  directions, divergence bounds, mu-selection, feasible points;
* :mod:`geoipm.solver` -- short-step, centering, and long-step algorithms;
* :mod:`geoipm.harness` -- problem files, random instances, experiments, CLI.
"""

from . import geometry, harness, jordan, solver, subspace
from .errors import (
    ConeMismatchError,
    DegenerateConstraintsError,
    DomainError,
    GeoipmError,
    IllConditionedBasisError,
    IterationLimitError,
    NumericalFailureError,
    ParameterError,
    ProblemFormatError,
)
from .geometry import GeodesicRay, divergence, divergence_profile, geodesic_distance, geodesic_point, q_fn, q_inv, ray
from .jordan import (
    AlgebraElement,
    ConeAutomorphism,
    ConeDescriptor,
    Orthant,
    Psd,
    SecondOrder,
    apply_automorphism,
    circ,
    element,
    from_blocks,
    identity,
    quad_rep,
    random_automorphism,
    spectral_map,
)
from .solver import (
    LongStepParams,
    Result,
    ShortStepParams,
    SolverTrace,
    center,
    longstep,
    oracle_center,
    shortstep,
    shortstep_params,
    solve,
)
from .subspace import (
    BasisForm,
    ConicProblem,
    NewtonData,
    OperatorForm,
    ScaledFrame,
    as_operator_form,
    duality_gap,
    feasible_point,
    mu_candidates,
    newton_direction,
    transform_problem,
)
from .harness import generate_random_sdp, load_problem, save_problem

__version__ = "0.1.0"
