"""Geometric-rate algebraic approximation of analytic multigraphs.

Core pieces: multivariate polynomial / pseudopolynomial algebra, a batched
companion-eigenvalue root solver with one Newton step, bottleneck root
matching and the Hoelder-type perturbation bound, sampled compact sets
with Hausdorff / fiberwise metrics and Kuratowski convergence checks,
least-squares polynomial approximation, the forward and converse rate
pipelines, closed-form extremal functions for standard sets, and the
staircase / closure counterexample demos.
"""

from .algebra import (
    Polynomial,
    Pseudopolynomial,
    expr_from_json,
    vieta_from_roots,
)
from .chebyshev import ApproxResult, least_squares, scalar_bws_rate
from .converse import (
    ConverseResult,
    LemmaConstants,
    converse_experiment,
    detect_covering_number,
    product_bound_constants,
    reconstruct_coefficients,
)
from .demos import (
    build_counterexample,
    closure_failure_demo,
    counterexample_rates,
    fiberwise_constant_probe,
)
from .extremal import Box, Disc, Polydisc, Segment, siciak_phi
from .forward import ForwardExperiment, forward_rate_experiment, sample_multigraph
from .roots import RootMatching, RootSet, hoelder_check, match_roots, solve_monic
from .sets_metrics import (
    Multigraph,
    RateFit,
    SampledCompact,
    fiberwise_hausdorff,
    fit_geometric_rate,
    kuratowski_check,
    sample_box,
    sample_disc,
    sample_segment,
)

__version__ = "0.1.0"
