"""Exact symplectic exterior algebra with the Johnson machinery on top.

The package computes, over exact rationals: the primitive splitting of
the third exterior power of a genus-g symplectic space, the invariant
pairings omega3 / q2 / phi, Johnson elements of bounding-pair data, and
the unipotent action of primitive 3-forms on a weight-graded model of
symmetric three-point configuration homology.
"""

from .exterior import (Multivector, Sym2Element, SymplecticSpace, Vector,
                       as_rational, contraction3, delta, intersection,
                       is_primitive, primitive_basis, primitive_rank_two_ways,
                       project_primitive, split_primitive, sym_product, wedge)
from .forms import Transvection, omega3, phi, q2
from .johnson import (FIXTURE_NAMES, BoundingPairSpec, Fixture,
                      InvalidBoundingPair, InvalidSubsurface,
                      JohnsonIdentityError, JohnsonPair, SubsurfaceSpec,
                      bounding_pair_trivial_on_homology, builtin_fixture,
                      canonical_split, johnson_bp, johnson_element,
                      johnson_pair)
from .h3model import (DEFAULT_KAPPA2, WEIGHT_TAGS, DimensionAudit,
                      GradedH3Element, TorelliParams, act, dimension_audit,
                      lift_tube, variation)
from .render import (ParseError, parse_multivector, parse_rational, parse_sym2,
                     render_canonical, render_multivector, render_rational,
                     render_sym2)
from .config import ConfigError, JobConfig, config_from_fixture, parse_config
from .report import ReportDocument, Verdict
from .checks import run_invariant_checks
from .cli import main, run_job

__version__ = "0.1.0"

__all__ = [
    "Multivector", "Sym2Element", "SymplecticSpace", "Vector", "as_rational",
    "contraction3", "delta", "intersection", "is_primitive", "primitive_basis",
    "primitive_rank_two_ways", "project_primitive", "split_primitive",
    "sym_product", "wedge",
    "Transvection", "omega3", "phi", "q2",
    "FIXTURE_NAMES", "BoundingPairSpec", "Fixture", "InvalidBoundingPair",
    "InvalidSubsurface", "JohnsonIdentityError", "JohnsonPair", "SubsurfaceSpec",
    "bounding_pair_trivial_on_homology", "builtin_fixture", "canonical_split",
    "johnson_bp", "johnson_element", "johnson_pair",
    "DEFAULT_KAPPA2", "WEIGHT_TAGS", "DimensionAudit", "GradedH3Element",
    "TorelliParams", "act", "dimension_audit", "lift_tube", "variation",
    "ParseError", "parse_multivector", "parse_rational", "parse_sym2",
    "render_canonical", "render_multivector", "render_rational", "render_sym2",
    "ConfigError", "JobConfig", "config_from_fixture", "parse_config",
    "ReportDocument", "Verdict",
    "run_invariant_checks", "main", "run_job",
    "__version__",
]
