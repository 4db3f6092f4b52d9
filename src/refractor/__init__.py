"""Refracting interfaces between anisotropic media with norm wave fronts.

Library layout:

* ``norms``     norm calculus, dual norms, contrast constant kappa
* ``snell``     vector Snell law and the Fermat least-path oracle
* ``surfaces``  uniformly refracting surfaces S_I / S_II
* ``solver``    semi-discrete refractor design (radii from target masses)
* ``fresnel``   Fresnel sheet algebra and material-to-norm conversion
* ``transport`` transport cost and the design's duality certificate
* ``kernels``   numpy scoring, tally and threshold kernels
* ``cli``       command-line front end (``refractor`` entry point)
"""

from .errors import (ConstraintViolation, ConvergenceFailure, Infeasible,
                     InfeasibleTarget, NoRefraction, NonConvergence,
                     NonrealRoots, NotProportional, OutOfDomain,
                     RefractorError, RegimeViolation, ValidationError,
                     ZeroVector)
from .norms import (MediumPair, Norm, Regime, contrast_kappa, dual_gradient,
                    dual_norm_eval, norm_eval, norm_gradient)
from .snell import RefractionEvent, check_constraint, fermat_path, refract
from .surfaces import (UniformSurface, support_test, surface_normal,
                       surface_radius)
from .solver import (Refractor, RefractorMeasureReport, SourceDensity,
                     TargetDensity, TargetMeasure, approximate_measure,
                     dilate, refractor_map, refractor_measure, solve_discrete)
from .fresnel import (FresnelMaterial, SheetRadii, induced_norm,
                      pair_kappa_from_materials, phi_psi, sheet_radii,
                      single_sheet_check)
from .transport import (CostMatrix, build_cost, check_c_concavity,
                        solve_ot_exact)

__version__ = "0.1.0"
