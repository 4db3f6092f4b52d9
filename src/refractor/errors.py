"""Exception hierarchy for the refractor toolkit."""


class RefractorError(Exception):
    """Base class for all toolkit errors."""


class ZeroVector(RefractorError):
    """A direction argument was the zero vector."""


class RegimeViolation(RefractorError):
    """The norm pair is neither Case I (kappa < 1) nor Case II (kappa > 1)."""


class NoRefraction(RefractorError):
    """No refracted direction exists for the given incidence and normal."""


class ConstraintViolation(RefractorError):
    """An incident ray points away from the interface (x.nu < 0)."""


class ConvergenceFailure(RefractorError):
    """An iterative method did not reach its tolerance within the cap."""


class OutOfDomain(RefractorError):
    """Point outside the admissible domain of a uniformly refracting surface."""


class NonConvergence(RefractorError):
    """The radius sweep did not reach the residual tolerance."""


class InfeasibleTarget(RefractorError):
    """Source/target configuration violates the admissibility conditions."""


class NonrealRoots(RefractorError):
    """The sheet quadratic has no real roots (should never happen for SPD tau)."""


class NotProportional(RefractorError):
    """Permeability is not a scalar multiple of permittivity (two-sheet material)."""


class Infeasible(RefractorError):
    """The transport instance has no feasible plan."""


class ValidationError(RefractorError):
    """Malformed input (JSON schema, shapes, signs)."""
