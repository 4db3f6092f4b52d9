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


class OutOfDomain(RefractorError):
    """Point outside the admissible domain of a uniformly refracting surface."""


class NonConvergence(RefractorError):
    """An iterative method did not reach its tolerance.  A design says why:
    stop is its last Newton run's "singular", "damping" or "budget", or the
    last fill's "stagnated" or "budget", sweeps that fill's rounds, and
    deficit (g - M) / total at the lowest node residual any fill round or
    accepted Newton step of either start reached.  Others leave None."""

    def __init__(self, message, stop=None, sweeps=None, deficit=None):
        super().__init__(message)
        self.stop = stop
        self.sweeps = sweeps
        self.deficit = deficit


class InfeasibleTarget(RefractorError):
    """Source/target configuration violates the admissibility conditions,
    or a transport instance has no feasible plan."""


class NonrealRoots(RefractorError):
    """The sheet quadratic has no real roots (should never happen for SPD tau)."""


class NotProportional(RefractorError):
    """Permeability is not a scalar multiple of permittivity (two-sheet material)."""


class ValidationError(RefractorError):
    """Malformed input (JSON schema, shapes, signs)."""
