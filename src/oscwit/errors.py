"""Exception types shared across the package."""


class OscwitError(Exception):
    """Base class for all package-specific errors."""


class TruncationInsufficient(OscwitError):
    """Fock-space cutoff too small for the requested amplitude/tolerance."""


class DimensionMismatch(OscwitError):
    """Operands live on incompatible spaces."""


class WrongBasisTag(OscwitError):
    """Operation requires the other mode-basis labelling."""


class SameBasis(OscwitError):
    """State already carries the requested basis tag."""


class NotHermitian(OscwitError):
    """Matrix fails the Hermiticity tolerance."""


class DegenerateAngle(OscwitError):
    """Mixing angle undetermined (g = 0 and equal frequencies); pass theta explicitly."""


class Unstable(OscwitError):
    """Coupling strong enough to make the soft normal mode unstable."""


class InfeasibleTarget(OscwitError):
    """No state within the truncation attains the requested score."""


class NumericalFailure(OscwitError):
    """Solver linear algebra broke down beyond recovery."""


class NormalizationError(OscwitError):
    """State coefficients are not normalized."""


class PsiZeroUnit(OscwitError):
    """Coefficient vector is concentrated on the vacuum (|psi_0| = 1)."""


class NonzeroFirstMoments(OscwitError):
    """Simplified criterion applies only to states with vanishing first moments."""


class EvenK(OscwitError):
    """Witness construction requires odd K."""


class SearchFailed(OscwitError):
    """Probe amplitude exceeded what the truncation supports."""


class ConfigError(OscwitError):
    """Invalid or unknown configuration entry."""
