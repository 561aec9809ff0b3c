"""Exception and warning types shared across the package.

The CLI maps the three top-level categories onto distinct exit codes:
ConfigError -> 2, IoError -> 3, ModelError -> 4.
"""


class SbdError(Exception):
    """Base class for all package errors."""


class ConfigError(SbdError):
    """Invalid, inconsistent, or unknown configuration."""


class IoError(SbdError):
    """File reading/writing or format failure."""


class ModelError(SbdError):
    """Numerical or model-layer failure."""


# --- structured linear algebra ---

class DimensionMismatch(ModelError):
    pass


class SingularCirculant(ModelError):
    pass


class OddLattice(ModelError):
    """Even vertical order required; the centering permutation shifts by n_v/2."""


# --- Gaussian machinery ---

class SingularInnovation(ModelError):
    pass


class NegativeEigenvalue(ModelError):
    pass


class SingularConstraintGram(ModelError):
    pass


class ConstraintViolated(ModelError):
    pass


class IllConditioned(ModelError):
    pass


class NuggetRetry(UserWarning):
    """A Cholesky factorization succeeded only after the nugget retry."""


# --- model / samplers ---

class MaskNotKronecker(ModelError):
    pass


class NonPositiveVariance(ModelError):
    pass


class NonPositiveScale(ModelError):
    pass


class IndefiniteS(ModelError):
    pass


class StaleWorkspace(ModelError):
    pass


class NonFiniteTrajectory(ModelError):
    pass


# --- diagnostics / oracle ---

class DegenerateTrace(ModelError):
    pass


class TooLarge(ModelError):
    pass


class IndefiniteDense(ModelError):
    pass
