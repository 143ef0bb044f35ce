"""Exception types shared across the package."""


class KornKitError(Exception):
    """Base class for all errors raised by korn_kit."""


class DeterminantTooSmall(KornKitError):
    """A matrix determinant fell below the configured positive floor."""


class GridTooSmall(KornKitError):
    """A finite-difference stencil needs at least 3 points per axis."""


class GridTooLarge(KornKitError, ValueError):
    """A grid is too large for the memory its experiment needs; refused up front."""


class DimensionMismatch(KornKitError):
    """An operation received fields of incompatible dimension."""


class UnknownKind(KornKitError):
    """Requested analytic field family does not exist."""


class NonFiniteCoefficient(KornKitError):
    """A coefficient sample evaluated to NaN or Inf."""


class NotIntegrable(KornKitError):
    """Adaptive quadrature of a coefficient norm exceeded its caps."""


class FaceMismatch(KornKitError):
    """Face data does not match the face of the target grid."""


class DisconnectedDomain(KornKitError):
    """Points of a voxel domain that the seed region does not reach through its faces."""


class SeedOutsideDomain(KornKitError):
    """The seed region is not contained in the voxel domain."""


class EigensolveFailed(KornKitError):
    """The generalized eigenvalue solve did not converge."""


class ConfigError(KornKitError):
    """A run configuration failed validation."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
