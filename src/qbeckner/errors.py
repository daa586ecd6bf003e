"""Exception types shared across the package."""


class QBecknerError(Exception):
    """Base class for all package errors."""


class NonHermitian(QBecknerError):
    """Matrix fails the Hermitian symmetry tolerance."""


class DomainViolation(QBecknerError):
    """Spectrum falls outside the domain of a scalar kernel."""


class SingularState(QBecknerError):
    """A full-rank density matrix was required."""


class NotPsd(QBecknerError):
    """Matrix has eigenvalues below the PSD clamping floor."""


class ZeroExponent(QBecknerError):
    """Power operator called with a zero exponent."""


class NotModularEigenvector(QBecknerError):
    """Jump operator is not an eigenvector of the modular operator."""


class NotDbc(QBecknerError):
    """Generator is not self-adjoint for the GNS or the KMS inner product."""


class ResidualTooLarge(QBecknerError):
    """Jumps do not rebuild the generator."""


class NoJumps(QBecknerError):
    """Operation needs the jump representation, which is unavailable."""


class NotPrimitive(QBecknerError):
    """Generator has a degenerate fixed-point space, or no spectral gap."""


class NotSymmetric(QBecknerError):
    """Operation requires the tracial case sigma = I/d."""


class OptimizerDiverged(QBecknerError):
    """An optimizer produced a non-finite value or stopped short of convergence."""


class GradientCheckFailed(QBecknerError):
    """An analytic gradient disagrees with central differences."""


class MissingEstimate(QBecknerError):
    """Bound ledger referenced an estimate that was not supplied."""


class IncompatibleJumps(QBecknerError):
    """Two generators do not share a common jump-operator support."""


class KernelComponent(QBecknerError):
    """Input has a component in the kernel of the Onsager operator."""


class NonPositiveCurvature(QBecknerError):
    """Check requires a strictly positive curvature bound."""


class SingularMetric(QBecknerError):
    """Metric Gram matrix of a sampled state is not positive definite."""


class LeftPositiveCone(QBecknerError):
    """Geodesic integration left the positive cone and could not recover."""


class UnknownFixture(QBecknerError):
    """No fixture registered under the requested name."""


class ConfigError(QBecknerError):
    """Experiment configuration is malformed."""
