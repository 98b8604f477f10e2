"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """An input parameter is outside its physical or numerical domain."""


class SingularityError(ValueError):
    """A closed form was evaluated too close to the omega = E0 resonance."""


class TruncationHeadroomError(ValueError):
    """A requested state sits too close to the photon-number cutoff."""


class NormalizationError(ValueError):
    """A state that was required to be normalized is not."""


class DegeneracyAmbiguityError(RuntimeError):
    """Dressed-state matching could not single out one eigenvector."""


class SolverDiagnosticsError(RuntimeError):
    """The eigensolver failed or its output violates its accuracy contract."""


def _not_finite(name: str) -> ParameterDomainError:
    return ParameterDomainError(
        f"{name} is not finite at these parameters (outside double-precision range)")
