"""Exception types shared across the toolkit.

ValueError subclasses are input errors (CLI exit code 2); VerificationError
subclasses are verification failures (exit code 1, with ``error.json``).
"""


class DegenerateInputError(ValueError):
    """A Mobius denominator is too close to zero to evaluate reliably."""


class IllConditionedBoundaryError(ValueError):
    """A zero or segment endpoint sits too close to the unit circle."""


class CardinalityError(ValueError):
    """Two zero lists that must have equal total multiplicity do not."""


class RegionEmptyError(ValueError):
    """A sampling region contains no admissible sample points."""


class AtlasInconsistencyError(ValueError):
    """Harmonic-measure totals of an atlas are not integers within tolerance."""


class VerificationError(RuntimeError):
    """A computation ran out of resolution or refinement before it could
    verify its result, or found a hypothesis it checks violated: the CLI
    writes the failure to a report and exits 1."""

    def to_json(self) -> dict:
        return {"type": type(self).__name__, "message": str(self)}


class HypothesisViolationError(VerificationError):
    """Per-component zero counts of the two products disagree."""


class ResolutionError(VerificationError):
    """A quadrature or grid did not resolve the quantity within its cap."""


class ConstructionExhaustedError(VerificationError):
    """The inductive radius search ran out of room below the boundary."""

    def __init__(self, message: str, radii_placed: int = 0):
        super().__init__(message)
        self.radii_placed = radii_placed

    def to_json(self) -> dict:
        return {**super().to_json(), "radii_placed": self.radii_placed}


class GridTooCoarseError(VerificationError):
    """The conjugation residual on the grid exceeds its tolerance."""


class AmbiguousTopologyError(VerificationError):
    """A level set could not be resolved into clean Jordan components."""


class ContourThroughZeroError(VerificationError):
    """The function modulus on a contour is too small for a safe winding count."""


class RefinementExhaustedError(VerificationError):
    """Repeated refinement failed to bring a step norm under its target.

    ``alphas`` holds the step sizes tried, in order, and ``last_failures`` why
    the last of them was rejected (both empty when the refinement that ran
    out was not an alpha halving)."""

    def __init__(self, message: str, alphas: tuple[float, ...] = (), last_failures: tuple[str, ...] = ()):
        super().__init__(message)
        self.alphas = alphas
        self.last_failures = last_failures

    def to_json(self) -> dict:
        return {**super().to_json(), "alphas": list(self.alphas), "last_failures": list(self.last_failures)}
