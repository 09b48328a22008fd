"""Exception hierarchy shared by all rssd modules."""


class RssdError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(RssdError):
    """Matrix dimensions are inconsistent with the declared system sizes."""


class ComputationFailed(RssdError):
    """A numerical routine (eigen-solver, SVD, ...) did not converge."""


class ImproperSection(RssdError):
    """First-order section has a degenerate denominator (c=0 with a!=0)."""


class UnstableSection(RssdError):
    """Compensator section pole lies in the closed right half-plane."""


class OutOfBox(RssdError):
    """Genome value lies outside its coefficient bound box."""


class DetVanishesOnContour(RssdError):
    """det(I + P2~ P1) has a zero on the imaginary axis or at infinity."""


class IllPosedLoop(RssdError):
    """(I - K D) is singular; the feedback loop is not well posed."""


class UnstableLoop(RssdError):
    """Closed loop is not internally stable."""


class BoundViolation(RssdError):
    """Achieved constrained eigenvector entries leave their bound boxes."""


class IllConditioned(RssdError):
    """cond(CR) exceeds the invertibility guard."""


class DivergentTrace(RssdError):
    """Simulation state magnitude exceeded the divergence threshold, or a
    trace holds non-finite samples (time None)."""

    def __init__(self, time):
        self.time = time
        super().__init__("trace has non-finite samples" if time is None
                         else f"trace diverged at t={time:.6g} s")


class ParseError(RssdError):
    """Input file could not be parsed or fails schema validation."""
