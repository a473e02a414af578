"""Error taxonomy shared by all modules.

Exit-code mapping used by the CLI: 2 for input/validation problems,
3 for numerical failures, 4 for an unbounded stopping problem.
"""


class MapstopError(Exception):
    exit_code = 3


class ValidationError(MapstopError):
    exit_code = 2


class ModelShapeMismatch(ValidationError):
    pass


# --- numerical failures (exit code 3) ---

class PoleHit(MapstopError):
    pass


class EigenFailure(MapstopError):
    pass


class BracketFailure(MapstopError):
    pass


class DegenerateRoots(MapstopError):
    pass


class RootCountMismatch(MapstopError):
    pass


class InversionUnstable(MapstopError):
    pass


class QuadratureFailure(MapstopError):
    pass


class HorizonTooShort(MapstopError):
    pass


class InvalidSolution(MapstopError):
    pass


class BoundaryMissing(MapstopError):
    pass


class BlowUp(MapstopError):
    pass


class Unbounded(MapstopError):
    """The stopping problem has no finite value (discount rate too small)."""
    exit_code = 4
