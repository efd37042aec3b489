"""Error types shared across the library.

Every error carries a machine-readable ``code`` and an optional ``witness``
so the CLI can emit ``{"error": code, "witness": ...}`` and tests can assert
on the offending data.
"""


class PartFanError(Exception):
    code = "Error"

    def __init__(self, message="", witness=None):
        super().__init__(message or self.code)
        self.witness = witness

    def to_json(self):
        return {"error": self.code, "witness": self.witness}


class ZeroVector(PartFanError):
    code = "ZeroVector"


class DependentBasis(PartFanError):
    code = "DependentBasis"


class DimensionMismatch(PartFanError):
    code = "DimensionMismatch"


class InexactNumber(PartFanError):
    code = "InexactNumber"


class NonSimplicialCone(PartFanError):
    code = "NonSimplicialCone"


class DuplicateRay(PartFanError):
    code = "DuplicateRay"


class BadIndex(PartFanError):
    code = "BadIndex"


class UnknownCone(PartFanError):
    code = "UnknownCone"


class UnknownFace(UnknownCone):
    code = "UnknownFace"


class NotAFace(PartFanError):
    code = "NotAFace"


class NotComplete(PartFanError):
    code = "NotComplete"


class MixedBlock(PartFanError):
    code = "MixedBlock"


class PossibleIdentViolation(PartFanError):
    code = "PossibleIdentViolation"


class SeedNotPossible(PartFanError):
    code = "SeedNotPossible"


class FanMismatch(PartFanError):
    code = "FanMismatch"


class NotAdmissible(PartFanError):
    code = "NotAdmissible"


class NotComposable(PartFanError):
    code = "NotComposable"


class RankZero(PartFanError):
    code = "RankZero"


class DegenerateFunctional(PartFanError):
    code = "DegenerateFunctional"


class NotRank2(PartFanError):
    code = "NotRank2"


class NotAnInterval(PartFanError):
    code = "NotAnInterval"


class PosetInvalid(PartFanError):
    code = "PosetInvalid"


class Degenerate(PartFanError):
    code = "Degenerate"


class NotComparable(PartFanError):
    code = "NotComparable"


class ChainLimitExceeded(PartFanError):
    code = "ChainLimitExceeded"


class EnumerationLimitExceeded(PartFanError):
    code = "EnumerationLimitExceeded"


class PreconditionUnmet(PartFanError):
    code = "PreconditionUnmet"


class NotSimplicialArrangement(PartFanError):
    code = "NotSimplicialArrangement"


class NotAChamber(PartFanError):
    code = "NotAChamber"


class WrongBasis(PartFanError):
    code = "WrongBasis"


class WrongArrangement(PartFanError):
    code = "WrongArrangement"


class MissingWallAlgebraCertificate(PartFanError):
    code = "MissingWallAlgebraCertificate"


class BadInput(PartFanError):
    code = "BadInput"
