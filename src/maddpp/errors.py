"""Exception hierarchy shared by all maddpp modules.

Each error maps to a distinct CLI exit code (see cli.EXIT_CODES).
"""


class MaddError(Exception):
    """Base class for all maddpp errors."""


class EmptyPopulation(MaddError):
    pass


class InvalidProbability(MaddError):
    pass


class InvalidBinCount(MaddError):
    pass


class BinCountMismatch(MaddError):
    pass


class InvalidBandwidth(MaddError):
    pass


class InvalidQuantile(MaddError):
    pass


class EmptyGroup(MaddError):
    pass


class InvalidLambda(MaddError):
    pass


class LengthMismatch(MaddError):
    pass


class MissingLabels(MaddError):
    pass


class InvalidRatios(MaddError):
    pass


class EncodingError(MaddError):
    pass


class TrainingDiverged(MaddError):
    pass


class NotTrained(MaddError):
    pass


class InvalidObjective(MaddError):
    pass


class UnreadableInput(MaddError):
    pass
