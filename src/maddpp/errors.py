"""Exception hierarchy shared by all maddpp modules.

Each error class carries its own CLI exit code as `exit_code`.  Codes 13,
14, 15, 20 and 23 are retired and not reused.  A count too large for any
array (`densities.SIZE_LIMIT`) raises OutOfMemory, as numpy's MemoryError
does.
"""


class MaddError(Exception):
    """Base class for all maddpp errors."""

    exit_code = 1


class EmptyPopulation(MaddError):
    exit_code = 10


class InvalidProbability(MaddError):
    exit_code = 11


class InvalidBinCount(MaddError):
    exit_code = 12


class EmptyGroup(MaddError):
    exit_code = 16


class InvalidLambda(MaddError):
    exit_code = 17


class LengthMismatch(MaddError):
    exit_code = 18


class MissingLabels(MaddError):
    exit_code = 19


class EncodingError(MaddError):
    exit_code = 21


class TrainingDiverged(MaddError):
    exit_code = 22


class InvalidObjective(MaddError):
    exit_code = 24


class UnreadableInput(MaddError):
    exit_code = 25


class UnwritableOutput(MaddError):
    exit_code = 26


class InvalidSeed(MaddError):
    exit_code = 27


class OutOfMemory(MaddError):
    exit_code = 28
