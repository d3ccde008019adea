"""Exception types shared across the package."""


class NrpError(Exception):
    """Base class for all package errors."""


class BadParameter(NrpError, ValueError):
    """A size, step, horizon, exponent or certificate outside its valid range."""


class BadDatasetFile(NrpError):
    """A dataset file cannot be read or breaks the text format; ``line`` is
    the 1-based number of the offending line, None for the file as a whole."""

    def __init__(self, path, line, problem):
        self.path = path
        self.line = line
        where = f"{path}" if line is None else f"{path}, line {line}"
        super().__init__(f"{where}: {problem}")


class BadOutputPath(NrpError):
    """An output file or directory cannot be created or written."""

    def __init__(self, path, exc: OSError):
        self.path = path
        super().__init__(f"cannot write {path}: {exc.strerror or exc}")


class RowNormViolation(NrpError):
    def __init__(self, index, norm, limit):
        self.index = index
        self.norm = norm
        super().__init__(f"row {index} has norm {norm:.6g} > {limit:.6g}")


class BadLabel(NrpError):
    def __init__(self, index, value):
        self.index = index
        self.value = float(value)
        super().__init__(f"label at row {index} is {self.value!r}, expected +1 or -1")


class ZeroVector(NrpError):
    """Normalized margin requested for the zero vector."""


class NonFinite(NrpError):
    """A vector contains NaN or infinite entries; ``quantity`` names it."""

    def __init__(self, quantity):
        self.quantity = quantity
        super().__init__(f"non-finite entries in {quantity}")


class TooFewRows(NrpError):
    """A method's step size or theory horizon has a log n factor, which is 0
    at n = 1."""

    def __init__(self, algo, n):
        self.algo = algo
        self.n = n
        super().__init__(f"{algo} needs n >= 2 rows (log n = 0), got n = {n}")


class NonFiniteIterate(NrpError):
    """A game went non-finite: ``player`` ('w' or 'p') formed a non-finite
    ``quantity`` in round ``round_index`` (1-based)."""

    def __init__(self, round_index, player, quantity):
        self.round_index = round_index
        self.player = player
        self.quantity = quantity
        super().__init__(f"non-finite {quantity} at round {round_index}, "
                         f"in the {player}-player's step")


class RejectionBudget(NrpError):
    """Rejection sampling stalled (margin too close to 1)."""
