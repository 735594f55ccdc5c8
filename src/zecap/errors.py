"""Exception types raised by validation and solver routines.

Every rejection carries the measured quantity that triggered it, so callers
can report *how far* an input was from valid instead of just "invalid".
"""

from __future__ import annotations


class ZecapError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ZecapError):
    """An input object failed a mathematical-contract check."""


class NotHermitianError(ValidationError):
    """Matrix is not Hermitian within tolerance."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not Hermitian: max |M - M^dagger| = {deviation:.3e} > {tol:.1e}"
        )


class NotPsdError(ValidationError):
    """Matrix has an eigenvalue below -tolerance."""

    def __init__(self, min_eigenvalue: float, tol: float):
        self.min_eigenvalue = float(min_eigenvalue)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not positive semidefinite: min eigenvalue = {min_eigenvalue:.3e} < -{tol:.1e}"
        )


class TraceNotOneError(ValidationError):
    """Density matrix trace differs from 1 beyond tolerance."""

    def __init__(self, actual: float, tol: float):
        self.actual = float(actual)
        self.tol = float(tol)
        super().__init__(f"trace = {actual!r}, expected 1 within {tol:.1e}")


class NotTracePreservingError(ValidationError):
    """Kraus operators do not sum to the identity in the dagger-product sense."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            f"sum_m K_m^dagger K_m deviates from I by {deviation:.3e} (Frobenius) > {tol:.1e}"
        )


class PovmIncompleteError(ValidationError):
    """POVM elements do not sum to the identity."""

    def __init__(self, deviation: float, tol: float):
        self.deviation = float(deviation)
        self.tol = float(tol)
        super().__init__(
            f"POVM elements sum deviates from I by {deviation:.3e} (Frobenius) > {tol:.1e}"
        )


class DimensionMismatchError(ValidationError):
    """Operands live in different or unexpected dimensions."""


class InvalidProbabilitiesError(ValidationError):
    """A probability vector has entries outside [0, 1] or does not sum to 1."""


class NotStochasticError(ValidationError):
    """A classical transition matrix has a row that is not a distribution."""

    def __init__(self, row: int, row_sum: float):
        self.row = int(row)
        self.row_sum = float(row_sum)
        super().__init__(
            f"row {row} is not a probability distribution (sum = {row_sum!r})"
        )


class EmptySupportError(ZecapError):
    """All outcome probabilities of a state fell at or below the support cutoff."""

    def __init__(self, state_index: int | None = None, eps: float | None = None):
        self.state_index = state_index
        self.eps = eps
        where = f" for state {state_index}" if state_index is not None else ""
        cut = f" (eps = {eps:.1e})" if eps is not None else ""
        super().__init__(f"no outcome probability exceeds the support cutoff{where}{cut}")


class SizeLimitError(ZecapError):
    """A combinatorial object exceeds the configured exact-computation cap."""

    def __init__(self, size: int, limit: int, what: str = "vertices"):
        self.size = int(size)
        self.limit = int(limit)
        try:
            shown = f"{size}"
        except ValueError:  # past Python's limit on int-to-decimal conversion
            shown = f"at least 2^{self.size.bit_length() - 1}"
        super().__init__(f"{shown} {what} exceeds the limit of {limit}")


class NotConvergedError(ZecapError):
    """An iterative solver hit its iteration cap before meeting tolerances."""

    def __init__(self, iterations: int, lower: float, upper: float):
        self.iterations = int(iterations)
        self.lower = float(lower)
        self.upper = float(upper)
        self.gap = self.upper - self.lower
        super().__init__(
            f"solver did not converge after {iterations} iterations "
            f"(certified bracket [{self.lower:.9g}, {self.upper:.9g}], gap {self.gap:.3e})"
        )


class AmbiguousSupportsError(ZecapError):
    """Two codewords can produce the same output word, so no zero-error decoder exists."""

    def __init__(self, pair: tuple[int, int], word: tuple[int, ...]):
        self.pair = (int(pair[0]), int(pair[1]))
        self.word = tuple(int(w) for w in word)
        super().__init__(
            f"messages {self.pair[0]} and {self.pair[1]} both reach output word {self.word}"
        )
