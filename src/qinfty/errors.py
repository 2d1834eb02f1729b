"""Exception types shared across the package."""


class QinftyError(Exception):
    """Base class for all library-specific failures."""


class InvalidIntervalError(QinftyError):
    """Interval endpoints out of order or outside [0, 1]."""


class CapacityError(QinftyError):
    """An iteration or refinement cap was exceeded before certification."""


class Undecided(CapacityError):
    """No certified answer at this working precision; a higher one may give one."""


class BoundaryAmbiguityError(Undecided):
    """A point sits closer to a cylinder boundary than the achievable
    enclosure width, so the digit cannot be certified.

    Carries the two candidate digits.
    """

    def __init__(self, rank: int, candidates: tuple[int, int]):
        self.rank = rank
        self.candidates = candidates
        super().__init__(
            f"digit at rank {rank} undecidable between {candidates[0]} and {candidates[1]}"
        )


class NoViolationError(QinftyError):
    """No certified inequality violation found up to the search cap."""


class BudgetInfeasibleError(QinftyError):
    """The volume budget cannot be met within the index cap."""


class InvalidAddressError(QinftyError):
    """A digit lies outside the admissible range of its level."""


class ParameterRangeError(QinftyError):
    """A numeric parameter violates its documented range."""
