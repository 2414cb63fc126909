"""Exception hierarchy shared by all qmave modules."""


class QmaveError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(QmaveError):
    """A parameter violates its documented domain (e.g. tau outside (0,1))."""


class DegenerateProblemError(QmaveError):
    """A regression problem is unsolvable: too few weighted rows, a design
    column that is zero on all of them, or a rank-deficient design."""


class ConvergenceError(QmaveError):
    """The iterative solver ran out of iterations.

    Carries the best iterate found so far in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class InsufficientLocalDataError(QmaveError):
    """A local fit has too few usable observations inside its kernel
    window.  Callers decide whether to trim the anchor or abort."""


class InsufficientDataError(QmaveError):
    """An estimator cannot run: the dataset (or the set of usable local
    fits) is too small for the requested dimension."""


class DegenerateUpdateError(QmaveError):
    """The global index update produced no usable direction (for example
    every local slope is zero)."""


class DegenerateDirectionError(QmaveError):
    """A direction estimate is undefined: its inputs are zero or overflow."""
