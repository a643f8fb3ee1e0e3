"""Exception taxonomy shared across the package."""

from __future__ import annotations


class GeoipmError(Exception):
    """Base class for all errors raised by this package.

    An error raised while a tracker or the centering oracle steps
    (``solver``) carries ``trace``, the partial ``SolverTrace``, and
    ``iterate``, the last ``NewtonData`` built, at the mu the run had
    reached; both are None otherwise.
    """

    def __init__(self, *args, trace=None, iterate=None):
        super().__init__(*args)
        self.trace = trace
        self.iterate = iterate


class ConeMismatchError(GeoipmError):
    """Two elements (or an element and an operator) live on different cones."""


class DomainError(GeoipmError):
    """Argument outside the mathematical domain of an operation.

    Carries the offending eigenvalue when one exists (e.g. a non-positive
    eigenvalue passed to log/inverse/sqrt, or a non-interior point).
    """

    def __init__(self, message: str, eigenvalue: float | None = None):
        if eigenvalue is not None:
            message = f"{message} (offending eigenvalue {eigenvalue:.6g})"
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NumericalFailureError(GeoipmError):
    """A numerical kernel (eigensolver, factorization) failed to converge."""


class IllConditionedBasisError(GeoipmError):
    """Rank loss in the spanning set of a problem's subspace (its rank rule,
    at load or, for an operator form, at first use), or in a stepped frame's
    basis (a zero Cholesky pivot).  A fresh frame tests no rank: the
    interior test of its point bounds the conditioning of its span."""


class DegenerateConstraintsError(GeoipmError):
    """An operator form's dual affine set is empty (By = g has no solution);
    its primal set cannot be once its spanning set passes the rank test."""


class ParameterError(GeoipmError):
    """Algorithm parameters outside their admissible range."""


class IterationLimitError(GeoipmError):
    """An iteration cap was exceeded, by a tracker or by the centering
    oracle (whose message starts ``centering oracle failed``); ``iterate``
    is the ``NewtonData`` at the (w, mu) the run stopped on."""


class ProblemFormatError(GeoipmError):
    """A problem file or problem description failed to parse or validate."""
