"""Exception types shared across the package."""


class UnresolvedWindingError(ValueError):
    """A phase step along a loop has circle distance >= 1/2.

    The lift increment is ambiguous at this resolution; refine the graph
    level until every consecutive step along the loop is shorter than a
    half turn.
    """

    def __init__(self, edge, distance):
        self.edge = tuple(edge)
        self.distance = float(distance)
        super().__init__(
            f"unresolved winding on edge {self.edge}: circle distance "
            f"{self.distance:.6g} >= 0.5; increase the graph level"
        )


class DegreeMismatchError(ValueError):
    """A field's full-order degree is not the one requested.

    ``found`` is None when the field's degree could not be read.
    """

    def __init__(self, what, requested, found):
        self.requested = requested
        self.found = found
        found = "unresolved" if found is None else found
        super().__init__(
            f"{what} has degree {found}, not the requested {requested}")


class DegreeClosureError(RuntimeError):
    """A loop lift failed to close to an integer within tolerance."""


class ConstraintViolationError(ValueError):
    """A cut-vertex pair disagrees after reduction mod 1."""


class NotAnEquilibriumError(ValueError):
    """A field is not the certified equilibrium that a result needs."""


class EigensolverError(RuntimeError):
    """An eigensolver did not resolve a pinned Hessian's smallest
    eigenvalue: the Lanczos on its cell factor ran out of vectors, or the
    factor shifted to Gershgorin's bound did not certify.

    Raised at every size instead of falling back to a dense solve, which
    would allocate an N x N matrix at large levels.
    """

    def __init__(self, size, cause):
        self.size = int(size)
        super().__init__(
            f"eigensolver did not resolve the {self.size}-vertex pinned "
            f"Hessian's least eigenvalue: {cause}")


class UncertifiedFactorError(RuntimeError):
    """The cell factor of a graph's Laplacian, vertex 0 held, did not
    certify it positive definite.

    A connected graph's Laplacian at its positive conductance always is,
    so this names a broken graph or factor; no solve falls back to
    another route.
    """

    def __init__(self, graph):
        self.graph = graph
        super().__init__(
            f"the cell factor of {graph!r}'s Laplacian did not certify it "
            f"positive definite")


class ConjugateGradientError(RuntimeError):
    """Conjugate gradients did not reach its residual in its step cap.

    No field that has not converged is returned in its place.
    """

    def __init__(self, steps, residual):
        self.steps = int(steps)
        self.residual = float(residual)
        super().__init__(
            f"conjugate gradients left a relative residual of "
            f"{self.residual:.3g} after {self.steps} steps")
