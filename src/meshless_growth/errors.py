"""Exception types shared across the solver."""

from __future__ import annotations


class CloudError(ValueError):
    """Malformed node cloud (bad file, duplicate nodes, off-domain positions)."""


class InsufficientNodesError(ValueError):
    """A star was requested with more neighbors than the cloud can supply."""


class DegenerateStarError(ArithmeticError):
    """Moment matrix of a star is singular or numerically rank deficient."""

    def __init__(self, node: int, detail: str = ""):
        self.node = node
        msg = f"degenerate star at node {node}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DegenerateBoundaryStarError(DegenerateStarError):
    """Boundary star the zero-flux closure cannot use: its normal-derivative
    center coefficient vanishes, or it reads a boundary node whose own star
    reads the boundary."""


class DivergenceError(RuntimeError):
    """The explicit iteration produced a non-finite or absurdly large value."""

    def __init__(self, node: int | None, time: float, step: int | None = None):
        self.node = node
        self.time = time
        self.step = step
        where = f"t={time:.6g}" if node is None else f"node {node} at t={time:.6g}"
        if step is not None:
            where += f" (step {step})"
        super().__init__(f"solution diverged at {where}")


class NoAdmissibleTimeStepError(RuntimeError):
    """No star yields a positive explicit step bound."""


class ScenarioError(ValueError):
    """Scenario file rejected: unknown key, missing value, or bad format."""
