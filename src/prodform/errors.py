"""Exception hierarchy shared by the library and the command-line front end.

Each subclass maps to one stable CLI exit code, so library code raises these
directly and the CLI only has to translate types, never messages.
"""
from __future__ import annotations

import reprlib


class ProdformError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ProdformError):
    """Malformed input: bad parameters, unknown labels, duplicate edges (exit 2)."""


class NotStronglyConnectedError(ProdformError):
    """Structural admission failure: the graph is not strongly connected (exit 3).

    ``witness`` names a concrete offending pair: ``witness[1]`` is unreachable
    from ``witness[0]``.
    """

    def __init__(self, witness: tuple[str, str]):
        self.witness = witness
        super().__init__(
            f"not strongly connected: {reprlib.repr(witness[1])} is unreachable "
            f"from {reprlib.repr(witness[0])}"
        )


class ResourceLimitError(ProdformError):
    """A routine's node budget in ``BUDGETS`` was exceeded (exit 4)."""


# The node limit of each routine whose cost grows too fast to run unbounded.
BUDGETS = {"the stationary solve": 2000, "exhaustive cut enumeration": 20, "subset search": 12}


def check_budget(routine: str, nodes: int) -> None:
    """Refuse ``routine`` over ``nodes`` nodes when that is past its entry in ``BUDGETS``."""
    if nodes > (limit := BUDGETS[routine]):
        raise ResourceLimitError(f"{routine} over {nodes} nodes exceeds its budget of {limit}")


class NumericError(ProdformError):
    """A numeric routine produced an untrustworthy result (bad residual, nonpositive value)."""
