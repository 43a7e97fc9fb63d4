"""Shared exception types, mapped to CLI exit codes (1, 2 and 3)."""

from __future__ import annotations


class InputError(ValueError):
    """Input from outside the program is malformed or not exact."""


class PreconditionError(ValueError):
    """A stated hypothesis of the requested operation is violated."""


class QuadratureError(RuntimeError):
    """Adaptive integration did not converge; carries the achieved estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate
