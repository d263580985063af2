"""Exception types shared across the package."""

from __future__ import annotations


class PreconditionError(ValueError):
    """An input violates a documented precondition (CLI exit code 2)."""


class MovieValidationError(PreconditionError):
    """A chart movie contains an illegal step (CLI exit code 2).

    Carries the index of the first offending step and a human-readable reason.
    """

    def __init__(self, step_index: int, reason: str):
        self.step_index = step_index
        self.reason = reason
        super().__init__(f"illegal step {step_index}: {reason}")


class MovieGenerationError(PreconditionError):
    """The movie generator does not cover this pair (CLI exit code 2).

    The message is a diagnostic (which letter got stuck and why), not a proof
    that no movie exists.
    """


class SearchBudgetExceeded(RuntimeError):
    """A bounded search hit its budget before finding or refuting a witness.

    Distinct from "no witness found within the cap": this means the search was
    cut off, so absence of a result is inconclusive.
    """
