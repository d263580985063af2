"""Exception types, and the gates of typed input: a failed read or write of a
file, or an integer that is not an optional sign and ASCII digits, is a
PreconditionError."""

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


def read_lines(path: str, what: str) -> list[tuple[int, str]]:
    """Numbered lines of a text file, ``#`` comments and blank lines dropped."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {what} file {path}: {exc}") from None
    lines = enumerate((raw.split("#", 1)[0].strip() for raw in text.splitlines()), 1)
    return [(lineno, line) for lineno, line in lines if line]


def write_lines(path: str, what: str, lines: list[str]) -> None:
    """Write ``lines`` to a text file, one per line."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise PreconditionError(f"cannot write {what} file {path}: {exc}") from None


def read_int(text: str, message: str) -> int:
    """The integer that ``text`` spells as an optional sign and ASCII digits.

    Anything else raises ``PreconditionError(message)``: ``1_000``, other
    Unicode digits, or more digits than ``int()`` converts.
    """
    if not (text.isascii()
            and (text.isdigit() or (text[:1] in ("+", "-") and text[1:].isdigit()))):
        raise PreconditionError(message)
    try:
        return int(text)
    except ValueError:  # past the interpreter's limit on digits
        raise PreconditionError(message) from None
