"""Exception hierarchy.

Everything raised on bad user input or violated contracts derives from
MultiresError so callers (and the CLI) can distinguish input problems from
genuine bugs.
"""


class MultiresError(Exception):
    """Base class for all library errors."""


class ShapeError(MultiresError):
    """Array shapes are inconsistent with the operation's contract."""


class ConfigError(MultiresError):
    """Invalid configuration value (e.g. even conv window, bad Adam betas)."""


class EmptyInputError(MultiresError):
    """An operation that needs at least one row received none."""


class TextError(MultiresError):
    """An error about one item of a batch of texts or vectors.

    ``position`` is the item's index in the batch and ``reason`` the message
    without the item's name; ``at`` restates the error for an outer batch.
    """

    def __init__(self, reason: str, position: int = 0, name: str | None = None):
        self.reason = reason
        self.position = position
        super().__init__(reason if name is None else f"{name}: {reason}")

    def at(self, position: int, name: str) -> "TextError":
        return type(self)(self.reason, position, name)


class DegenerateVectorError(TextError):
    """Vector norm below the normalization floor."""


class NumericalError(MultiresError):
    """Non-finite value encountered where finite math is required."""


class ContractError(MultiresError):
    """A checked-mode precondition failed (e.g. non-unit vector)."""


class EmptyCorpusError(MultiresError):
    """Document-frequency statistics need a nonempty corpus."""


class ParseError(MultiresError):
    """Malformed input file. Carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class IntegrityError(MultiresError):
    """Cross-reference to a missing record (dangling doc id, missing gold)."""


class SpecError(MultiresError):
    """Invalid mixture/ensemble specification."""


class MissingModelError(MultiresError):
    """A composition references an embedding model with no loaded store."""


class EmptyTextError(TextError):
    """No token of the text resolves in any embedding store."""


class MiningError(MultiresError):
    """Triplet mining could not produce a valid triplet for an anchor."""


class DatasetError(MultiresError):
    """Training data too small (fewer than two distinct documents)."""


class DuplicateIdError(MultiresError):
    """Duplicate document id while building an index."""


class EmptyIndexError(MultiresError):
    """Index construction from an empty document list."""


class FormatError(MultiresError):
    """Binary file violates its format: bad magic, truncation, bad checksum."""
