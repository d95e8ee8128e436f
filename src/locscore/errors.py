"""Exception types shared across the engine."""


class EngineError(ValueError):
    """Base class for every error the engine raises on purpose; each is a ``ValueError``."""


class FieldError(EngineError):
    """A JSON field is missing or its value is not of the field's kind."""


class InvalidBoxError(EngineError):
    """A box violates its structural or coordinate-space invariants."""


class SpaceMismatchError(EngineError):
    """Two operands do not share a coordinate space."""


class GroupTooSmallError(EngineError):
    """A completion group is too small for group-relative statistics."""


class LengthMismatchError(EngineError):
    """Parallel sequences disagree in length."""


class NonFiniteInputError(EngineError):
    """An input that must be finite is NaN or infinite."""


class InvalidConfigError(EngineError):
    """A configuration value violates its invariants."""


class UnknownStyleError(EngineError):
    """A prompt style / task combination has no template."""


class MalformedRequestError(EngineError):
    """A scoring request is structurally invalid."""
