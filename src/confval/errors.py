"""Shared exception hierarchy, and the schema_version check every loader makes."""


class ConfvalError(Exception):
    """Base class for all errors raised by this package."""


class ConfigParseError(ConfvalError):
    """A configuration document could not be parsed."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)


class ConfigRenderError(ConfvalError):
    """A configuration cannot be written in the requested format."""


class SpecError(ConfvalError):
    """A parameter specification document is invalid."""


class SchemaVersionError(ConfvalError):
    """A document declares a schema_version this package does not read."""


def check_schema_version(doc: object, supported: int, what: str) -> None:
    """Raise SchemaVersionError when doc is a JSON object whose schema_version
    is present and not the supported one; an absent one reads as supported."""
    if isinstance(doc, dict) and "schema_version" in doc:
        version = doc["schema_version"]
        if type(version) is not int or version != supported:
            raise SchemaVersionError(
                f"{what} has schema_version {version!r}; only {supported} is supported"
            )


class UnknownParameterError(ConfvalError):
    """A configuration entry has no spec and no version record."""


class DependencyEvalError(ConfvalError):
    """A dependency constraint could not be evaluated (bad operand types)."""


class GenerationError(ConfvalError):
    """A valid or invalid value could not be generated for a spec."""


class InsufficientShotsError(ConfvalError):
    """The shot pools cannot satisfy the requested combination."""


class TokenBudgetExceededError(ConfvalError):
    """The target file plus question exceed the token limit even compressed."""


class ResponseFormatError(ConfvalError):
    """A backend completion could not be parsed into a response record."""


class ValidationFailedError(ConfvalError):
    """No query slot produced an accepted response."""


class BackendError(ConfvalError):
    """A backend query failed.

    category is one of: transport, http, rate_limit, auth, timeout, protocol.
    """

    def __init__(self, message: str, category: str, retryable: bool):
        super().__init__(message)
        self.category = category
        self.retryable = retryable
