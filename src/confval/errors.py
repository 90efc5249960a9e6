"""Shared exception hierarchy, and the one way every JSON document confval
loads is read and checked: for each of them, a file that is not UTF-8 JSON,
an unknown key or a value of the wrong JSON type is a SpecError naming the
path or the key, which the command line turns into exit code 2."""

import json
from pathlib import Path


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
    """A JSON document (framework config, spec document, corpus manifest or
    report) is unreadable, not UTF-8 JSON, mistyped, or holds an unknown key
    or an unusable value."""


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


def read_document(path: str | Path, what: str, supported: int) -> dict:
    """The JSON object stored at path; SpecError naming the path for a file that is
    not strict UTF-8 JSON holding an object, SchemaVersionError for another schema."""
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8, bad JSON, unencodable path
        raise SpecError(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{what} {path} must be a JSON object")
    check_schema_version(doc, supported, f"{what} {path}")
    return doc


_JSON_NAMES = {int: "integer", float: "number", str: "string", dict: "object", type(None): "null"}


def _json_name(kind) -> str:
    if isinstance(kind, list):
        return "array of " + " or ".join(_JSON_NAMES[k] + "s" for k in kind)
    return _JSON_NAMES[kind]


def _matches(value: object, kind) -> bool:
    # a bool is never a number here, although Python counts it as an int
    if isinstance(kind, list):
        return isinstance(value, list) and all(any(_matches(v, k) for k in kind) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def checked(doc: object, types: dict[str, tuple], what: str) -> dict:
    """doc itself, once it is a JSON object whose every key is in types and holds
    a kind listed there: a type, or a list of types for an array whose every
    item has one of them. Which keys must be present is the caller's concern.
    A value whose exact type is listed passes at once; the rest take _matches,
    among them arrays and bools (Python counts a bool as an int, JSON does not)."""
    if not isinstance(doc, dict):
        raise SpecError(f"{what} must be a JSON object")
    for key, value in doc.items():
        kinds = types.get(key)
        if kinds is None:
            raise SpecError(f"{what}: unknown key {key!r}")
        if type(value) not in kinds and not any(_matches(value, kind) for kind in kinds):
            expected = " or ".join(_json_name(kind) for kind in kinds)
            raise SpecError(f"{what}: key {key!r} must be a JSON {expected}, got {value!r}")
    return doc


def complete(doc: object, types: dict[str, tuple], what: str, required: tuple | None = None) -> dict:
    """doc once checked() accepts it and it holds every key of required, by
    default every key of types."""
    checked(doc, types, what)
    missing = [key for key in (types if required is None else required) if key not in doc]
    if missing:
        raise SpecError(f"{what}: missing key {missing[0]!r}")
    return doc


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
