"""Model answer schema: JSON extraction and the hallucination filter."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .config_model import frozen_cached_property
from .errors import ResponseFormatError

_FENCE_RE = re.compile(r"```[a-zA-Z0-9]*\n(.*?)```", re.DOTALL)
_DECODER = json.JSONDecoder()  # stateless, like the one json.loads shares


@dataclass(frozen=True)
class ValidationResponse:
    """One parsed model answer."""

    hasError: bool
    errParameter: tuple[str, ...]
    reason: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "errParameter", tuple(self.errParameter))
        object.__setattr__(self, "reason", tuple(self.reason))

    def canonical_key(self) -> tuple[bool, tuple[str, ...]]:
        """(hasError, sorted unique flagged parameters): what the vote counts."""
        return self._canonical_key

    @frozen_cached_property
    def _canonical_key(self) -> tuple[bool, tuple[str, ...]]:
        return (self.hasError, tuple(sorted(set(self.errParameter))))

    def to_json(self) -> str:
        return json.dumps(
            {
                "hasError": self.hasError,
                "errParameter": list(self.errParameter),
                "reason": list(self.reason),
            }
        )


def _candidate_regions(text: str) -> list[str]:
    fenced = _FENCE_RE.findall(text)
    fenced = [block for block in fenced if "{" in block]
    return fenced if fenced else [text]


def _top_level_objects(region: str) -> list[dict]:
    objects = []
    pos = 0
    while True:
        start = region.find("{", pos)
        if start == -1:
            break
        try:
            obj, end = _DECODER.raw_decode(region, start)
        except json.JSONDecodeError:
            pos = start + 1
            continue
        if isinstance(obj, dict):
            objects.append(obj)
        pos = end
    return objects


def parse_response(text: str) -> ValidationResponse:
    """Extract the one top-level JSON object from a completion and map fields.

    Code fences are stripped first; prose around the object is ignored. No
    object, an ill-typed field, or more than one object (an identical copy
    included) are format errors (the pipeline treats those as retryable).
    A pure function of the text, so the pipeline reads each distinct
    completion of a file once.
    """
    objects: list[dict] = []
    for region in _candidate_regions(text):
        objects.extend(_top_level_objects(region))
    if not objects:
        raise ResponseFormatError("no JSON object found in completion")
    if len(objects) > 1:
        raise ResponseFormatError(f"expected one JSON object, found {len(objects)}")
    doc = objects[0]

    has_error = doc.get("hasError")
    if not isinstance(has_error, bool):
        raise ResponseFormatError(f"hasError must be a boolean, got {has_error!r}")
    err_parameter = _string_array(doc, "errParameter")
    reason = _string_array(doc, "reason")
    return ValidationResponse(has_error, err_parameter, reason)


def _string_array(doc: dict, key: str) -> tuple[str, ...]:
    value = doc.get(key)
    if value is None:
        raise ResponseFormatError(f"missing field {key!r}")
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ResponseFormatError(f"{key} must be an array of strings, got {value!r}")
    return tuple(value)


# Hallucination rules. A response is stored only if all four hold.
RULE_EMPTY_WHEN_VALID = "R1"
RULE_NONEMPTY_WHEN_ERROR = "R2"
RULE_SAME_ARRAY_SIZE = "R3"
RULE_NO_DUPLICATES = "R4"


def validate_response(r: ValidationResponse) -> str | None:
    """None means accept; otherwise the id of the first violated rule.

    A pure function of the response, so one verdict serves every repeat of
    its completion text."""
    if not r.hasError and (r.errParameter or r.reason):
        return RULE_EMPTY_WHEN_VALID
    if r.hasError and (not r.errParameter or not r.reason):
        return RULE_NONEMPTY_WHEN_ERROR
    if r.hasError and len(r.errParameter) != len(r.reason):
        return RULE_SAME_ARRAY_SIZE
    if len(r.errParameter) != len(set(r.errParameter)):
        return RULE_NO_DUPLICATES
    return None


def valid_answer() -> ValidationResponse:
    return ValidationResponse(False, (), ())


def misconfig_answer(parameter: str, reason: str) -> ValidationResponse:
    return ValidationResponse(True, (parameter,), (reason,))
