"""errors.checked against a reference copy of its plain rule: every value goes
through the per-kind match, with no shortcut for an exact type."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from confval.errors import SpecError, checked

NAMES = {int: "integer", float: "number", str: "string", dict: "object", type(None): "null"}


def reference_name(kind) -> str:
    if isinstance(kind, list):
        return "array of " + " or ".join(NAMES[k] + "s" for k in kind)
    return NAMES[kind]


def reference_matches(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(any(reference_matches(v, k) for k in kind) for v in value)
    return isinstance(value, kind) and not isinstance(value, bool)


def reference_checked(doc, types, what):
    if not isinstance(doc, dict):
        raise SpecError(f"{what} must be a JSON object")
    for key, value in doc.items():
        if key not in types:
            raise SpecError(f"{what}: unknown key {key!r}")
        if not any(reference_matches(value, kind) for kind in types[key]):
            expected = " or ".join(reference_name(kind) for kind in types[key])
            raise SpecError(f"{what}: key {key!r} must be a JSON {expected}, got {value!r}")
    return doc


class Name(str):
    """A str subclass: no exact type match, but a JSON string all the same."""


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=4),
    st.text(max_size=4).map(Name),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=8,
)
SCALAR_KINDS = st.sampled_from(sorted(NAMES, key=NAMES.get))
KINDS = st.lists(
    st.one_of(SCALAR_KINDS, st.lists(SCALAR_KINDS, min_size=1, max_size=2, unique=True)),
    min_size=1,
    max_size=3,
)
KEYS = st.sampled_from(["a", "b", "c", "d"])


def outcome(check, doc, types):
    try:
        return "accepted", check(doc, types, "doc") is doc
    except SpecError as exc:
        return "refused", str(exc)


@settings(max_examples=500)
@given(
    st.dictionaries(KEYS, KINDS.map(tuple), max_size=3),
    st.one_of(st.dictionaries(KEYS, VALUES, max_size=4), VALUES),
)
@example({"a": (int,)}, {"a": True})  # a bool is no JSON number
@example({"a": (float, int)}, {"a": False})
@example({"a": (float,)}, {"a": 1})  # an int where only a float is expected
@example({"a": ([float, int],)}, {"a": [1, 2.5, True]})
@example({"a": ([int],)}, {"a": [[1]]})  # a nested array
@example({"a": (str,)}, {"a": Name("x")})
@example({"a": (str,)}, {"b": 1})
def test_checked_matches_reference(types, doc):
    assert outcome(checked, doc, types) == outcome(reference_checked, doc, types)
