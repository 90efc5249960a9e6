import hashlib
import pickle
from dataclasses import replace
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confval.config_model import (
    ConfigEntry,
    ConfigFile,
    ConfigFormat,
    _INI_LINE,
    _unescape,
    _xml_text,
    compress,
    load_config_file,
    parse_config,
    render_config,
)
from confval.errors import ConfigParseError, ConfigRenderError
from confval.prompting import estimate_tokens

XML_ONE_PROPERTY = """<?xml version="1.0" encoding="utf-8"?>
<configuration>
  <property>
    <name>p</name>
    <value>8020</value>
  </property>
</configuration>
"""


def make_file(entries, fmt=ConfigFormat.XML, project="demo", version="1.0"):
    return ConfigFile(project, version, fmt, tuple(entries))


class TestParse:
    def test_single_property(self):
        file = parse_config(XML_ONE_PROPERTY, ConfigFormat.XML, "demo", "1.0")
        assert file.entries == (ConfigEntry("p", "8020"),)
        assert file.project == "demo"

    def test_empty_document(self):
        text = '<?xml version="1.0"?><configuration></configuration>'
        file = parse_config(text, ConfigFormat.XML, "demo", "1.0")
        assert file.entries == ()

    def test_duplicate_names_rejected(self):
        text = (
            "<configuration>"
            "<property><name>p</name><value>1</value></property>"
            "<property><name>p</name><value>2</value></property>"
            "</configuration>"
        )
        with pytest.raises(ConfigParseError, match="duplicate parameter name: p"):
            parse_config(text, ConfigFormat.XML, "demo", "1.0")

    def test_empty_name_rejected(self):
        text = "<configuration><property><name></name><value>1</value></property></configuration>"
        with pytest.raises(ConfigParseError, match="empty parameter name"):
            parse_config(text, ConfigFormat.XML, "demo", "1.0")

    def test_unbalanced_markup_names_location(self):
        text = "<configuration><property><name>p</name>"
        with pytest.raises(ConfigParseError, match="line") as caught:
            parse_config(text, ConfigFormat.XML, "demo", "1.0")
        assert str(caught.value) == "malformed XML: no element found (at line 1, column 39)"

    def test_description_captured(self):
        text = (
            "<configuration><property><name>p</name><value>1</value>"
            "<description>doc text</description></property></configuration>"
        )
        file = parse_config(text, ConfigFormat.XML, "demo", "1.0")
        assert file.entries[0].description == "doc text"

    def test_ini_duplicate_rejected_with_line(self):
        with pytest.raises(ConfigParseError, match="line 2"):
            parse_config("p=1\np=2\n", ConfigFormat.INI, "demo", "1.0")

    def test_ini_missing_separator(self):
        with pytest.raises(ConfigParseError, match="name=value"):
            parse_config("just a line\n", ConfigFormat.INI, "demo", "1.0")

    @pytest.mark.parametrize(
        "fmt, text, message, where",
        [
            (ConfigFormat.INI, "p=1\n=2\n", "empty parameter name", "line 2"),
            (ConfigFormat.INI, "p=1\n\n# d\na\\nb=2\n", r"line break: 'a\\nb'", "line 4"),
            (ConfigFormat.INI, "p=1\nq=2\np=3\n", "duplicate parameter name: p", "line 3"),
            (ConfigFormat.XML, "<property><name/></property>", "empty parameter name", "property #2"),
            (
                ConfigFormat.XML,
                "<property><name>a&#10;b</name><value>1</value></property>",
                r"line break: 'a\\nb'",
                "property #2",
            ),
            (ConfigFormat.XML, "<property><name>p</name></property>", "duplicate parameter name: p", "property #2"),
        ],
    )
    def test_name_fault_names_its_location(self, fmt, text, message, where):
        if fmt is ConfigFormat.XML:
            text = f"<configuration><property><name>p</name></property>{text}</configuration>"
        with pytest.raises(ConfigParseError, match=message) as caught:
            parse_config(text, fmt, "demo", "1.0")
        assert caught.value.location == where
        assert str(caught.value).endswith(f"(at {where})")


class TestRender:
    def test_ini_line_shape(self):
        file = make_file([ConfigEntry("p", "8020")], ConfigFormat.INI)
        assert "p=8020" in render_config(file, ConfigFormat.INI).splitlines()

    def test_zero_entries_empty_ini(self):
        file = make_file([], ConfigFormat.INI)
        assert render_config(file, ConfigFormat.INI) == ""

    def test_ini_descriptions_round(self):
        file = make_file(
            [ConfigEntry("p", "1", "first line\nsecond line")], ConfigFormat.INI
        )
        text = render_config(file, ConfigFormat.INI)
        assert "# first line\n# second line\np=1" in text
        again = parse_config(text, ConfigFormat.INI, "demo", "1.0")
        assert again.entries == file.entries


class TestCompress:
    def test_xml_to_ini_keeps_entries(self):
        entries = [ConfigEntry(f"p{i}", str(i)) for i in range(3)]
        file = make_file(entries, ConfigFormat.XML)
        compact = compress(file)
        assert compact.format is ConfigFormat.INI
        assert compact.entries == file.entries

    def test_idempotent(self):
        file = make_file([ConfigEntry("p", "1")], ConfigFormat.INI)
        assert compress(file) is file

    def test_content_key_stable_across_compression(self):
        file = make_file([ConfigEntry("p", "1", "d")], ConfigFormat.XML)
        assert compress(file).content_key() == file.content_key()


class TestContentKey:
    def test_cached_key_takes_no_part_in_identity(self):
        entries = [ConfigEntry("p", "1", "d"), ConfigEntry("q", "2")]
        fresh, keyed = make_file(entries), make_file(entries)
        key = keyed.content_key()
        assert keyed.content_key() is key
        assert keyed == fresh
        assert hash(keyed) == hash(fresh)
        assert repr(keyed) == repr(fresh)
        for original in (keyed, fresh):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == fresh
            assert copy.content_key() == key

    def test_replace_computes_its_own_key(self):
        file = make_file([ConfigEntry("p", "1")])
        file.content_key()
        changed = replace(file, version="2.0")
        fresh = make_file([ConfigEntry("p", "1")], version="2.0")
        assert changed.content_key() == fresh.content_key()
        assert changed.content_key() != file.content_key()


def per_part_content_key(file):
    """The content key hashed part by part: one sha256 update per part."""
    h = hashlib.sha256()
    h.update(file.project.encode("utf-8") + b"\x00")
    h.update(file.version.encode("utf-8") + b"\x00")
    for e in file.entries:
        for part in (e.name, e.value, e.description or ""):
            h.update(part.encode("utf-8") + b"\x00")
        h.update(b"\x01")
    return h.hexdigest()


def test_content_key_matches_the_per_part_hash_on_the_corpus(six_datasets):
    files = [lf.file for _, split in six_datasets.values() for lf in split.shot_pool + split.eval_set]
    assert len(files) == 696
    for file in files:
        assert file.content_key() == per_part_content_key(file)


def test_load_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "broken.xml"
    path.write_bytes(b"<configuration>\xff</configuration>")
    with pytest.raises(ConfigParseError, match="UTF-8"):
        load_config_file(path, "demo", "1.0")


def test_load_writes_and_reads_back(tmp_path):
    file = make_file([ConfigEntry("p", "8020", "a port")])
    path = tmp_path / "site.xml"
    path.write_text(render_config(file, file.format), encoding="utf-8")
    again = load_config_file(path, "demo", "1.0")
    assert again.entries == file.entries


# --- property tests ---

_name_alphabet = "abcdefghijklmnopqrstuvwxyz0123456789._-=\\#"
_xml_chars = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x2FA1D, exclude_categories=("Cs",)).filter(
        lambda c: c not in "\ufffe\uffff"
    ),
    st.sampled_from("\n\r\t"),
)
# every code point, lone surrogates too; those XML 1.0 cannot hold drawn often
_any_chars = st.one_of(st.characters(exclude_categories=()), st.sampled_from("\n\r\t\x0b\x00\ud800\uffff"))


def _xml_holds(text: str) -> bool:
    """XML 1.0's Char production, written out independently of the renderer."""
    return all(
        c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd" or c >= "\U00010000"
        for c in text
    )


@st.composite
def config_files(draw, fmt=None, chars=_xml_chars):
    names_alphabet = st.one_of(st.sampled_from(_name_alphabet), chars.filter(lambda c: c not in "\n\r"))
    names = draw(st.lists(st.text(alphabet=names_alphabet, min_size=1, max_size=20), max_size=8, unique=True))
    values = st.text(alphabet=chars, max_size=40)
    entries = tuple(
        ConfigEntry(name, draw(values), draw(st.one_of(st.none(), values.filter(bool))))
        for name in names
    )
    file_format = fmt or draw(st.sampled_from(list(ConfigFormat)))
    return ConfigFile("demo", "1.0", file_format, entries)


def _assert_round_trips(file, fmt):
    again = parse_config(render_config(file, fmt), fmt, file.project, file.version)
    assert again.project == file.project
    assert again.version == file.version
    assert again.entries == file.entries


@settings(max_examples=150)
@given(config_files())
def test_round_trip_preserves_everything(file):
    for fmt in ConfigFormat:
        _assert_round_trips(file, fmt)


@settings(max_examples=150)
@given(config_files(chars=_any_chars))
def test_any_text_round_trips_or_xml_refuses_it(file):
    """INI round-trips every file; rendering XML raises ConfigRenderError
    exactly when some text holds a code point XML 1.0 cannot, and otherwise
    round-trips."""
    _assert_round_trips(file, ConfigFormat.INI)
    texts = [t for e in file.entries for t in (e.name, e.value, e.description or "")]
    if all(map(_xml_holds, texts)):
        _assert_round_trips(file, ConfigFormat.XML)
    else:
        with pytest.raises(ConfigRenderError):
            render_config(file, ConfigFormat.XML)


@settings(max_examples=300)
@given(st.text(alphabet=_xml_chars, max_size=60))
def test_xml_escape_matches_saxutils(text):
    """The local escape writes the bytes xml.sax.saxutils.escape wrote."""
    assert _xml_text(text) == escape(text, {"\r": "&#13;"})


def _reference_unescape(text: str) -> str:
    """The INI unescape as a character loop, before text without a backslash
    was returned as it is."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n", "r": "\r"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


@settings(max_examples=300)
@given(st.text(alphabet=st.one_of(st.sampled_from("\\nr=#"), _any_chars), max_size=40))
def test_unescape_matches_the_character_loop(text):
    assert _unescape(text) == _reference_unescape(text)


def _reference_split(line: str) -> tuple[str, str] | None:
    """The INI line split as a character loop: the first '=' that no
    backslash escapes ends the name."""
    depth_escaped = False
    for i, ch in enumerate(line):
        if depth_escaped:
            depth_escaped = False
            continue
        if ch == "\\":
            depth_escaped = True
        elif ch == "=":
            return line[:i], line[i + 1 :]
    return None


@settings(max_examples=500)
@given(st.text(alphabet=st.one_of(st.sampled_from("\\\\\\===##\n\r"), _any_chars), max_size=40))
def test_ini_line_pattern_matches_the_character_loop(line):
    split = _INI_LINE.match(line)
    assert (split.groups() if split else None) == _reference_split(line)


@settings(max_examples=100)
@given(config_files(fmt=ConfigFormat.XML).filter(lambda f: len(f.entries) >= 1))
def test_compression_strictly_shrinks_token_estimate(file):
    before = estimate_tokens(render_config(file, ConfigFormat.XML))
    after = estimate_tokens(render_config(compress(file), ConfigFormat.INI))
    assert after < before


# the key's own separators, NUL and 0x01, inside the parts it joins
_key_chars = st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from("\x00\x01é漢\U0001f600"))


@settings(max_examples=200)
@given(config_files(chars=_key_chars), st.text(_key_chars, min_size=1), st.text(_key_chars, min_size=1))
def test_content_key_matches_the_per_part_hash(file, project, version):
    file = replace(file, project=project, version=version)
    assert file.content_key() == per_part_content_key(file)
