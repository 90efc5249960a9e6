import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confval.config_model import (
    ConfigDiff,
    ConfigEntry,
    ConfigFile,
    ConfigFormat,
    EmptyDiffError,
    compress,
    diff_to_snippet,
    load_config_file,
    parse_config,
    render_config,
)
from confval.errors import ConfigParseError
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
        with pytest.raises(ConfigParseError, match="line"):
            parse_config(text, ConfigFormat.XML, "demo", "1.0")

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


class TestDiff:
    def test_changed_entries_only(self):
        diff = ConfigDiff(None, (ConfigEntry("a", "1"),), ())
        snippet = diff_to_snippet(diff, project="demo", version="1.0")
        assert snippet.entries == (ConfigEntry("a", "1"),)

    def test_empty_diff_is_error(self):
        with pytest.raises(EmptyDiffError):
            diff_to_snippet(ConfigDiff(None, (), ()))

    def test_description_inherited_from_base(self):
        base = make_file([ConfigEntry("a", "0", "documented")])
        diff = ConfigDiff(base, (ConfigEntry("a", "1"),), ())
        snippet = diff_to_snippet(diff)
        assert snippet.entries[0].description == "documented"
        assert snippet.project == "demo"

    def test_overlapping_changed_removed_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ConfigDiff(None, (ConfigEntry("a", "1"),), ("a",))


def test_load_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "broken.xml"
    path.write_bytes(b"<configuration>\xff</configuration>")
    with pytest.raises(ConfigParseError, match="UTF-8"):
        load_config_file(path, "demo", "1.0")


def test_load_writes_and_reads_back(tmp_path):
    from confval.config_model import write_config_file

    file = make_file([ConfigEntry("p", "8020", "a port")])
    path = tmp_path / "site.xml"
    write_config_file(file, path)
    again = load_config_file(path, "demo", "1.0")
    assert again.entries == file.entries


# --- property tests ---

_name_alphabet = "abcdefghijklmnopqrstuvwxyz0123456789._-=\\"
_names = st.text(alphabet=_name_alphabet, min_size=1, max_size=20)
_text_char = st.characters(min_codepoint=0x20, max_codepoint=0x2FA1D, blacklist_categories=("Cs",))
_values = st.text(alphabet=st.one_of(_text_char, st.sampled_from("\n\r\t")), max_size=40)
_descriptions = st.one_of(st.none(), _values.filter(lambda s: s != ""))


@st.composite
def config_files(draw, fmt=None):
    names = draw(st.lists(_names, min_size=0, max_size=8, unique=True))
    entries = tuple(
        ConfigEntry(name, draw(_values), draw(_descriptions)) for name in names
    )
    file_format = fmt or draw(st.sampled_from(list(ConfigFormat)))
    return ConfigFile("demo", "1.0", file_format, entries)


@settings(max_examples=150)
@given(config_files())
def test_round_trip_preserves_everything(file):
    for fmt in ConfigFormat:
        text = render_config(file, fmt)
        again = parse_config(text, fmt, file.project, file.version)
        assert again.project == file.project
        assert again.version == file.version
        assert again.entries == file.entries


@settings(max_examples=100)
@given(config_files(fmt=ConfigFormat.XML).filter(lambda f: len(f.entries) >= 1))
def test_compression_strictly_shrinks_token_estimate(file):
    before = estimate_tokens(render_config(file, ConfigFormat.XML))
    after = estimate_tokens(render_config(compress(file), ConfigFormat.INI))
    assert after < before

