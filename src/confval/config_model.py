"""Configuration file model: parse, render and compress.

Two on-disk dialects are supported:

* XML, Hadoop style: ``<configuration>`` holding ``<property>`` blocks with
  ``<name>``, ``<value>`` and optional ``<description>`` children.
* INI, the compact form: one ``name=value`` per line, with ``# `` comment
  lines immediately above an entry carrying its description.

The entry rules are the same in both dialects and live in one place each:
ConfigEntry refuses an empty name or one holding a line break, ConfigFile
refuses a repeated name. The dialect readers yield (location, name, value,
description) for each entry; parse_config builds the entries and names the
location of a fault.

All types are immutable values; operations are pure.
"""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path

from .errors import ConfigParseError, ConfigRenderError


class frozen_cached_property(cached_property):
    """cached_property for frozen dataclasses, computed once per instance.

    The value is stored with object.__setattr__, never through __dict__:
    reading an instance's __dict__ gives it a real dict, which makes every
    later attribute read on that instance about three times slower. The
    value is not a dataclass field, so it takes no part in ==, hash or repr.
    """

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.func(instance)
        object.__setattr__(instance, self.attrname, value)
        return value


class ConfigFormat(Enum):
    XML = "xml"
    INI = "ini"


@dataclass(frozen=True)
class ConfigEntry:
    """One parameter assignment, optionally with free-text documentation."""

    name: str
    value: str
    description: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("empty parameter name")
        if "\n" in self.name or "\r" in self.name:
            raise ValueError(f"parameter name contains a line break: {self.name!r}")
        if self.description == "":
            object.__setattr__(self, "description", None)


@dataclass(frozen=True)
class ConfigFile:
    """An ordered set of entries belonging to one project version."""

    project: str
    version: str
    format: ConfigFormat
    entries: tuple[ConfigEntry, ...]

    def __post_init__(self):
        if not self.project:
            raise ValueError("project must be non-empty")
        if not self.version:
            raise ValueError("version must be non-empty")
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for entry in self.entries:
            if entry.name in seen:
                raise ValueError(f"duplicate parameter name: {entry.name}")
            seen.add(entry.name)

    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> ConfigEntry | None:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None

    def content_key(self) -> str:
        """Stable fingerprint of (project, version, entries), format-agnostic.

        Compression changes only the format, so an XML file and its INI
        rendering share one key. Computed once per instance: the file and its
        entries are frozen, so the stored key cannot go stale.
        """
        return self._content_key

    @frozen_cached_property
    def _content_key(self) -> str:
        # each part ends in NUL and each entry in 0x01; one encode, one update
        entries = "".join(f"{e.name}\0{e.value}\0{e.description or ''}\0\x01" for e in self.entries)
        return hashlib.sha256(f"{self.project}\0{self.version}\0{entries}".encode("utf-8")).hexdigest()


def parse_config(text: str, format: ConfigFormat, project: str, version: str) -> ConfigFile:
    """Parse a document in the given format, preserving entry order.

    Raises ConfigParseError for unbalanced markup, duplicate or empty
    parameter names, naming the offending location.
    """
    read = _read_xml if format is ConfigFormat.XML else _read_ini
    entries: dict[str, ConfigEntry] = {}
    for where, name, value, description in read(text):
        if name in entries:
            raise ConfigParseError(f"duplicate parameter name: {name}", where)
        try:
            entries[name] = ConfigEntry(name, value, description)
        except ValueError as exc:
            raise ConfigParseError(str(exc), where) from exc
    try:
        return ConfigFile(project, version, format, tuple(entries.values()))
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc


def render_config(file: ConfigFile, format: ConfigFormat) -> str:
    """Render to text such that parse_config() round-trips the entries."""
    if format is ConfigFormat.XML:
        return _render_xml(file)
    return _render_ini(file)


def compress(file: ConfigFile) -> ConfigFile:
    """Return the same entries in the compact INI format."""
    if file.format is ConfigFormat.INI:
        return file
    return replace(file, format=ConfigFormat.INI)


def load_config_file(
    path: str | Path,
    project: str,
    version: str,
    format: ConfigFormat | None = None,
) -> ConfigFile:
    """Read a .xml or .ini file from disk; format inferred from the suffix."""
    if format is None:
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix not in (".xml", ".ini"):
            raise ConfigParseError(f"cannot infer format from suffix {suffix!r}", str(path))
        format = ConfigFormat(suffix[1:])
    try:
        with open(path, "rb", buffering=0) as f:
            text = f.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"not valid UTF-8: {exc}", str(path)) from exc
    return parse_config(text, format, project, version)


# --- XML dialect ---


def _read_xml(text: str) -> Iterator[tuple[str, str, str, str | None]]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        message = exc.msg.rsplit(": line ", 1)[0]  # expat appends the position too
        raise ConfigParseError(f"malformed XML: {message}", f"line {line}, column {col}") from exc
    if root.tag != "configuration":
        raise ConfigParseError(f"expected <configuration> root, got <{root.tag}>")
    for index, prop in enumerate(root, start=1):
        where = f"property #{index}"
        if prop.tag != "property":
            raise ConfigParseError(f"unexpected element <{prop.tag}>", where)
        name = _leaf_text(prop, "name", where)
        if name is None:
            raise ConfigParseError("missing <name>", where)
        value = _leaf_text(prop, "value", where)
        description = _leaf_text(prop, "description", where)
        yield where, name, value if value is not None else "", description


def _leaf_text(prop: ET.Element, tag: str, where: str) -> str | None:
    elem = prop.find(tag)
    if elem is None:
        return None
    if len(elem):
        raise ConfigParseError(f"<{tag}> must not contain child elements", where)
    return elem.text or ""


# Code points outside XML 1.0's Char production, which not even a character
# reference can carry. None of them is printable, so a printable text (nearly
# every one) skips the search.
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_text(text: str) -> str:
    bad = not text.isprintable() and _NOT_XML_CHAR.search(text)
    if bad:
        raise ConfigRenderError(f"XML 1.0 cannot hold the code point U+{ord(bad.group()):04X}")
    # XML parsers normalize a raw CR to LF; the character reference survives.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace("\r", "&#13;")


def _render_xml(file: ConfigFile) -> str:
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<configuration>"]
    for entry in file.entries:
        lines.append("  <property>")
        lines.append(f"    <name>{_xml_text(entry.name)}</name>")
        lines.append(f"    <value>{_xml_text(entry.value)}</value>")
        if entry.description is not None:
            lines.append(f"    <description>{_xml_text(entry.description)}</description>")
        lines.append("  </property>")
    lines.append("</configuration>")
    return "\n".join(lines) + "\n"


# --- INI dialect ---
# Escapes keep the one-line-per-entry shape reversible: backslash, '=' and a
# leading '#' (which would read as a comment) in names, backslash and newline
# in values. An escape is a backslash and the character after it, which it
# stands for; backslash-n and backslash-r stand for LF and CR. A backslash
# ending the text stands for itself, and the first unescaped '=' ends a name.


def _escape_ini_name(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace("=", "\\=")
    return "\\" + escaped if escaped.startswith("#") else escaped


def _escape_ini_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")


_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPED_CHAR = {"n": "\n", "r": "\r"}
# Unrolled, so no character can be taken by two branches and a line is
# scanned without backtracking: runs of plain characters between escapes.
_INI_LINE = re.compile(r"([^\\=]*(?:\\.[^\\=]*)*)=(.*)", re.DOTALL)


def _unescape(text: str) -> str:
    if "\\" not in text:
        return text
    return _ESCAPE.sub(lambda m: _ESCAPED_CHAR.get(m[1], m[1]), text)


def _read_ini(text: str) -> Iterator[tuple[str, str, str, str | None]]:
    pending_desc: list[str] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.startswith("#"):
            pending_desc.append(line[2:] if line.startswith("# ") else line[1:])
            continue
        if not line.strip():
            pending_desc = []
            continue
        split = _INI_LINE.match(line)
        if split is None:
            raise ConfigParseError("expected name=value", f"line {lineno}")
        raw_name, raw_value = split.groups()
        desc = "\n".join(pending_desc) if pending_desc else None
        pending_desc = []
        yield f"line {lineno}", _unescape(raw_name), _unescape(raw_value), desc


def _render_ini(file: ConfigFile) -> str:
    lines = []
    for entry in file.entries:
        if entry.description is not None:
            for dline in entry.description.split("\n"):
                lines.append(f"# {dline}" if dline else "#")
        lines.append(f"{_escape_ini_name(entry.name)}={_escape_ini_value(entry.value)}")
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
