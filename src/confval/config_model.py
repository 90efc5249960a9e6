"""Configuration file model: parse, render and compress.

Two on-disk dialects are supported:

* XML, Hadoop style: ``<configuration>`` holding ``<property>`` blocks with
  ``<name>``, ``<value>`` and optional ``<description>`` children.
* INI, the compact form: one ``name=value`` per line, with ``# `` comment
  lines immediately above an entry carrying its description.

All types are immutable values; operations are pure.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from xml.sax.saxutils import escape

from .errors import ConfigParseError


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
            raise ValueError("entry name must be non-empty")
        if "\n" in self.name or "\r" in self.name:
            raise ValueError(f"entry name contains a line break: {self.name!r}")
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
        h = hashlib.sha256()
        h.update(self.project.encode("utf-8") + b"\x00")
        h.update(self.version.encode("utf-8") + b"\x00")
        for e in self.entries:
            for part in (e.name, e.value, e.description or ""):
                h.update(part.encode("utf-8") + b"\x00")
            h.update(b"\x01")
        return h.hexdigest()


def parse_config(text: str, format: ConfigFormat, project: str, version: str) -> ConfigFile:
    """Parse a document in the given format, preserving entry order.

    Raises ConfigParseError for unbalanced markup, duplicate or empty
    parameter names, naming the offending location.
    """
    if format is ConfigFormat.XML:
        entries = _parse_xml(text)
    else:
        entries = _parse_ini(text)
    try:
        return ConfigFile(project=project, version=version, format=format, entries=tuple(entries))
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
    return ConfigFile(
        project=file.project,
        version=file.version,
        format=ConfigFormat.INI,
        entries=file.entries,
    )


def load_config_file(
    path: str | Path,
    project: str,
    version: str,
    format: ConfigFormat | None = None,
) -> ConfigFile:
    """Read a .xml or .ini file from disk; format inferred from the suffix."""
    path = Path(path)
    if format is None:
        suffix = path.suffix.lower()
        if suffix == ".xml":
            format = ConfigFormat.XML
        elif suffix == ".ini":
            format = ConfigFormat.INI
        else:
            raise ConfigParseError(f"cannot infer format from suffix {suffix!r}", str(path))
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"not valid UTF-8: {exc}", str(path)) from exc
    return parse_config(text, format, project, version)


def write_config_file(file: ConfigFile, path: str | Path) -> None:
    Path(path).write_text(render_config(file, file.format), encoding="utf-8")


# --- XML dialect ---


def _parse_xml(text: str) -> list[ConfigEntry]:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise ConfigParseError(f"malformed XML: {exc.msg}", f"line {line}, column {col}") from exc
    if root.tag != "configuration":
        raise ConfigParseError(f"expected <configuration> root, got <{root.tag}>")
    entries: list[ConfigEntry] = []
    seen: set[str] = set()
    for index, prop in enumerate(root, start=1):
        where = f"property #{index}"
        if prop.tag != "property":
            raise ConfigParseError(f"unexpected element <{prop.tag}>", where)
        name = _leaf_text(prop, "name", where)
        if name is None:
            raise ConfigParseError("missing <name>", where)
        if not name:
            raise ConfigParseError("empty parameter name", where)
        if "\n" in name or "\r" in name:
            raise ConfigParseError(f"parameter name contains a line break: {name!r}", where)
        if name in seen:
            raise ConfigParseError(f"duplicate parameter name: {name}", where)
        seen.add(name)
        value = _leaf_text(prop, "value", where)
        description = _leaf_text(prop, "description", where)
        entries.append(ConfigEntry(name, value if value is not None else "", description))
    return entries


def _leaf_text(prop: ET.Element, tag: str, where: str) -> str | None:
    elem = prop.find(tag)
    if elem is None:
        return None
    if len(elem):
        raise ConfigParseError(f"<{tag}> must not contain child elements", where)
    return elem.text or ""


# XML parsers normalize a raw CR to LF; the character reference survives.
_XML_TEXT_ENTITIES = {"\r": "&#13;"}


def _render_xml(file: ConfigFile) -> str:
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<configuration>"]
    for entry in file.entries:
        lines.append("  <property>")
        lines.append(f"    <name>{escape(entry.name)}</name>")
        lines.append(f"    <value>{escape(entry.value, _XML_TEXT_ENTITIES)}</value>")
        if entry.description is not None:
            lines.append(
                f"    <description>{escape(entry.description, _XML_TEXT_ENTITIES)}</description>"
            )
        lines.append("  </property>")
    lines.append("</configuration>")
    return "\n".join(lines) + "\n"


# --- INI dialect ---
# Escapes keep the one-line-per-entry shape reversible: backslash, '=' and a
# leading '#' (which would read as a comment) in names, backslash and newline
# in values.


def _escape_ini_name(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace("=", "\\=")
    return "\\" + escaped if escaped.startswith("#") else escaped


def _escape_ini_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")


def _unescape(text: str) -> str:
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


def _split_ini_line(line: str) -> tuple[str, str] | None:
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


def _parse_ini(text: str) -> list[ConfigEntry]:
    entries: list[ConfigEntry] = []
    seen: set[str] = set()
    pending_desc: list[str] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.startswith("#"):
            pending_desc.append(line[2:] if line.startswith("# ") else line[1:])
            continue
        if not line.strip():
            pending_desc = []
            continue
        split = _split_ini_line(line)
        if split is None:
            raise ConfigParseError("expected name=value", f"line {lineno}")
        raw_name, raw_value = split
        name = _unescape(raw_name)
        if not name:
            raise ConfigParseError("empty parameter name", f"line {lineno}")
        if name in seen:
            raise ConfigParseError(f"duplicate parameter name: {name}", f"line {lineno}")
        seen.add(name)
        desc = "\n".join(pending_desc) if pending_desc else None
        pending_desc = []
        entries.append(ConfigEntry(name, _unescape(raw_value), desc))
    return entries


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
