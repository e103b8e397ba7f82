"""YAML parsing helpers that keep source-line information.

Catalog, policy, evidence, and scenario files share the same plumbing:
parse into plain dicts/lists/scalars while recording the line of every
key and list item, so validation errors can point at the offending spot.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

import yaml

from .errors import ConfigError

# Maps key paths like ("factors", 3, "far") to 1-based line numbers.
LineMap = dict[tuple, int]


def dotted(path: tuple) -> str:
    """Render a key path as 'factors[3].far'."""
    out = ""
    for part in path:
        if isinstance(part, int):
            out += f"[{part}]"
        else:
            out += ("." if out else "") + str(part)
    return out or "<document>"


# One check per value rule. Each takes the value and the key path of the
# field it fills, and renders that path only when the value breaks the rule.


def unit_interval(value: float, *path) -> None:
    """Probabilities, trust and likelihoods lie in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"must lie in [0, 1], got {value!r}", field=dotted(path))


def positive_fraction(value: float, *path) -> None:
    """Accuracy and penalty multipliers lie in (0, 1]."""
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"must lie in (0, 1], got {value!r}", field=dotted(path))


def non_negative(value: float, *path) -> None:
    """Weights, thresholds and times are finite and >= 0."""
    if not 0.0 <= value < math.inf:
        raise ConfigError(f"must be finite and non-negative, got {value!r}", field=dotted(path))


def finite_sum(values: Iterable[float], *path) -> None:
    """A set of weights has a finite float sum; math.fsum is no test of
    that, since it raises OverflowError where the sum overflows."""
    if not math.isfinite(sum(values)):
        raise ConfigError("sum of weights must be finite", field=dotted(path))


def read_text(path: str | Path) -> str:
    """A config file's text; bytes that are not UTF-8 are a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def load_document(text: str, *, what: str = "document") -> tuple[Any, LineMap]:
    """Parse a single YAML document, returning (data, line map).

    Raises ConfigError for syntax errors (with the parser's line) and for
    empty input, which is never a valid config.
    """
    try:
        loader = yaml.SafeLoader(text)
        try:
            node = loader.get_single_node()
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ConfigError(f"malformed {what}: {exc}", line=line) from exc
    if node is None:
        raise ConfigError(f"empty {what}: nothing to parse")
    lines: LineMap = {}
    data = _convert(node, (), lines)
    return data, lines


def _convert(node: yaml.Node, path: tuple, lines: LineMap) -> Any:
    lines.setdefault(path, node.start_mark.line + 1)
    if isinstance(node, yaml.MappingNode):
        out: dict = {}
        for key_node, value_node in node.value:
            key = key_node.value
            if key in out:
                raise ConfigError(
                    "duplicate key", field=dotted(path + (key,)), line=key_node.start_mark.line + 1
                )
            lines[path + (key,)] = key_node.start_mark.line + 1
            out[key] = _convert(value_node, path + (key,), lines)
        return out
    if isinstance(node, yaml.SequenceNode):
        return [_convert(child, path + (i,), lines) for i, child in enumerate(node.value)]
    loader = yaml.SafeLoader("")
    try:
        return loader.construct_object(node, deep=True)
    finally:
        loader.dispose()


class Section:
    """A mapping under validation; get/require raise line-annotated errors."""

    def __init__(self, data: Any, lines: LineMap, path: tuple = (), *, what: str = "config"):
        if not isinstance(data, dict):
            raise ConfigError(
                f"expected a mapping for {what}", field=dotted(path), line=lines.get(path)
            )
        self.data = data
        self.lines = lines
        self.path = path
        self.what = what

    def error(self, key: str | None, message: str) -> ConfigError:
        path = self.path if key is None else self.path + (key,)
        return ConfigError(message, field=dotted(path), line=self.lines.get(path))

    def require(self, key: str, types: type | tuple = object) -> Any:
        if key not in self.data:
            raise self.error(None, f"missing required field '{key}'")
        return self.get(key, types)

    def get(self, key: str, types: type | tuple = object, default: Any = None) -> Any:
        if key not in self.data:
            return default
        value = self.data[key]
        numeric = types is float or types is int
        if types is float:
            types = (int, float)
        if numeric and isinstance(value, bool):
            raise self.error(key, f"expected {_typename(types)}, got bool")
        if not isinstance(value, types):
            raise self.error(key, f"expected {_typename(types)}, got {type(value).__name__}")
        return value

    def section(self, key: str, *, required: bool = False) -> "Section | None":
        if key not in self.data:
            if required:
                raise self.error(None, f"missing required field '{key}'")
            return None
        return Section(self.data[key], self.lines, self.path + (key,), what=key)

    def items(self, key: str) -> "list[Section]":
        value = self.require(key, list)
        return [
            Section(entry, self.lines, self.path + (key, i), what=f"{key}[{i}]")
            for i, entry in enumerate(value)
        ]

    @contextmanager
    def checking(self) -> Iterator[None]:
        """Place a ConfigError raised inside, by an object checking values
        read from this section, at the line of the key its field names: a
        key path from the document root, else its last part as a key of
        this section, else this section itself."""
        try:
            yield
        except ConfigError as exc:
            if exc.line is not None:
                raise
            name = exc.field or ""
            keys = {dotted(path): line for path, line in self.lines.items()}
            line = keys.get(name) or self.lines.get(self.path + (name.rpartition(".")[2],))
            raise ConfigError(exc.message, field=exc.field, line=line or self.lines.get(self.path)) from exc

    def reject_unknown(self, known: set[str]) -> None:
        for key in self.data:
            if key not in known:
                raise self.error(key, "unknown field")


def _typename(types: type | tuple) -> str:
    if isinstance(types, tuple):
        return " or ".join(t.__name__ for t in types)
    return types.__name__


def check_schema_version(section: Section, supported: int = 1) -> None:
    version = section.require("schema_version", int)
    if version != supported:
        raise section.error("schema_version", f"unsupported schema_version {version}; this build reads version {supported}")
