"""YAML parsing helpers that keep source-line information.

Catalog, policy, evidence, and scenario files share the same plumbing:
parse into plain dicts/lists/scalars while recording the line of every
key and list item, so validation errors can point at the offending spot.
Section states each reading rule once: get(key, float) reads a number
as a float, member(key, enum_cls, raw) reads an enum member, and
fields(**types) reads a section that maps one-to-one onto an object,
leaving an absent key to the object's own default. The value rules, the
read-only mapping the config objects hold, and the bounded memo that
reuses work done for an equal config live here too.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from enum import Enum
from functools import lru_cache, wraps
from pathlib import Path
from typing import Any, Callable, Container, Iterable, Iterator

import yaml

from .errors import ConfigError

# Maps key paths like ("factors", 3, "far") to 1-based line numbers.
LineMap = dict[tuple, int]
# Deepest flow nesting read: well below the 476-493 levels at which PyYAML's recursive composer
# fails, by caller stack depth, so whether a document loads does not depend on its caller.
MAX_FLOW_DEPTH = 128


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


class FrozenMap(dict):
    """A dict that refuses changes and hashes by its items, so a frozen
    dataclass holding one compares and hashes by value. Hashing needs
    hashable values (a list value raises TypeError); the hash is kept
    once computed. Reads run at dict speed."""

    __slots__ = ("_hash",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._hash: int | None = None

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self.items()))
        return self._hash

    def _read_only(self, *args, **kwargs):
        raise TypeError("FrozenMap is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # str hashes differ between processes: a copy hashes afresh
        return FrozenMap, (dict(self),)


def memoized(bound: int) -> Callable:
    """functools.lru_cache(bound), except that a call whose arguments
    cannot be hashed runs uncached. A call that raises is not kept."""

    def wrap(fn: Callable) -> Callable:
        cached = lru_cache(maxsize=bound)(fn)

        @wraps(fn)
        def call(*args):
            try:
                return cached(*args)
            except TypeError:
                try:
                    hash(args)
                except TypeError:
                    return fn(*args)
                raise

        call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
        return call

    return wrap


def read_text(path: str | Path) -> str:
    """A config file's text; bytes that are not UTF-8 are a ConfigError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


class _Loader(yaml.SafeLoader):
    def fetch_flow_collection_start(self, TokenClass):
        if self.flow_level >= MAX_FLOW_DEPTH:
            raise yaml.scanner.ScannerError(problem="nested too deeply to parse", problem_mark=self.get_mark())
        super().fetch_flow_collection_start(TokenClass)


def load_document(text: str, *, what: str = "document") -> tuple[Any, LineMap]:
    """Parse a single YAML document, returning (data, line map).

    Raises ConfigError for syntax errors (with the parser's line), for
    empty input, which is never a valid config, for a recursive alias, for
    nesting too deep to parse, and for a scalar that cannot be read.
    A node reached again through an alias is converted once: its value is
    shared, and the line map holds its keys under the first path only.
    """
    loader = _Loader(text)
    try:
        node = loader.get_single_node()
        if node is None:
            raise ConfigError(f"empty {what}: nothing to parse")
        lines: LineMap = {}
        return _convert(loader, node, (), lines, {}), lines
    except yaml.YAMLError as exc:
        line = None
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            line = mark.line + 1
        raise ConfigError(f"malformed {what}: {exc}", line=line) from exc
    except RecursionError:
        raise ConfigError(f"malformed {what}: nested too deeply to parse") from None
    finally:
        loader.dispose()


def _convert(loader: yaml.SafeLoader, node: yaml.Node, path: tuple, lines: LineMap, done: dict) -> Any:
    """node as plain data; done maps each collection node met so far to its
    value, None while it is still being converted."""
    lines.setdefault(path, node.start_mark.line + 1)
    if isinstance(node, yaml.ScalarNode):
        try:
            return loader.construct_object(node)
        except (ValueError, KeyError, AttributeError) as exc:
            # PyYAML's constructors raise these on unreadable text: an integer past Python's digit limit, say
            raise ConfigError(f"unreadable value: {exc}", field=dotted(path), line=lines[path]) from None
    if node in done:
        if done[node] is None:
            raise ConfigError("recursive alias", field=dotted(path), line=lines[path])
        return done[node]
    done[node] = None
    if isinstance(node, yaml.MappingNode):
        out: dict = {}
        for key_node, value_node in node.value:
            key = key_node.value
            if key in out:
                raise ConfigError(
                    "duplicate key", field=dotted(path + (key,)), line=key_node.start_mark.line + 1
                )
            lines[path + (key,)] = key_node.start_mark.line + 1
            out[key] = _convert(loader, value_node, path + (key,), lines, done)
    else:
        out = [_convert(loader, child, path + (i,), lines, done) for i, child in enumerate(node.value)]
    done[node] = out
    return out


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
        """key's value, of types; default if absent. A float read returns a float."""
        if key not in self.data:
            return default
        value = self.data[key]
        as_float = types is float
        if as_float:
            types = (int, float)
        if (as_float or types is int) and isinstance(value, bool):
            raise self.error(key, f"expected {_typename(types)}, got bool")
        if not isinstance(value, types):
            raise self.error(key, f"expected {_typename(types)}, got {type(value).__name__}")
        if not as_float:
            return value
        try:
            return float(value)
        except OverflowError:
            raise self.error(key, "integer too large for a float") from None

    def member(self, key: str, enum_cls: type[Enum], raw: Any) -> Any:
        """The member of enum_cls whose value is raw, read at key."""
        try:
            return enum_cls(raw)
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise self.error(key, f"'{raw}' is not one of: {valid}") from None

    def fields(self, **types: type | tuple) -> dict[str, Any]:
        """This section read as an object's keyword arguments, each key
        as get(key, types[key]). Any other key is an unknown field, and
        an absent key is left out, so the object's own default applies."""
        self.reject_unknown(types)
        return {key: self.get(key, t) for key, t in types.items() if key in self.data}

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

    def reject_unknown(self, known: Container[str]) -> None:
        for key in self.data:
            if key not in known:
                raise self.error(key, "unknown field")


def _typename(types: type | tuple) -> str:
    if isinstance(types, tuple):
        return " or ".join(t.__name__ for t in types)
    return types.__name__


def load_root(source: str, what: str) -> Section:
    """A config file's top-level mapping, once its schema_version is
    found to be the one this build reads, 1."""
    root = Section(*load_document(source, what=what), what=what)
    version = root.require("schema_version", int)
    if version != 1:
        raise root.error("schema_version", f"unsupported schema_version {version}; this build reads version 1")
    return root
