"""Layered run configuration: INI file, then ``--set`` overrides.

Values resolve in three layers (defaults < config file < command-line
overrides) against a typed schema, so every run can echo one flat,
fully resolved key=value listing.  Config files are flat ``key = value``
INI tables; a section header is rejected.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,
               "false": False, "no": False, "0": False, "off": False}


@dataclass(frozen=True)
class Field:
    """One schema entry: type, default, optional allowed choices, and
    optional least value."""

    name: str
    kind: type
    default: object
    choices: tuple = ()
    low: float | None = None
    help: str = ""


def parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def load_config_file(path) -> dict[str, str]:
    """Raw key -> string map from a flat ``key = value`` INI file.

    Every command reads one flat table, so a line that opens a
    ``[section]`` is rejected.
    """
    text = Path(path).read_text()
    for number, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("["):
            raise ValueError(f"bad config file {path}: line {number} is a "
                             "section header; use flat key = value lines")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    # the parser counts the header line added here; messages give the
    # file's own line numbers
    try:
        parser.read_string("[top]\n" + text, source=str(path))
    except configparser.ParsingError as exc:
        lines = ", ".join(f"line {number - 1}: {line}"
                          for number, line in exc.errors)
        raise ValueError(f"bad config file {path}: cannot parse "
                         f"{lines}") from None
    except configparser.DuplicateOptionError as exc:
        raise ValueError(f"bad config file {path}: line {exc.lineno - 1} "
                         f"sets {exc.option!r} again") from None
    except configparser.Error as exc:
        raise ValueError(f"bad config file {path}: {exc}") from None
    return dict(parser.items("top"))


def parse_overrides(pairs: list[str]) -> dict[str, str]:
    """``key=value`` strings from repeated ``--set`` flags."""
    out: dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"override must look like key=value: {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _coerce(field: Field, text: str):
    if field.kind is bool:
        value = parse_bool(text)
    elif field.kind in (int, float):
        try:
            value = field.kind(text)
        except ValueError:
            raise ValueError(
                f"{field.name}: expected {field.kind.__name__}, "
                f"got {text!r}") from None
    else:
        value = text
    if field.choices and value not in field.choices:
        raise ValueError(
            f"{field.name}: {value!r} not in {sorted(field.choices)}")
    return value


def resolve(schema: list[Field], file_values: dict[str, str],
            overrides: dict[str, str]) -> dict:
    """Defaults, then file values, then overrides, coerced and checked
    against each field's choices and least value."""
    by_name = {f.name: f for f in schema}
    resolved = {f.name: f.default for f in schema}
    for layer in (file_values, overrides):
        for key, text in layer.items():
            field = by_name.get(key)
            if field is None:
                known = ", ".join(sorted(by_name))
                raise ValueError(f"unknown config key {key!r} "
                                 f"(known keys: {known})")
            resolved[key] = _coerce(field, text)
    for field in schema:
        value = resolved[field.name]
        if field.choices and value not in field.choices:
            raise ValueError(
                f"{field.name}: default {value!r} "
                f"not in {sorted(field.choices)}")
        if field.low is not None and value < field.low:
            raise ValueError(f"{field.name}: must be >= {field.low}")
    return resolved


def render_resolved(resolved: dict) -> str:
    """Flat ``key = value`` echo of a resolved config, sorted by key."""
    lines = [f"{key} = {resolved[key]}" for key in sorted(resolved)]
    return "\n".join(lines) + "\n"
