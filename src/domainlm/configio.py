"""Flat key=value config files.

One `key = value` pair per line, `#` starts a comment. Every key corresponds
to a dataclass field, and a command that reads the key takes a flag of the
same name to override it. Parsing collects all problems instead of stopping at the first
so a bad config is reported exhaustively.

`atomic_open` is the one way the package writes a file: the content goes to
`<name>.tmp` beside the target, which is renamed over it once complete.
`write_csv` is the one way it writes a CSV table.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import os
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "ConfigError",
    "atomic_open",
    "atomic_write_text",
    "write_csv",
    "read_flat_config",
    "write_flat_config",
    "dataclass_to_mapping",
    "build_dataclass",
    "split_known_keys",
]


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open `<path>.tmp` for writing and rename it over `path` on success.

    The target holds either its previous content or the whole new file, never
    a partial one. Missing parent directories are created. On any exception
    the temporary file is removed and the exception propagates. `mode` and
    `kwargs` go to `Path.open`.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open(mode, **kwargs) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> Path:
    """Write UTF-8 `text` to `path` through `atomic_open`."""
    with atomic_open(path, encoding="utf-8") as handle:
        handle.write(text)
    return Path(path)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write `header` and `rows` of caller-formatted cells through `atomic_open`."""
    path = Path(path)
    with atomic_open(path, newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def read_flat_config(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    mapping: dict[str, str] = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in mapping:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def dataclass_to_mapping(instance) -> dict[str, str]:
    return {f.name: _format_value(getattr(instance, f.name)) for f in dataclasses.fields(instance)}


def write_flat_config(instance, path) -> Path:
    lines = [f"{key} = {value}" for key, value in dataclass_to_mapping(instance).items()]
    return atomic_write_text(path, "\n".join(lines) + "\n")


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _parse_scalar(text: str, target_type):
    if target_type is bool:
        lowered = text.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    return target_type(text)


def _field_type(f: dataclasses.Field):
    # Both config dataclasses use postponed annotations, so every field type is a string.
    known = {"int": int, "float": float, "bool": bool, "str": str,
             "int | None": int, "float | None": float}
    if f.type not in known:
        raise ConfigError(f"unsupported config field annotation {f.type!r}")
    return known[f.type], f.type.endswith("| None")


def build_dataclass(cls, mapping: dict[str, str], errors: list[str]):
    """Instantiate `cls` from string values; problems append to `errors`."""
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in mapping:
            continue
        text = mapping[f.name]
        base, optional = _field_type(f)
        if optional and text == "":
            kwargs[f.name] = None
            continue
        try:
            kwargs[f.name] = _parse_scalar(text, base)
        except (ValueError, TypeError):
            errors.append(f"{f.name}: cannot parse {text!r} as {base.__name__}")
    try:
        return cls(**kwargs)
    except TypeError as exc:
        errors.append(str(exc))
        return None


def split_known_keys(mapping: dict[str, str], *dataclass_types) -> tuple[dict[str, dict[str, str]], list[str]]:
    """Partition a flat mapping by which dataclass owns each key."""
    owners: dict[str, dict[str, str]] = {cls.__name__: {} for cls in dataclass_types}
    field_owner = {f.name: cls.__name__ for cls in dataclass_types for f in dataclasses.fields(cls)}
    unknown = []
    for key, value in mapping.items():
        owner = field_owner.get(key)
        if owner is None:
            unknown.append(key)
        else:
            owners[owner][key] = value
    return owners, unknown
