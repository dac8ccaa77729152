"""File I/O: the one module that opens, parses, hashes and writes files.

JSON documents are written with sorted keys, a one-space indent and a
trailing newline. CSV files have one header row of column names and
floats in repr form, so a read back is bit-exact. Neither ever holds a
NaN or inf (``non_finite``). Errors map to ConfigError here and nowhere else:
an input path that cannot be read (missing, a directory, no permission)
is ``config_not_found``, content that does not parse is ``parse_error``,
and an output that cannot be written is ``output_error``.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError, TrapcohError


@contextmanager
def parsing(source):
    """Report content from `source` that does not parse as a parse_error.
    Package errors, such as a constructor's DomainError, pass through."""
    try:
        yield
    except TrapcohError:
        raise
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ConfigError(f"cannot parse {source}: {exc}", kind="parse_error") from exc


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}", kind="config_not_found") from exc


def _preset(name) -> bytes:
    ref = resources.files("trapcoh.data").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ConfigError(f"no file or bundled preset named {name!r}", kind="config_not_found")
    return ref.read_bytes()


def resolve(value):
    """Read a file path, or else a bundled preset by bare name, once.

    Returns (data, key, sha256): the bytes, the key under which a
    document's meta.inputs records them (the path as given, or
    ``preset:<name>``), and their digest. Digest and parse use the same
    bytes, so an input is never hashed before it is loaded.
    """
    if os.path.exists(value):
        data, key = _read(value), str(value)
    else:
        data, key = _preset(value), f"preset:{value}"
    return data, key, hashlib.sha256(data).hexdigest()


def read_preset(name):
    """JSON object of a bundled preset, e.g. 'cs133' or 'rin_40db'."""
    return parse_json(_preset(name), f"preset:{name}")


def parse_json(data, source):
    with parsing(source):
        return json.loads(data)


def parse_csv(data, source, required):
    """Columns of a comma-separated CSV by header name, as float arrays; each
    name once, those in `required` present, each row one finite cell per name."""
    with parsing(source):
        lines = [line for line in data.decode().splitlines() if line.strip()]
        header = [name.strip() for name in lines[0].split(",")] if lines else []
        if not set(required) <= set(header) or len(set(header)) < len(header):
            raise ValueError(f"header {header} must name {list(required)}, no name twice")
        # loadtxt warns on a table with no rows
        table = (np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2) if lines[1:]
                 else np.empty((0, len(header))))
        if table.shape[1] != len(header) or not np.all(np.isfinite(table)):
            raise ValueError(f"each row needs one finite cell per name in header {header}")
    return dict(zip(header, table.T))


def read_json(path):
    return parse_json(_read(path), path)


def read_csv(path, required):
    """Columns of the CSV file at `path` by header name; see parse_csv."""
    return parse_csv(_read(path), path, required)


def write_text(path, text):
    """Write `text` to the file `path`, creating its directory if missing."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}", kind="output_error") from exc


def dumps(obj):
    """JSON text of `obj`: sorted keys, a one-space indent, a trailing newline."""
    try:
        return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"
    except ValueError as exc:
        raise TrapcohError(f"result holds a NaN or inf: {exc}", kind="non_finite") from exc


def write_json(path, obj):
    write_text(path, dumps(obj))


def csv_text(names, *columns):
    """Header row `names`, then one row per index of the equal-length
    columns; a NaN or inf cell is ``non_finite``, as in dumps."""
    if not all(np.all(np.isfinite(col)) for col in columns):
        raise TrapcohError("CSV column holds a NaN or inf", kind="non_finite")
    rows = [",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)]
    return ",".join(names) + "\n" + "".join(rows)


def write_csv(path, names, *columns):
    write_text(path, csv_text(names, *columns))
