"""File I/O: the one module that opens, parses, hashes and writes files.

JSON documents are written with sorted keys, a one-space indent and a
trailing newline. CSV files have one header row of column names and
floats in repr form, so a read back is bit-exact. Errors map to
ConfigError here and nowhere else: an input path that cannot be read
(missing, a directory, no permission) is ``config_not_found``, and
content that does not parse is ``parse_error``.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from importlib import resources

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
    """Columns of a CSV by header name, as float arrays; every column in
    `required` must be present and every cell finite."""
    with parsing(source):
        lines = [line for line in data.decode().splitlines() if line.strip()]
        header = [name.strip() for name in lines[0].split(",")] if lines else []
        missing = [name for name in required if name not in header]
        if missing:
            raise ValueError(f"missing columns {missing}, header {header}")
        rows = [line.split(",") for line in lines[1:]]
        cols = {name: np.array([float(row[header.index(name)]) for row in rows])
                for name in header}
        bad = [name for name, col in cols.items() if not np.all(np.isfinite(col))]
        if bad:
            raise ValueError(f"non-finite values in columns {bad}")
    return cols


def read_json(path):
    return parse_json(_read(path), path)


def read_csv(path, required):
    """Columns of the CSV file at `path` by header name; see parse_csv."""
    return parse_csv(_read(path), path, required)


def write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def write_json(path, obj):
    write_text(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def write_csv(path, names, *columns):
    """Header row `names`, then one row per index of the equal-length columns."""
    rows = [",".join(repr(float(v)) for v in row) + "\n" for row in zip(*columns)]
    write_text(path, ",".join(names) + "\n" + "".join(rows))
