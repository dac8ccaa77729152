"""The file I/O layer: formats, input records and error mapping."""

import hashlib
import json
import warnings
from importlib import resources

import numpy as np
import pytest

from trapcoh import ConfigError, DomainError, TrapcohError, io


def test_resolve_records_path_and_preset(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"a": 1}\n')
    data, key, digest = io.resolve(str(path))
    assert (data, key) == (path.read_bytes(), str(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    data, key, digest = io.resolve("rin_40db")
    preset = (resources.files("trapcoh.data") / "rin_40db.json").read_bytes()
    assert (data, key) == (preset, "preset:rin_40db")
    assert digest == hashlib.sha256(preset).hexdigest()


def test_unreadable_inputs_are_config_not_found(tmp_path):
    for value in (str(tmp_path / "missing.json"), str(tmp_path), "no_such_preset"):
        with pytest.raises(ConfigError) as err:
            io.resolve(value)
        assert err.value.kind == "config_not_found"
    with pytest.raises(ConfigError) as err:
        io.read_csv(tmp_path, ("t_s",))
    assert err.value.kind == "config_not_found"
    with pytest.raises(ConfigError) as err:
        io.read_preset("no_such_preset")
    assert err.value.kind == "config_not_found"


def test_bad_content_is_parse_error(tmp_path):
    for data in (b"{not json", b"\xff\xfe"):
        with pytest.raises(ConfigError) as err:
            io.parse_json(data, "x.json")
        assert err.value.kind == "parse_error"
    for data in (b"", b"t_s\n0.0\n", b"t_s,y\n0.0\n", b"t_s,y\n0.0,inf\n",
                 b"t_s,y\n0.0,1.0,2.0\n", b"t_s,y,t_s\n0.0,1.0,2.0\n"):
        with pytest.raises(ConfigError) as err:
            io.parse_csv(data, "x.csv", ("t_s", "y"))
        assert err.value.kind == "parse_error"


def test_csv_layout_that_parses():
    # blank and whitespace-only lines, CRLF line ends and spaces around cells
    data = b"\r\n t_s , y\r\n\r\n0.5, 1.0 \r\n \t\r\n 1.5 ,-2e-3\r\n\n"
    cols = io.parse_csv(data, "x.csv", ("y", "t_s"))
    assert list(cols) == ["t_s", "y"]
    assert cols["t_s"].tolist() == [0.5, 1.5] and cols["y"].tolist() == [1.0, -2e-3]
    # a header with no rows gives empty columns, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cols = io.parse_csv(b"t_s,y\n\n", "x.csv", ("t_s",))
    assert {name: col.shape for name, col in cols.items()} == {"t_s": (0,), "y": (0,)}


def test_parsing_passes_package_errors_through():
    with pytest.raises(DomainError):
        with io.parsing("x"):
            raise DomainError("out of range")


def test_write_formats_round_trip(tmp_path):
    obj = {"b": [1.5, 2], "a": {"d": None, "c": "x"}}
    path = tmp_path / "doc.json"
    io.write_json(path, obj)
    assert path.read_text() == json.dumps(obj, sort_keys=True, indent=1) + "\n"
    assert io.read_json(path) == obj
    x = np.array([0.1, 1.0 / 3.0, 2.0 ** -40])
    y = np.array([1e300, -0.0, 5.0])
    path = tmp_path / "cols.csv"
    io.write_csv(path, ("x", "y"), x, y)
    rows = [f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]
    assert path.read_text().splitlines() == ["x,y"] + rows
    cols = io.read_csv(path, ("y",))
    assert np.array_equal(cols["x"], x) and np.array_equal(cols["y"], y)


def test_csv_refuses_non_finite_cells(tmp_path):
    # what io writes, parse_csv reads back: no NaN or inf cell, as in dumps
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(TrapcohError) as err:
            io.write_csv(tmp_path / "bad.csv", ("x", "y"), [0.0, 1.0], [2.0, bad])
        assert err.value.kind == "non_finite"
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(TrapcohError) as err:
        io.dumps({"x": np.nan})
    assert err.value.kind == "non_finite"
