"""CSV writer: one column at a time, formatted by dtype, byte-equal to per-value formatting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tvarseq.io import config_hash, write_csv

FLOATS = np.array([0.1, 1 / 3, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
INTS = np.array([0, 1, -7, 2 ** 62, 3, 15, 100000, -1], dtype=np.int64)
BOOLS = np.array([True, False, True, True, False, False, True, False])
NAMES = np.array(["s1", "s2", "series", "", "gaussian_std", "a b", "x", "y"])
CFG = {"command": "test", "n": 8}


def old_fmt(v):
    """The per-value rules the column writer replaced: the reference."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


def reference_lines(columns):
    # a bool column was passed to the old writer as Python bools
    columns = [c.tolist() if c.dtype == bool else c for c in columns]
    return [",".join(old_fmt(v) for v in row) for row in zip(*columns)]


def written(tmp_path, table, cfg=CFG):
    path = tmp_path / "t.csv"
    write_csv(str(path), cfg, table)
    return path.read_bytes()


def test_columns_match_the_old_rules(tmp_path):
    table = {"x": FLOATS, "k": INTS, "flag": BOOLS, "name": NAMES}
    lines = written(tmp_path, table).decode("utf-8").split("\n")
    assert lines[2:-1] == reference_lines(list(table.values()))
    assert lines[2:4] == ["0.1,0,1,s1", "0.3333333333333333,1,0,s2"]
    assert lines[4].startswith("-0.0,") and lines[5].startswith("5e-324,")
    assert [line.split(",")[0] for line in lines[6:10]] == ["1e+308", "nan", "inf", "-inf"]


def test_hash_line_header_and_lf_endings(tmp_path):
    raw = written(tmp_path, {"x": FLOATS, "k": INTS})
    assert b"\r" not in raw and raw.endswith(b"\n")
    lines = raw.decode("utf-8").split("\n")
    assert lines[0] == f"# config_hash={config_hash(CFG)}"
    assert lines[1] == "x,k"
    assert len(lines) == 2 + len(FLOATS) + 1  # the last split is the empty tail


def test_numpy_float_scalars_are_not_spelled_out(tmp_path):
    # under numpy 2, repr(np.float64(0.1)) == 'np.float64(0.1)': floats must
    # be formatted from Python floats
    raw = written(tmp_path, {"x": np.array([0.1, 2.5]), "n": np.array([1, 2])})
    assert raw.decode("utf-8").split("\n")[2:] == ["0.1,1", "2.5,2", ""]
    assert b"np." not in raw and b"float64" not in raw


def test_python_sequences_and_ranges(tmp_path):
    table = {"l": range(1, 4), "v": [0.5, 1.0, -2.0], "g": [True, False, True]}
    assert written(tmp_path, table).decode("utf-8").split("\n")[2:] == [
        "1,0.5,1", "2,1.0,0", "3,-2.0,1", ""]


def test_empty_table_writes_the_header_only(tmp_path):
    lines = written(tmp_path, {"a": np.empty(0), "b": []}).decode("utf-8").split("\n")
    assert lines[1:] == ["a,b", ""]


def test_unequal_columns_rejected(tmp_path):
    with pytest.raises(ValueError):
        written(tmp_path, {"a": [1, 2], "b": [1.0]})


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20))
def test_floats_round_trip(tmp_path_factory, values):
    col = np.array(values, dtype=np.float64)
    raw = written(tmp_path_factory.mktemp("rt"), {"x": col})
    text = raw.decode("utf-8").split("\n")[2:-1]
    assert text == reference_lines([col])
    back = np.array([float(s) for s in text])
    # bitwise off nan: -0.0 keeps its sign, a subnormal its last bit
    nan = np.isnan(col)
    assert np.array_equal(np.isnan(back), nan)
    assert back[~nan].tobytes() == col[~nan].tobytes()
