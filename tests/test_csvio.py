import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskconvex.csvio import format_value, parse_float, read_csv, read_float_table, write_csv
from riskconvex.errors import ConfigError


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips_bit_exact(x):
    assert float(format_value(x)) == x


def test_write_read_round_trip(tmp_path):
    rows = [[1, 0.1, "tag"], [2, -1.5e-30, "other"]]
    path = tmp_path / "t.csv"
    write_csv(path, rows, header=["i", "x", "name"])
    header, back = read_csv(path, header=True)
    assert header == ["i", "x", "name"]
    assert back == [["1", "0.1", "tag"], ["2", "-1.5e-30", "other"]]


def test_float_table_parses_and_reports_lines(tmp_path):
    path = tmp_path / "n.csv"
    write_csv(path, [[0.5, 1.25], [2.5, -3.5]])
    _, rows = read_float_table(path)
    assert rows == [[0.5, 1.25], [2.5, -3.5]]
    path.write_text("0.5,ok\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_float_table(path)


def test_reruns_are_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, 3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, data)
    write_csv(p2, data)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        read_csv(tmp_path / "absent.csv")


def test_parse_float_error_message(tmp_path):
    with pytest.raises(ConfigError, match="line 7"):
        parse_float("x2", tmp_path / "f.csv", 7)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_cells_are_rejected(tmp_path, cell):
    path = tmp_path / "n.csv"
    path.write_text(f"col_0\n0.5\n{cell}\n")
    with pytest.raises(ConfigError, match=f"line 3: non-finite value '{cell}'"):
        read_float_table(path, header=True)
