import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskconvex.csvio import format_value, read_matrix, write_csv
from riskconvex.errors import ConfigError
from riskconvex.solver import write_trace_csv


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips_bit_exact(x):
    assert float(format_value(x)) == x


def test_write_read_round_trip(tmp_path):
    rows = [[1, 0.1, True], [2, -1.5e-30, False]]
    path = tmp_path / "t.csv"
    write_csv(path, rows, header=["i", "x", "flag"])
    assert path.read_text() == "i,x,flag\n1,0.1,1\n2,-1.5e-30,0\n"
    header, back = read_matrix(path, header=True)
    assert header == ["i", "x", "flag"]
    assert back.dtype == np.float64
    assert np.array_equal(back, [[1.0, 0.1, 1.0], [2.0, -1.5e-30, 0.0]])


def test_string_cells_are_written_verbatim(tmp_path):
    path = tmp_path / "s.csv"
    write_csv(path, [["tag", 0.5]])
    assert path.read_text() == "tag,0.5\n"


def test_float_table_parses_and_reports_lines(tmp_path):
    path = tmp_path / "n.csv"
    write_csv(path, [[0.5, 1.25], [2.5, -3.5]])
    head, rows = read_matrix(path)
    assert head is None
    assert np.array_equal(rows, [[0.5, 1.25], [2.5, -3.5]])
    path.write_text("0.5,ok\n")
    with pytest.raises(ConfigError, match="line 1"):
        read_matrix(path)


def test_reruns_are_byte_identical(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.standard_normal((20, 3))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, data)
    write_csv(p2, data)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_file_is_config_error(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(ConfigError, match=f"cannot read {path}"):
        read_matrix(path)


def test_undecodable_file_is_config_error(tmp_path):
    path = tmp_path / "bin.csv"
    path.write_bytes(b"\xff\xfe0.5\n")
    with pytest.raises(ConfigError, match=f"cannot read {path}"):
        read_matrix(path)


def test_parse_float_error_message(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("col_0\n" + "1.0\n" * 5 + "x2\n")
    with pytest.raises(ConfigError, match=r"f\.csv, line 7: cannot parse 'x2' as a number"):
        read_matrix(path, header=True)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_cells_are_rejected(tmp_path, cell):
    path = tmp_path / "n.csv"
    path.write_text(f"col_0\n0.5\n{cell}\n")
    with pytest.raises(ConfigError, match=f"line 3: non-finite value '{cell}'"):
        read_matrix(path, header=True)


@pytest.mark.parametrize("text, header, message", [
    ("col_0,col_1\n0.1\n", True, r"line 2: expected 2 columns, found 1"),
    ("theta\n0.5,7\n0.2\n", True, r"line 2: expected 1 columns, found 2"),
    ("0.1,0.2\n0.3\n", False, r"line 2: expected 2 columns, found 1"),
    ("0.1\n0.3,0.4\n", False, r"line 2: expected 1 columns, found 2"),
])
def test_width_is_fixed_by_the_header_or_first_row(tmp_path, text, header, message):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"r\.csv, {message}"):
        read_matrix(path, header=header)


@pytest.mark.parametrize("header", [True, False])
def test_empty_file_is_config_error(tmp_path, header):
    path = tmp_path / "e.csv"
    path.write_text("\n")
    with pytest.raises(ConfigError, match=r"e\.csv: empty file"):
        read_matrix(path, header=header)


def test_header_only_file_is_an_empty_table_of_its_width(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("col_0,col_1,col_2\n")
    head, table = read_matrix(path, header=True)
    assert head == ["col_0", "col_1", "col_2"] and table.shape == (0, 3)


def test_blank_lines_are_skipped_and_counted(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("col_0\n\n0.5\n\nbad\n")
    with pytest.raises(ConfigError, match="line 5: cannot parse 'bad'"):
        read_matrix(path, header=True)
    path.write_text("col_0\n\n0.5\n\n0.25\n\n")
    assert np.array_equal(read_matrix(path, header=True)[1], [[0.5], [0.25]])


@pytest.mark.parametrize("x,text", [
    (-0.0, "-0.0"), (0.0, "0.0"), (5e-324, "5e-324"), (1e308, "1e+308"), (0.1, "0.1"),
    (3, "3"), (-7, "-7"), (True, "1"), (False, "0"), ("tag", "tag"), ("", ""),
])
def test_a_cell_keeps_its_text_whatever_its_type(x, text):
    assert format_value(x) == text
    if type(x) is float:  # a numpy scalar writes the Python float's text
        assert format_value(np.float64(x)) == text


def test_trace_csv_keeps_the_bytes_of_numpy_scalar_rows(tmp_path):
    thetas = np.array([[-0.0, 5e-324], [1e308, 0.1], [-1.5e-30, 2.0]])
    norms, etas = np.array([0.0, 1e-300, 3.0]), np.array([0.5, 1.0 / 3.0, -0.0])
    write_trace_csv(tmp_path / "trace.csv",
                    [(i + 1, thetas[i], norms[i], etas[i], None) for i in range(3)])
    write_csv(tmp_path / "ref.csv",
              [[i + 1, *thetas[i], norms[i], etas[i]] for i in range(3)],
              header=["iter", "theta_0", "theta_1", "grad_norm", "eta"])
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "trace.csv").read_text().splitlines()[1] == "1,-0.0,5e-324,0.0,0.5"
