import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grqi import ParseError, UnsupportedFormatError, read_matrix, write_matrix

SEED = 6060


def roundtrip(tmp_path, a):
    path = tmp_path / "m.mtx"
    write_matrix(path, a)
    return read_matrix(path)


def test_roundtrip_real_bitwise(tmp_path):
    rng = np.random.default_rng(SEED)
    a = rng.standard_normal((5, 3))
    b = roundtrip(tmp_path, a)
    assert b.dtype == np.float64
    assert np.array_equal(a, b)


def test_roundtrip_complex_bitwise(tmp_path):
    rng = np.random.default_rng(SEED + 1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = roundtrip(tmp_path, a)
    assert b.dtype == np.complex128
    assert np.array_equal(a, b)


def test_roundtrip_awkward_values(tmp_path):
    a = np.array([[1e-300, 0.1], [-0.0, 1e300], [np.pi, 1.0 / 3.0]])
    b = roundtrip(tmp_path, a)
    assert np.array_equal(a, b)
    assert np.signbit(b[1, 0])


def test_roundtrip_single_entry(tmp_path):
    b = roundtrip(tmp_path, np.array([[2.5]]))
    assert b.shape == (1, 1) and b[0, 0] == 2.5


def test_real_file_reads_with_zero_imag(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, np.eye(2))
    b = read_matrix(path).astype(complex)
    assert np.all(b.imag == 0.0)


def test_header_written_as_array_real(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, np.eye(2))
    first = path.read_text().splitlines()[0]
    assert first == "%%MatrixMarket matrix array real general"


def test_column_major_entry_order(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix(path, np.array([[1.0, 3.0], [2.0, 4.0]]))
    lines = [l for l in path.read_text().splitlines() if not l.startswith("%")]
    assert lines[0].split() == ["2", "2"]
    assert [float(x) for x in lines[1:]] == [1.0, 2.0, 3.0, 4.0]


def test_malformed_header_names_line_one(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%NotMatrixMarket stuff\n1 1\n1.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(path)
    assert exc.value.line == 1
    assert str(path) in str(exc.value)


def test_coordinate_format_unsupported(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0\n"
    )
    with pytest.raises(UnsupportedFormatError) as exc:
        read_matrix(path)
    assert exc.value.line == 1
    assert f"{path}:1: unsupported format" in str(exc.value)


def test_pattern_field_unsupported(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array pattern general\n1 1\n")
    with pytest.raises(UnsupportedFormatError):
        read_matrix(path)


def test_symmetric_layout_unsupported(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n3.0\n")
    with pytest.raises(UnsupportedFormatError):
        read_matrix(path)


def test_bad_size_line_reports_line_number(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\nnot a size\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(path)
    assert exc.value.line == 2


def test_bad_entry_reports_line_number(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\nbogus\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(path)
    assert exc.value.line == 4
    assert f"{path}:4" in str(exc.value)


def test_truncated_file_reports_eof(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n3 1\n1.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(path)
    assert exc.value.line == 4


def test_extra_entries_rejected(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\n1.0\n2.0\n")
    with pytest.raises(ParseError):
        read_matrix(path)


def test_complex_entry_token_count(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0\n")
    with pytest.raises(ParseError) as exc:
        read_matrix(path)
    assert exc.value.line == 3


def test_comments_and_blank_lines_tolerated(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% a comment\n"
        "\n"
        "2 1\n"
        "% another\n"
        "1.5\n"
        "\n"
        "2.5\n"
    )
    b = read_matrix(path)
    assert np.array_equal(b, np.array([[1.5], [2.5]]))


_HEADER = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize(
    "body,line,message",
    [
        ("1 1\n1_0\n", 3, "non-numeric entry '1_0'"),
        ("1_0 1\n" + "1.0\n" * 10, 2, "non-integer size entry '1_0 1'"),
        ("1 1\n\u0661.\u0665\n", 3, "non-numeric entry"),
    ],
    ids=["underscore-entry", "underscore-size", "arabic-indic-entry"],
)
def test_python_only_number_spellings_rejected(tmp_path, body, line, message):
    # int() and float() read PEP 515 underscores and non-ASCII digits.
    path = tmp_path / "m.mtx"
    path.write_text(_HEADER + body, encoding="utf-8")
    with pytest.raises(ParseError, match=message) as exc:
        read_matrix(path)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"{path}:{line}: ")


def test_comments_may_hold_underscores_and_non_ascii(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text(
        _HEADER + "% writer_name: caf\u00e9\n1 1\n2.5\n", encoding="utf-8"
    )
    assert np.array_equal(read_matrix(path), np.array([[2.5]]))


def test_parse_error_names_path_and_line():
    assert str(ParseError("m", "f.mtx", 3)) == "f.mtx:3: m"


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix(tmp_path / "absent.mtx")


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_roundtrip_property(n, p, complex_valued, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p)) * 10.0 ** rng.integers(-12, 12)
    if complex_valued:
        a = a + 1j * rng.standard_normal((n, p))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.mtx")
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)
