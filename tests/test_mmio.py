import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grqi import ParseError, UnsupportedFormatError, read_matrix, write_matrix
from grqi import mmio

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


def read_outcome(path):
    """What ``read_matrix`` gives for ``path``: the array's dtype, shape,
    memory order and bytes, or the error's class, message and line."""
    try:
        a = read_matrix(path)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return a.dtype, a.shape, a.flags.f_contiguous, a.tobytes(order="A")


def line_scan_outcome(path):
    with mock.patch.object(mmio, "_bulk", return_value=None):
        return read_outcome(path)


def test_clean_files_take_the_bulk_parse(tmp_path):
    path = tmp_path / "m.mtx"
    for a in (np.eye(3, 2), np.eye(2, 3) * (1 - 2j)):
        write_matrix(path, a)
        whole = path.read_text()
        bulk = mmio._bulk(whole.split("\n"), whole, np.iscomplexobj(a))
        assert bulk is not None and np.array_equal(bulk, a)
        assert bulk.dtype == a.dtype and bulk.flags.f_contiguous
    path.write_text(_HEADER + "2 1\n1.5\n% late comment\n2.5\n")
    whole = path.read_text()
    assert mmio._bulk(whole.split("\n"), whole, False) is None


def test_complex_special_values_read_bitwise(tmp_path):
    # Each part is built as complex(re, im) builds it, signbits and NaN
    # bits included; re + 1j * im would read -0-0j's real part as +0.0
    # and 1+inf j as nan+inf j.
    pairs = [("-0.0", "-0.0"), ("-0", "0"), ("1", "inf"), ("inf", "-inf"),
             ("-inf", "1"), ("nan", "-0.0"), ("-nan", "nan"),
             ("0", "-nan")]
    path = tmp_path / "m.mtx"
    path.write_text(
        "%%MatrixMarket matrix array complex general\n4 2\n"
        + "".join(f"{re} {im}\n" for re, im in pairs)
    )
    expected = np.array(
        [complex(float(re), float(im)) for re, im in pairs]
    ).reshape(2, 4).T
    b = read_matrix(path)
    assert b.dtype == np.complex128 and b.flags.f_contiguous
    assert b.tobytes(order="F") == expected.tobytes(order="F")
    assert read_outcome(path) == line_scan_outcome(path)


@st.composite
def mm_texts(draw):
    """Matrix Market text of a random real or complex array, sometimes
    with a layout quirk or a fault that the bulk parse must leave to the
    line scan."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((rows, cols * (1 + is_complex)))
    specials = [-0.0, np.inf, -np.inf, np.nan]
    a.flat[rng.random(a.size) < 0.1] = rng.choice(specials)
    entries = a.reshape(rows, cols, -1).transpose(1, 0, 2)
    body = [" ".join(f"{x:.17g}" for x in e) for e in entries.reshape(
        rows * cols, -1)]
    at = lambda end=0: draw(st.integers(0, len(body) - 1 + end))  # noqa: E731
    pad = lambda line: (  # noqa: E731
        draw(st.sampled_from(["", " ", "\t"])) + line + " ")
    if draw(st.booleans()):
        body.insert(at(1), draw(st.sampled_from(["% note", "", "  "])))
    if draw(st.booleans()):
        i = at()
        body[i] = pad(body[i])
    count = draw(st.sampled_from([0, 0, 0, -1, 1]))
    if count < 0:
        del body[at()]
    elif count > 0:
        body.insert(at(1), body[0])
    if body and draw(st.booleans()):
        i = at()
        tokens = body[i].split() or ["1.0"]
        body[i] = draw(st.sampled_from([
            " ".join(tokens + ["2.5"]),
            " ".join(tokens + ["2.5", "2.5"]),
            tokens[0],
            " ".join(["1_0"] + tokens[1:]),
        ]))
    field = "complex" if is_complex else "real"
    size = f"{rows} {cols}"
    lines = [f"%%MatrixMarket matrix array {field} general",
             pad(size) if draw(st.booleans()) else size, *body]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    final = draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + final


@settings(max_examples=300, deadline=None)
@given(mm_texts())
# Four tokens on each line of a complex file view as two complex values
# per line; the bulk parse must refuse them by their shape.
@example("%%MatrixMarket matrix array complex general\n1 1\n1 2 3 4\n")
def test_bulk_parse_matches_the_line_scan(text):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "m.mtx")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert read_outcome(path) == line_scan_outcome(path)
