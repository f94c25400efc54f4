"""Dense Matrix Market array I/O.

Only the dense ``array`` format with ``real`` or ``complex`` field and
``general`` symmetry is supported; that is the storage used for matrices,
subspace bases, and oracle files.  Values are written with 17 significant
digits so that write followed by read is the identity on float64 data.

A clean file, whose entries follow the size line one to a line with no
comment or blank line among them, is parsed in one numpy call.  Any
other file, and every malformed one, is read by the line scan, which
alone raises :class:`~grqi.errors.ParseError`; both give the same array.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ParseError, UnsupportedFormatError

__all__ = ["read_matrix", "write_matrix"]

_BANNER = "%%matrixmarket"


def write_matrix(path: str | os.PathLike, a: np.ndarray) -> None:
    """Write a dense matrix in Matrix Market array format.

    Complex-typed input is written with the ``complex`` field, everything
    else with ``real``; entries are stored column-major at 17 significant
    digits.
    """
    a = np.atleast_2d(np.asarray(a))
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    is_complex = np.iscomplexobj(a)
    field = "complex" if is_complex else "real"
    lines = [
        f"%%MatrixMarket matrix array {field} general",
        f"{a.shape[0]} {a.shape[1]}",
    ]
    flat = np.asarray(a, dtype=complex if is_complex else float).T.reshape(-1)
    if is_complex:
        lines.extend(f"{z.real:.17g} {z.imag:.17g}" for z in flat)
    else:
        lines.extend(f"{x:.17g}" for x in flat)
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _parse_header(line: str, path: str) -> bool:
    """Validate the banner line; returns True for a complex field."""
    tokens = line.strip().split()
    if len(tokens) != 5 or tokens[0].lower() != _BANNER:
        raise ParseError(
            "malformed header, expected "
            "'%%MatrixMarket matrix array <field> general'",
            path=path,
            line=1,
        )
    obj, fmt, field, symmetry = (t.lower() for t in tokens[1:])
    if obj != "matrix":
        problem = f"unsupported object {obj!r}"
    elif fmt != "array":
        problem = (
            f"unsupported format {fmt!r}: only dense 'array' files are read"
        )
    elif field not in ("real", "complex"):
        problem = f"unsupported field {field!r}"
    elif symmetry != "general":
        problem = f"unsupported symmetry {symmetry!r}"
    else:
        return field == "complex"
    raise UnsupportedFormatError(problem, path=path, line=1)


def _plain(parse, token: str):
    """``parse(token)``, refusing with ValueError the PEP 515 underscores
    and non-ASCII digits that int() and float() read."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return parse(token)


def _bulk(raw: list[str], whole: str, is_complex: bool) -> np.ndarray | None:
    """The matrix of a file whose lines after the size line ``raw[1]`` are
    its entries, one per line, parsed in one numpy call; None otherwise.

    numpy converts each str as float() does, so every line is still read
    as exactly one number (two tokens on a complex line).  A file with a
    ``_`` or non-ASCII character, or a comment or blank line in its body,
    a count other than rows*cols lines (one trailing empty string aside)
    or a line that does not convert gives None: the line scan reads it.
    """
    if ("_" in whole or not whole.isascii() or len(raw) < 2
            or whole.find("%", len(raw[0]) + 1) >= 0):
        return None
    try:
        rows, cols = map(int, raw[1].split())
    except ValueError:
        return None
    count = len(raw) - 2 - (raw[-1] == "")
    if rows < 1 or cols < 1 or count != rows * cols:
        return None
    body = raw[2:2 + count]
    try:
        if not is_complex:
            values = np.array(body, dtype=float)
        else:
            parts = np.array([line.split() for line in body], dtype=float)
            if parts.shape != (count, 2):
                return None
            # The (re, im) pairs' bytes, as complex(re, im) keeps them.
            values = parts.view(complex)
    except ValueError:
        return None
    return values.reshape(cols, rows).T


def read_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read a dense Matrix Market array file.

    Returns a float64 matrix for ``real`` files and a complex128 matrix for
    ``complex`` files.  Raises :class:`~grqi.errors.ParseError` with a
    1-based line number on malformed content, and its subclass
    :class:`~grqi.errors.UnsupportedFormatError`, at line 1, for coordinate
    files or other unsupported header variants.
    """
    path = os.fspath(path)
    with open(path) as fh:
        whole = fh.read()
    raw = whole.split("\n")
    if not raw[0].strip():
        raise ParseError("empty file, expected a header", path=path, line=1)
    is_complex = _parse_header(raw[0], path)
    if (bulk := _bulk(raw, whole, is_complex)) is not None:
        return bulk

    shape = None
    values: list[complex] = []
    per_entry = 2 if is_complex else 1
    for lineno, line in enumerate(raw[1:], start=2):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        tokens = text.split()
        if shape is None:
            if len(tokens) != 2:
                raise ParseError(
                    f"size line must hold two integers, got {len(tokens)} "
                    "tokens",
                    path=path,
                    line=lineno,
                )
            try:
                rows, cols = (_plain(int, t) for t in tokens)
            except ValueError:
                raise ParseError(
                    f"non-integer size entry {text!r}", path=path, line=lineno
                ) from None
            if rows < 1 or cols < 1:
                raise ParseError(
                    f"dimensions must be positive, got {rows} {cols}",
                    path=path,
                    line=lineno,
                )
            shape = (rows, cols)
            continue
        if len(tokens) != per_entry:
            raise ParseError(
                f"expected {per_entry} value(s) per entry, got {len(tokens)}",
                path=path,
                line=lineno,
            )
        try:
            parts = [_plain(float, t) for t in tokens]
        except ValueError:
            raise ParseError(
                f"non-numeric entry {text!r}", path=path, line=lineno
            ) from None
        if len(values) == shape[0] * shape[1]:
            raise ParseError(
                f"more entries than the declared {shape[0]}x{shape[1]}",
                path=path,
                line=lineno,
            )
        values.append(complex(*parts) if is_complex else parts[0])

    eof = len(raw) if raw[-1] else len(raw) - 1
    if shape is None:
        raise ParseError("missing size line", path=path, line=eof + 1)
    if len(values) != shape[0] * shape[1]:
        raise ParseError(
            f"expected {shape[0] * shape[1]} entries, found {len(values)}",
            path=path,
            line=eof + 1,
        )
    dtype = complex if is_complex else float
    return np.array(values, dtype=dtype).reshape(shape[::-1]).T
